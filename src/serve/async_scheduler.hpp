/// \file async_scheduler.hpp
/// Asynchronous submit/poll serving layer over sharded SchedulerEngines.
/// The batch engine (engine/engine.hpp) is a blocking call: the caller
/// assembles a whole batch and waits. AsyncScheduler turns it into a
/// server front-end — `submit` returns immediately with a Ticket, requests
/// coalesce into engine batches per shard (flushed when a batch fills or a
/// deadline passes), shard strands execute on the process-wide
/// shared_thread_pool(), and `poll`/`wait`/`take` retrieve results.
///
/// Admission control: the scheduler owns a fixed table of
/// `queue_capacity` request slots. When every slot is in flight
/// (submitted but not yet take()n), submit refuses the request with a
/// rejected Ticket (`poll` == TicketStatus::Rejected) instead of growing
/// a queue without bound. Admission is pluggable (serve/admission.hpp):
/// an AdmissionPolicy defines priority lanes — per-lane weight and
/// optional per-lane in-flight bound, weighted-fair pop across lanes on
/// each shard, FIFO within a lane — and classifies submissions that name
/// no explicit lane. Without a policy the scheduler runs FifoAdmission
/// (one lane), which is exactly the pre-policy behaviour.
///
/// Determinism contract: a request's result is a pure function of the
/// EngineRequest — the engine's per-request determinism (pre-forked
/// shuffle RNG streams, sequential acceptance replay) makes every DEMT
/// call self-contained — so results are bit-identical to the synchronous
/// `SchedulerEngine::schedule_batch` path for any shard count, pool size,
/// batch size, and flush timing. Only latency and throughput change.
///
/// Allocation contract: after warm-up, the submit → coalesce → dispatch →
/// poll/take cycle performs zero heap allocations per request on the
/// metrics-only FlatList path (slot table, MPMC rings, and strand posting
/// are all pre-allocated; measured by bench/serve_throughput.cpp).
///
/// Streams (paper §5 job mix served live): open_stream pins a streaming
/// session to one shard; submit_stream enqueues a feed (arrivals +
/// watermark) as an ordinary admission-controlled request whose Ticket
/// delivers the feed's batch decisions through take_stream; close_stream
/// enqueues the final feed. Feeds of one stream execute in submission
/// order on the pinned shard's strand — FIFO through the same coalescing
/// queue as one-shot requests, interleaved fairly in arrival order — so
/// per-stream delivery is ordered and results are bit-identical to the
/// off-line simulator on the completed arrival list for any shard count
/// and flush timing (gated by bench/online_stream.cpp).
///
/// Fault tolerance (serve/fault.hpp): an optional seeded FaultPlan
/// injects deterministic faults (engine throws, slow batches, shard
/// death) for reproducible chaos runs; a watchdog declares a shard whose
/// strand stops heartbeating failed; a failed shard's queued one-shot
/// work fails over to surviving shards (bounded retry with exponential
/// backoff under RetryPolicy), and its pinned streams migrate via
/// StreamCheckpoint and resume bit-identically on a new shard. Callers
/// can bound their own exposure with wait(ticket, timeout_ms),
/// cancel(ticket), and per-lane queue-age drops (LaneSpec::max_queue_ms).
/// With no plan, no watchdog, and no retry the scheduler runs the exact
/// pre-fault hot path — bit-identical, allocation-free.
///
/// Threading: submit/poll/wait/take/flush are safe from any number of
/// threads. Each Ticket has one consumer: two threads must not wait on,
/// cancel, or take the same Ticket. One stream has one producer:
/// concurrent submit_stream calls to the same stream are delivered in
/// admission order, which only means something if the producers ordered
/// their watermarks themselves. Never call wait/drain from a shared-pool
/// worker thread (the strand you would wait on may be queued behind you).
///
/// Full operator documentation (lifecycle diagram, tuning, failure
/// semantics): docs/SERVING.md; the streaming/job-mix story: docs/ONLINE.md.

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "engine/engine.hpp"
#include "serve/admission.hpp"
#include "serve/fault.hpp"

namespace moldsched {

/// Lifecycle of a submitted request. Terminal states: Rejected, Done,
/// Failed, Cancelled — plus Invalid once the ticket's slot has been
/// take()n (or for a ticket this scheduler never issued). TimedOut is
/// never stored: it is the return value of the timed wait overload when
/// the deadline passes first (the ticket itself stays live).
enum class TicketStatus {
  Invalid,   ///< unknown ticket: never issued, already taken, slot reused
  Rejected,  ///< refused at admission: queue_capacity slots already in flight
  Pending,   ///< accepted; waiting in its shard's coalescing queue
  Running,   ///< being served inside an engine batch on a shard strand
  Done,      ///< result available through take()
  Failed,    ///< the engine threw for this batch; error(ticket) explains
  Cancelled, ///< dropped before running: cancel() or a lane max_queue_ms
  TimedOut,  ///< wait(ticket, timeout_ms) deadline passed; ticket still live
};

/// Human-readable status name (stable strings, for logs and benches).
[[nodiscard]] const char* to_string(TicketStatus status) noexcept;

/// Handle to one submitted request. Value type, freely copyable; id 0
/// means the request was rejected at admission. `lane` tags the admission
/// lane the request was classified into (set on rejected tickets too, so
/// a caller can attribute the refusal).
struct Ticket {
  std::uint64_t id = 0;    ///< unique per accepted request; 0 = rejected
  std::uint32_t slot = 0;  ///< slot index inside the scheduler's table
  std::uint32_t lane = 0;  ///< admission lane the request rides
  [[nodiscard]] bool accepted() const noexcept { return id != 0; }
};

struct AsyncOptions {
  /// Engine shards. Each shard owns one SchedulerEngine (and through it a
  /// pooled workspace set) and one coalescing queue; accepted requests are
  /// routed round-robin in submission order. More shards = more batches in
  /// flight concurrently on the shared pool.
  int shards = 1;
  /// Size-triggered flush: a shard dispatches as soon as this many
  /// requests are waiting (a dispatched batch never exceeds this size).
  int max_batch = 16;
  /// Deadline-triggered flush: no accepted request waits in a coalescing
  /// queue longer than about this long before its shard is dispatched,
  /// even when the batch is not full. <= 0 dispatches on every submit
  /// (lowest latency, smallest batches).
  double flush_after_ms = 1.0;
  /// Admission bound: maximum requests in flight (accepted but not yet
  /// take()n). Stream feeds and closes occupy the same slot table as
  /// one-shot requests. Beyond it, submit returns a rejected Ticket.
  int queue_capacity = 1024;
  /// Materialise a Schedule per result (metrics-only serving when false —
  /// the allocation-free path).
  bool keep_schedules = false;
  /// Maximum concurrently open streams; open_stream returns a rejected
  /// StreamTicket beyond it.
  int max_streams = 64;
  /// Admission policy (serve/admission.hpp), borrowed for the scheduler's
  /// whole life: its lane table is copied at construction and its
  /// classify hooks run on every submit without an explicit lane.
  /// nullptr = FifoAdmission (one lane, pure FIFO — the pre-policy
  /// behaviour, bit-compatible).
  const AdmissionPolicy* admission = nullptr;
  /// Deterministic chaos plan (serve/fault.hpp). Default-constructed =
  /// disabled: the drain loop never consults the injector and the serving
  /// path is exactly the pre-fault one. Validated at construction (throws
  /// std::invalid_argument on bad rates or scripted points).
  FaultPlan faults;
  /// Bounded retry with exponential backoff for faulted one-shot batches.
  /// Default (max_attempts == 1) keeps failures final on first attempt.
  /// Throws std::invalid_argument when max_attempts < 1 or
  /// base_backoff_ms < 0.
  RetryPolicy retry;
  /// Liveness watchdog: a shard whose strand has been inside a drain for
  /// longer than about this long without a heartbeat is declared failed —
  /// its queued one-shots fail over to surviving shards and its streams
  /// migrate when the stalled strand resumes. <= 0 disables the watchdog.
  /// Never fails the last alive shard.
  double watchdog_ms = 0.0;
  /// Decision cache for recurring workload shapes
  /// (core/decision_cache.hpp), borrowed for the scheduler's whole life
  /// and shared by every shard's engine. nullptr (default) = no caching,
  /// the exact pre-cache path. With a cache, one-shot requests whose
  /// policy opts in (SchedulingPolicy::cache_key() != 0 and
  /// EngineRequest::bypass_cache unset) replay recurring shapes instead
  /// of re-running the policy — bit-identical results, hit/miss/evict
  /// counters in AsyncStats.
  DecisionCache* cache = nullptr;
};

/// Per-lane cumulative counters (one row per admission lane, in lane
/// order) inside AsyncStats.
struct LaneStats {
  std::string name;              ///< LaneSpec::name
  std::uint64_t submitted = 0;   ///< accepted into this lane
  std::uint64_t rejected = 0;    ///< refused at admission in this lane
  std::uint64_t completed = 0;   ///< reached Done/Failed in this lane
  std::uint64_t in_flight = 0;   ///< accepted, not yet take()n
};

/// Cumulative counters; read through AsyncScheduler::stats().
struct AsyncStats {
  std::uint64_t submitted = 0;         ///< accepted requests
  std::uint64_t rejected = 0;          ///< refused at admission
  std::uint64_t completed = 0;         ///< reached Done
  std::uint64_t failed = 0;            ///< reached Failed
  std::uint64_t batches = 0;           ///< engine batches dispatched
  std::uint64_t size_flushes = 0;  ///< dispatches triggered by max_batch
  /// Dispatches triggered by the deadline policy — the background flusher
  /// when flush_after_ms > 0, submit-time immediate dispatch (deadline 0)
  /// when flush_after_ms <= 0.
  std::uint64_t deadline_flushes = 0;
  std::uint64_t forced_flushes = 0;    ///< dispatches via flush()/wait()/drain()
  std::uint64_t streams_opened = 0;    ///< accepted open_stream calls
  std::uint64_t streams_closed = 0;    ///< executed close_stream requests
  std::uint64_t stream_feeds = 0;      ///< accepted submit_stream calls
  std::uint64_t stream_rejected = 0;   ///< open_stream refusals (table full)
  std::uint64_t cancelled = 0;         ///< reached Cancelled (cancel())
  std::uint64_t dropped = 0;           ///< Cancelled by a lane max_queue_ms
  std::uint64_t retried = 0;           ///< re-queued attempts under RetryPolicy
  std::uint64_t failed_over = 0;       ///< one-shots rerouted off a failed shard
  std::uint64_t shards_failed = 0;     ///< shards declared failed (death/watchdog)
  std::uint64_t streams_migrated = 0;  ///< streams checkpointed onto a new shard
  std::uint64_t faults_injected = 0;   ///< FaultInjector decisions that fired
  std::uint64_t cache_hits = 0;        ///< decision-cache replays (AsyncOptions::cache)
  std::uint64_t cache_misses = 0;      ///< decision-cache lookups that ran fresh
  std::uint64_t cache_evictions = 0;   ///< decision-cache records recycled (CLOCK)
  // Speculative frontier decisions across all streams opened with
  // StreamConfig::speculate (see OnlineStream::set_speculate).
  std::uint64_t spec_decided = 0;      ///< batches decided ahead of watermark
  std::uint64_t spec_committed = 0;    ///< staged decisions later confirmed
  std::uint64_t spec_rolled_back = 0;  ///< staged decisions invalidated
  std::vector<LaneStats> lanes;        ///< per-lane rows, in lane order
};

/// open_stream takes the engine's StreamConfig (engine/engine.hpp)
/// unchanged: the reservations vector is copied at open, the policy is
/// borrowed for the stream's whole life. This older name remains an alias
/// for existing callers.
using StreamOptions = StreamConfig;

/// Handle to one open stream. Value type, freely copyable; id 0 means
/// open_stream refused (stream table full or scheduler stopping). `lane`
/// is the admission lane every feed/close of the stream rides.
struct StreamTicket {
  std::uint64_t id = 0;     ///< unique per accepted stream; 0 = rejected
  std::uint32_t index = 0;  ///< entry inside the scheduler's stream table
  std::uint32_t lane = 0;   ///< admission lane of the stream's feeds
  [[nodiscard]] bool accepted() const noexcept { return id != 0; }
};

class AsyncScheduler {
 public:
  /// Throws std::invalid_argument on non-positive shards, max_batch, or
  /// queue_capacity.
  explicit AsyncScheduler(AsyncOptions options = {});
  /// Drains in-flight requests, then stops the flusher and strands.
  ~AsyncScheduler();

  AsyncScheduler(const AsyncScheduler&) = delete;
  AsyncScheduler& operator=(const AsyncScheduler&) = delete;

  /// Non-blocking admission into the lane the admission policy picks
  /// (classify; lane 0 without a policy). Returns a rejected Ticket
  /// (accepted() == false) when queue_capacity requests are already in
  /// flight or the lane's own queue_capacity is. The request is copied;
  /// the Instance and SchedulingPolicy it points at are borrowed and must
  /// stay alive until the ticket is terminal. Throws
  /// std::invalid_argument on a request without an instance or policy.
  [[nodiscard]] Ticket submit(const EngineRequest& request);

  /// Same, naming the admission lane explicitly (clamped to the lane
  /// table). Explicit lane beats classify.
  [[nodiscard]] Ticket submit(const EngineRequest& request, int lane);

  /// Admission lanes this scheduler serves (>= 1; copied from the policy
  /// at construction).
  [[nodiscard]] int num_lanes() const noexcept;

  /// The lane table entry; throws std::out_of_range on a bad index.
  [[nodiscard]] const LaneSpec& lane_spec(int lane) const;

  /// Non-blocking status check.
  [[nodiscard]] TicketStatus poll(const Ticket& ticket) const noexcept;

  /// Block until the ticket is terminal (forcing its shard to flush so a
  /// partial batch cannot stall the caller); returns the terminal status.
  TicketStatus wait(const Ticket& ticket);

  /// Bounded wait: like wait(), but gives up after about timeout_ms and
  /// returns TicketStatus::TimedOut. A timed-out ticket is NOT consumed —
  /// it stays live, keeps its slot, and may still complete; poll/wait/take
  /// it again later (or cancel it). timeout_ms <= 0 is a flush + poll.
  TicketStatus wait(const Ticket& ticket, double timeout_ms);

  /// Request cancellation of a pending one-shot ticket. Best-effort and
  /// non-blocking: true means the ticket was live and the flag was set —
  /// its shard will complete it as Cancelled when it next pops it, unless
  /// the strand already claimed it for a batch (it then still reaches
  /// Done/Failed). A Cancelled ticket must still be take()n to free its
  /// slot. Stream tickets are not cancellable (returns false): a skipped
  /// feed would corrupt the stream's tape.
  bool cancel(const Ticket& ticket);

  /// Attempt count of a live or terminal ticket: 1 = first attempt, each
  /// RetryPolicy re-queue adds one. 0 for unknown/taken tickets.
  [[nodiscard]] std::uint32_t attempts(const Ticket& ticket) const noexcept;

  /// Move the result out and free the slot for admission. True only when
  /// the ticket was Done (or Failed/Cancelled: `out` is then default
  /// metrics) and names a one-shot request (stream tickets go through
  /// take_stream). After take, the ticket polls as Invalid.
  bool take(const Ticket& ticket, EngineResult& out);

  /// Open a streaming session (paper §5 job mix), pinned to one shard for
  /// its whole life; every feed/close of the stream rides the lane the
  /// admission policy picks (classify_stream). Non-blocking: returns a
  /// rejected StreamTicket when max_streams sessions are open or the
  /// scheduler is stopping. Throws std::invalid_argument on a bad
  /// configuration (no policy, m < 1, bad reservation).
  [[nodiscard]] StreamTicket open_stream(const StreamConfig& config);

  /// Same, naming the stream's admission lane explicitly (clamped).
  [[nodiscard]] StreamTicket open_stream(const StreamConfig& config,
                                         int lane);

  /// Enqueue a feed: `count` arrivals plus the stream's new watermark
  /// (same per-stream ordering/validation contract as OnlineStream::feed;
  /// a violating feed completes as Failed and leaves the stream usable).
  /// The arrivals array is borrowed until the returned Ticket is terminal.
  /// Returns a rejected Ticket when the slot table is full, the stream is
  /// unknown or closing, or the scheduler is stopping. Throws
  /// std::invalid_argument on null arrivals with count > 0.
  [[nodiscard]] Ticket submit_stream(const StreamTicket& stream,
                                     const StreamArrival* arrivals,
                                     std::size_t count, double watermark);

  /// Enqueue the final feed: remaining decisions plus the divisible drain
  /// deliver through the returned Ticket with final_delivery == true, and
  /// the stream's table entry frees once the close executes. Returns a
  /// rejected Ticket when the stream is unknown, already closing, or no
  /// slot is free.
  [[nodiscard]] Ticket close_stream(const StreamTicket& stream);

  /// take() for stream tickets: swap the feed's delivery into `out`
  /// (buffer capacity circulates, so a recycled `out` keeps the loop
  /// allocation-free) and free the slot. True only when the ticket was a
  /// Done/Failed stream feed or close; on Failed, `out` is empty and
  /// error(ticket) explained before the take.
  bool take_stream(const Ticket& ticket, StreamDelivery& out);

  /// Streams currently open (accepted, close not yet executed).
  [[nodiscard]] std::size_t open_streams() const noexcept;

  /// Error message of a Failed or Cancelled ticket ("" otherwise). Failed
  /// messages name the failing policy and, under retry, the attempt count.
  /// Valid until take().
  [[nodiscard]] std::string error(const Ticket& ticket) const;

  /// Submit-to-done latency of a Done/Failed/Cancelled ticket, in seconds
  /// (0 while non-terminal). Valid until take().
  [[nodiscard]] double latency_seconds(const Ticket& ticket) const noexcept;

  /// Dispatch every shard's partial batch now (non-blocking).
  void flush();

  /// Block until every accepted request is terminal (Done/Failed). Flushes
  /// as it goes; does not require results to have been take()n. New
  /// submits during drain extend it.
  void drain();

  /// Requests currently in flight (accepted, not yet take()n) — the value
  /// admission compares against queue_capacity.
  [[nodiscard]] std::size_t in_flight() const noexcept;

  [[nodiscard]] AsyncStats stats() const;
  [[nodiscard]] const AsyncOptions& options() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace moldsched
