/// \file engine.hpp
/// Multi-instance batch scheduling engine: the server-style entry point of
/// moldsched. A SchedulerEngine accepts many independent off-line
/// scheduling requests (the paper's batch of released jobs) and runs them
/// concurrently on the process-wide shared_thread_pool(), one pooled
/// EngineWorkspace per strand, so a steady request stream stops
/// re-warming buffers on every request. It also hosts pooled streaming
/// sessions (open_stream/feed_stream/close_stream). A whole on-line
/// simulation is one call to online_batch_schedule_into (sim/online.hpp).
///
/// The per-request algorithm is a SchedulingPolicy object
/// (core/policy.hpp): every request and stream config carries a required
/// `const SchedulingPolicy*` (null is rejected with
/// std::invalid_argument), the engine pools one policy workspace per
/// (strand, workspace key), and any user-defined policy plugs into every
/// entry point below without engine changes.
///
/// Determinism contract: results depend only on the requests, never on the
/// worker count. Requests are independent, each runs with per-request
/// options inside its strand's workspace, and results are written at the
/// request's index — `schedule_batch` with 1, 2, 4 or all workers returns
/// bit-identical results (mirrored by tests/test_engine.cpp). DEMT calls
/// that land on a pool worker evaluate their shuffle candidates
/// sequentially (nested-pool fallback), which by the shuffle engine's
/// replay design does not change the schedule either.
///
/// Allocation contract: the engine's own dispatch adds no per-request heap
/// allocation in steady state. FlatListPolicy and DemtPolicy requests in
/// metrics-only mode (`keep_schedules == false`) are fully
/// allocation-free after warm-up (DEMT reuses a pooled per-strand
/// DemtWorkspace), and so is DEMT with `keep_schedules`: the result's
/// flat placements are refilled in place. tests/alloc/ gates all three.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/decision_cache.hpp"
#include "core/demt.hpp"
#include "core/policy.hpp"
#include "sched/flat_schedule.hpp"
#include "sched/list_scheduler.hpp"
#include "sim/checkpoint.hpp"
#include "sim/online.hpp"
#include "sim/stream.hpp"
#include "tasks/instance.hpp"
#include "util/thread_pool.hpp"

namespace moldsched {

/// One off-line request: schedule `*instance` with `*policy`. Both are
/// borrowed — the caller keeps them alive until the batch call returns —
/// and both are required.
struct EngineRequest {
  const Instance* instance = nullptr;
  /// The per-batch algorithm (required).
  const SchedulingPolicy* policy = nullptr;
};

struct EngineResult {
  double cmax = 0.0;
  double weighted_completion_sum = 0.0;
  /// Placements, one entry per task; only valid when `has_schedule`
  /// (metrics-only mode skips the copy). Callers that need the object
  /// form derive it with `schedule.to_schedule(m)`.
  bool has_schedule = false;
  FlatPlacements schedule;
  DemtDiagnostics diag;  ///< meaningful for DemtPolicy requests only
};

struct EngineOptions {
  /// Worker strands per batch call: 0 = every shared-pool worker, 1 = run
  /// on the calling thread (no pool round-trip), k > 1 = cap at k. Results
  /// are identical for every setting.
  int workers = 0;
  /// Copy the placements into each result. false = metrics-only serving
  /// mode.
  bool keep_schedules = true;
  /// Decision cache (core/decision_cache.hpp), borrowed for the engine's
  /// whole life; nullptr (default) disables caching entirely — the
  /// pre-cache hot path, bit-identical to before the cache existed. When
  /// set, off-line requests whose policy opts in (cache_key() != 0) are
  /// served by signature lookup + allotment replay on a hit, and inserted
  /// on a miss. Results are bit-identical either way (the cache verifies
  /// task descriptors exactly before replaying); an engine without a cache
  /// is the guaranteed fresh run. One cache may be shared by any number of
  /// engines — the serving layer passes one to every shard.
  DecisionCache* cache = nullptr;
};

/// Configuration of one streaming session (SchedulerEngine::open_stream):
/// machine size, optional reservations (copied at open), and the per-batch
/// off-line policy every decision of the stream runs.
struct StreamConfig {
  int m = 1;
  /// Optional node reservations (nullptr = none); copied at open.
  const std::vector<NodeReservation>* reservations = nullptr;
  /// Per-batch off-line policy (required), borrowed for the stream's whole
  /// life (open through close).
  const SchedulingPolicy* policy = nullptr;
  /// Decide batches speculatively ahead of the watermark (see
  /// OnlineStream::set_speculate). Off by default; deliveries are
  /// bit-identical either way — only EngineStats speculation counters and
  /// feed latency change.
  bool speculate = false;
};

/// Handle to an open engine stream: a dense pool index plus a serial that
/// invalidates the handle when the pooled session is recycled.
struct EngineStreamId {
  int index = -1;
  std::uint64_t serial = 0;
  [[nodiscard]] bool valid() const noexcept { return index >= 0; }
};

/// Cumulative counters; read through SchedulerEngine::stats().
struct EngineStats {
  std::uint64_t requests = 0;         ///< off-line requests served
  std::uint64_t batches = 0;          ///< batch calls dispatched
  std::uint64_t streams_opened = 0;   ///< streaming sessions opened
  std::uint64_t streams_restored = 0; ///< sessions resumed from a checkpoint
  std::uint64_t stream_feeds = 0;     ///< feed_stream calls served
  std::uint64_t stream_arrivals = 0;  ///< arrivals fed across all streams
  std::uint64_t spec_decided = 0;     ///< batches decided ahead of watermark
  std::uint64_t spec_committed = 0;   ///< staged decisions later confirmed
  std::uint64_t spec_rolled_back = 0; ///< staged decisions invalidated
  int strands_last_batch = 1;         ///< concurrency of the last call
};

/// One pooled streaming session: the OnlineStream (which owns its
/// simulator state and scratch) plus the stream's borrowed per-batch
/// policy. Sessions live behind unique_ptr so their addresses stay stable
/// while the pool grows.
struct EngineStreamState {
  OnlineStream sim;
  const SchedulingPolicy* policy = nullptr;  ///< borrowed while open
  std::uint64_t serial = 0;
  bool in_use = false;
  // Speculation counters already folded into EngineStats (the stream's own
  // counters are cumulative per session; the engine accumulates deltas).
  std::uint64_t spec_seen_decided = 0;
  std::uint64_t spec_seen_committed = 0;
  std::uint64_t spec_seen_rolled_back = 0;
};

/// Per-strand reusable state: every buffer a request needs.
/// The engine owns one per strand; two concurrent requests never share
/// one. Policy scratch is pooled per (strand, SchedulingPolicy::
/// workspace_key): the first request a strand serves under a given key
/// allocates its workspace, every later one reuses it — which is what
/// keeps the steady-state serving loop allocation-free.
struct EngineWorkspace {
  FlatPlacements flat;         ///< policy output staging
  SignatureScratch signature;  ///< decision-cache canonicalization scratch
  /// Pooled per-policy scratch, keyed by workspace_key().
  struct PolicySlot {
    const void* key = nullptr;
    std::unique_ptr<PolicyWorkspace> ws;
  };
  std::vector<PolicySlot> policy_pool;
  /// Fetch (or lazily create) this strand's workspace for `policy`.
  [[nodiscard]] PolicyWorkspace& policy_workspace(
      const SchedulingPolicy& policy);
  /// Streaming sessions, pooled: close_stream retires a session into
  /// `free_streams` with all its capacity, and the next open_stream
  /// reuses it — a warm open/feed/close cycle allocates nothing. The
  /// engine keeps one pool, in its first workspace (stream calls follow
  /// the engine's one-caller-at-a-time contract, so per-strand isolation
  /// is not needed; the serving layer gives each shard its own engine).
  std::vector<std::unique_ptr<EngineStreamState>> streams;
  std::vector<int> free_streams;
};

class SchedulerEngine {
 public:
  explicit SchedulerEngine(EngineOptions options = {});

  /// Serve every off-line request; results[i] answers requests[i].
  /// Deterministic for any worker count. Not thread-safe: one batch call at
  /// a time per engine.
  [[nodiscard]] std::vector<EngineResult> schedule_batch(
      const std::vector<EngineRequest>& requests);

  /// Same, reusing the caller's result storage (steady-state serving loop).
  void schedule_batch(const std::vector<EngineRequest>& requests,
                      std::vector<EngineResult>& results);

  /// Batch-assembly hook for serving layers that coalesce requests in
  /// their own storage (serve/async_scheduler.hpp assembles batches from
  /// ring-buffer slots): serve `count` requests from raw arrays.
  /// `results` must point at `count` constructed EngineResult slots.
  /// Identical semantics and determinism to the vector overloads; adds no
  /// heap allocation of its own.
  void schedule_batch_into(const EngineRequest* requests, std::size_t count,
                           EngineResult* results);

  /// Open a streaming session (paper §5 job mix as a live request
  /// stream): returns a handle for feed_stream/close_stream. Sessions
  /// live in one pool per engine (inside its first EngineWorkspace) and
  /// are pinned to this engine. Stream calls follow the engine's thread
  /// contract — one caller at a time; the serving layer pins each engine
  /// (shard) to one strand. Throws std::invalid_argument on a bad config
  /// (no policy, m < 1, bad reservation).
  [[nodiscard]] EngineStreamId open_stream(const StreamConfig& config);

  /// Feed `count` arrivals with the new watermark; decisions that became
  /// final are written into `out` (cleared first, buffers reused). Same
  /// validation and error contract as OnlineStream::feed, plus
  /// std::invalid_argument on an unknown/closed stream id.
  void feed_stream(const EngineStreamId& id, const StreamArrival* arrivals,
                   std::size_t count, double watermark, StreamDelivery& out);

  /// Close the stream: final decisions + divisible drain delivered with
  /// final_delivery == true, then the session returns to the pool and the
  /// id becomes invalid (even when the close itself throws).
  void close_stream(const EngineStreamId& id, StreamDelivery& out);

  /// Snapshot an open stream's resumable state into `out`
  /// (sim/checkpoint.hpp); the session stays open and unchanged. Same
  /// thread contract as feed_stream. Throws std::invalid_argument on an
  /// unknown/closed id.
  void checkpoint_stream(const EngineStreamId& id, StreamCheckpoint& out);

  /// Open a session resuming from `ckpt`: machine size and reservations
  /// come from the checkpoint, the per-batch policy from `config` — the
  /// same policy the original stream ran, or the resumed decisions will
  /// differ. Future feeds/close deliver bit-identically to the original
  /// session's continuation. Throws std::invalid_argument on a missing
  /// policy or a malformed checkpoint.
  [[nodiscard]] EngineStreamId restore_stream(const StreamConfig& config,
                                              const StreamCheckpoint& ckpt);

  /// Release a session without running finish(): no final delivery, the
  /// id becomes invalid, the pooled state is recycled. The failover path
  /// after checkpoint_stream — the stream's life continues elsewhere.
  /// Unknown/closed ids are ignored.
  void abandon_stream(const EngineStreamId& id) noexcept;

  [[nodiscard]] const EngineOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

 private:
  /// Dispatch `count` indexed work items over the strands (inline when one
  /// strand, shared pool otherwise) and update the dispatch stats. A
  /// template, not std::function: the single-strand serving loop must not
  /// allocate per batch call.
  template <typename Body>
  void run_indexed(std::size_t count, const Body& body) {
    if (count == 0) return;
    const std::size_t strands = strand_count(count);
    if (workspaces_.size() < strands) workspaces_.resize(strands);
    if (workspaces_.empty()) workspaces_.resize(1);
    if (strands == 1) {
      for (std::size_t i = 0; i < count; ++i) body(workspaces_[0], i);
    } else {
      shared_thread_pool().parallel_for_slots(
          0, count,
          [&](std::size_t slot, std::size_t i) { body(workspaces_[slot], i); },
          strands);
    }
    ++stats_.batches;
    stats_.strands_last_batch = static_cast<int>(strands);
  }

  [[nodiscard]] std::size_t strand_count(std::size_t count) const;

  /// Resolve a stream id to its pooled session; throws
  /// std::invalid_argument when the id is unknown, closed, or recycled.
  [[nodiscard]] EngineStreamState& stream_state(const EngineStreamId& id);

  /// Take a pooled session (or grow the pool), initialise its simulator —
  /// open(m, reservations) when `ckpt` is null, restore(*ckpt) otherwise,
  /// the slot returning to the pool if that throws — and apply `config`.
  [[nodiscard]] EngineStreamId acquire_stream(const StreamConfig& config,
                                              const StreamCheckpoint* ckpt);

  /// Return session `index` to the pool; its ids become invalid.
  void release_stream(int index) noexcept;

  EngineOptions options_;
  EngineStats stats_;
  std::vector<EngineWorkspace> workspaces_;
};

}  // namespace moldsched
