#include "serve/async_scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/mpmc_queue.hpp"
#include "util/thread_pool.hpp"

namespace moldsched {

namespace {

/// Strand states. A shard's drain task is posted to the shared pool at
/// most once at a time: producers move Idle -> Scheduled (and post), the
/// running drain moves Scheduled -> Running, producers racing a running
/// drain move Running -> Rescheduled, and the drain either retires
/// (Running -> Idle) or loops when it lost that race.
enum StrandState : int { kIdle = 0, kScheduled, kRunning, kRescheduled };

[[nodiscard]] bool is_terminal(TicketStatus status) noexcept {
  return status == TicketStatus::Done || status == TicketStatus::Failed ||
         status == TicketStatus::Cancelled ||
         status == TicketStatus::Rejected || status == TicketStatus::Invalid;
}

[[nodiscard]] std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

AsyncOptions validated(AsyncOptions options) {
  if (options.shards <= 0) {
    throw std::invalid_argument("AsyncScheduler: shards <= 0");
  }
  if (options.max_batch <= 0) {
    throw std::invalid_argument("AsyncScheduler: max_batch <= 0");
  }
  if (options.queue_capacity <= 0) {
    throw std::invalid_argument("AsyncScheduler: queue_capacity <= 0");
  }
  if (options.max_streams <= 0) {
    throw std::invalid_argument("AsyncScheduler: max_streams <= 0");
  }
  if (options.retry.max_attempts < 1) {
    throw std::invalid_argument("AsyncScheduler: retry.max_attempts < 1");
  }
  if (options.retry.base_backoff_ms < 0.0) {
    throw std::invalid_argument("AsyncScheduler: retry.base_backoff_ms < 0");
  }
  return options;
}

/// Admission-time checks of a one-shot request (before any classifier or
/// shard sees it); throws std::invalid_argument.
void validate_request(const EngineRequest& request) {
  if (request.instance == nullptr) {
    throw std::invalid_argument("AsyncScheduler: request without instance");
  }
  if (request.policy == nullptr) {
    throw std::invalid_argument("AsyncScheduler: request without policy");
  }
}

/// Admission-time checks of a stream configuration; throws
/// std::invalid_argument.
void validate_stream_config(const StreamConfig& config) {
  if (config.policy == nullptr) {
    throw std::invalid_argument("AsyncScheduler: stream without policy");
  }
  if (config.m < 1) {
    throw std::invalid_argument("AsyncScheduler: stream m < 1");
  }
  if (config.reservations != nullptr) {
    for (const auto& r : *config.reservations) {
      if (r.proc < 0 || r.proc >= config.m || !(r.finish > r.start)) {
        throw std::invalid_argument("AsyncScheduler: bad stream reservation");
      }
    }
  }
}

/// Copy (and validate) the admission policy's lane table; no policy means
/// FifoAdmission — one unbounded FIFO lane, the pre-policy behaviour.
std::vector<LaneSpec> validated_lanes(const AdmissionPolicy* admission) {
  std::vector<LaneSpec> lanes =
      admission != nullptr ? admission->lanes() : FifoAdmission{}.lanes();
  if (lanes.empty()) {
    throw std::invalid_argument("AsyncScheduler: admission policy has no lanes");
  }
  for (const auto& lane : lanes) {
    if (lane.weight < 1) {
      throw std::invalid_argument("AsyncScheduler: lane weight < 1");
    }
  }
  return lanes;
}

/// What a slot carries: a one-shot engine request, one stream feed, or a
/// stream close (the final feed).
enum class SlotKind { OneShot, StreamFeed, StreamClose };

/// High bit of a stream entry's ticket word while its close is in flight.
/// Folding the "closing" state into the ticket makes claiming a close one
/// CAS — verify-ownership-and-claim atomically — so a stale close racing
/// a close + reopen can never disturb the entry's new owner. Ticket ids
/// (scheduler serial << 40, plus a counter) never set this bit themselves.
constexpr std::uint64_t kStreamClosing = 1ULL << 63;

}  // namespace

const char* to_string(TicketStatus status) noexcept {
  switch (status) {
    case TicketStatus::Invalid: return "invalid";
    case TicketStatus::Rejected: return "rejected";
    case TicketStatus::Pending: return "pending";
    case TicketStatus::Running: return "running";
    case TicketStatus::Done: return "done";
    case TicketStatus::Failed: return "failed";
    case TicketStatus::Cancelled: return "cancelled";
    case TicketStatus::TimedOut: return "timed_out";
  }
  return "?";
}

struct AsyncScheduler::Impl {
  /// One pre-allocated request slot; the fixed slot table is the admission
  /// bound. `ticket` + `status` are the only cross-thread handshake; the
  /// payload fields are published by the MPMC ring's release/acquire pair.
  struct Slot {
    std::atomic<std::uint64_t> ticket{0};
    std::atomic<TicketStatus> status{TicketStatus::Invalid};
    std::int64_t submit_ns = 0;
    std::int64_t done_ns = 0;
    SlotKind kind = SlotKind::OneShot;
    std::uint32_t lane = 0;  ///< admission lane; owned with the slot
    /// Attempt count: 1 at commit, +1 per RetryPolicy re-queue. Atomic so
    /// attempts() can read it while the strand retries.
    std::atomic<std::uint32_t> attempts{0};
    /// Cancellation request, keyed by ticket id: cancel(t) stores t.id and
    /// the strand drops the slot at pop time when this matches the slot's
    /// live ticket. Matching by id (not a bool) makes a stale cancel on a
    /// recycled slot harmless — the old id can never match the new owner.
    std::atomic<std::uint64_t> cancel_ticket{0};
    /// Where the slot was routed; wait() force-flushes it. Atomic because
    /// a waiter on a recycled ticket may read it while the slot's new
    /// owner commits (the value read is then irrelevant, but the access
    /// must not be a data race).
    std::atomic<std::uint32_t> shard{0};
    EngineRequest request;    ///< OneShot payload
    EngineResult result;      ///< OneShot result
    // Stream payload: the entry, the stream ticket id it was submitted
    // under, the borrowed arrivals, and the feed's watermark.
    std::uint32_t stream_index = 0;
    std::uint64_t stream_ticket = 0;
    const StreamArrival* arrivals = nullptr;
    std::size_t arrival_count = 0;
    double watermark = 0.0;
    StreamDelivery delivery;  ///< stream result (pooled per slot)
    std::string error;
  };

  /// One open streaming session. The strand-only fields (engine_stream,
  /// engine_open) are touched exclusively by the pinned shard's strand;
  /// `ticket` is the whole cross-thread handshake: 0 = free, the stream's
  /// ticket id = open, id | kStreamClosing = close in flight. `shard` is
  /// atomic because a stale reader (ticket already recycled) may race the
  /// new owner's open_stream write.
  struct StreamEntry {
    std::atomic<std::uint64_t> ticket{0};
    std::atomic<std::uint32_t> shard{0};
    /// The caller's config as given at open, except that `reservations`
    /// points at the entry's own copy below (the policy stays borrowed).
    StreamConfig config;
    std::vector<NodeReservation> reservations;  ///< copied at open
    std::uint32_t lane = 0;  ///< every feed/close of the stream rides it
    EngineStreamId engine_stream{};
    bool engine_open = false;
    /// Migration hand-off: a failed shard's strand checkpoints the engine
    /// session into `checkpoint` and sets `has_checkpoint` before the
    /// release store that re-pins `shard`; the new shard's strand restores
    /// lazily on the stream's next feed. Ordinary strand-only fields — the
    /// re-pin store / routing load (acquire) publishes them.
    StreamCheckpoint checkpoint;
    bool has_checkpoint = false;
  };

  /// One engine shard: coalescing queue + engine (with its pooled
  /// per-strand workspaces) + reusable batch-assembly buffers. The shard
  /// itself is the PostedTask so dispatching it allocates nothing.
  struct Shard : ThreadPool::PostedTask {
    Shard(Impl& owner, const AsyncOptions& options, std::size_t num_lanes)
        : impl(&owner),
          engine(EngineOptions{1, options.keep_schedules, options.cache}) {
      // One pre-allocated ring per admission lane: FIFO within a lane,
      // weighted-fair pop across lanes. Each ring can hold every slot
      // (admission bounds the total), so a push can only fail transiently.
      pending.reserve(num_lanes);
      for (std::size_t l = 0; l < num_lanes; ++l) {
        pending.push_back(std::make_unique<MpmcQueue<std::uint32_t>>(
            static_cast<std::size_t>(options.queue_capacity)));
      }
    }

    void run() noexcept override {
      // Fresh heartbeat before the watchdog can see kRunning: a stale
      // timestamp from the previous run must not read as a stall.
      heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
      strand_state.store(kRunning, std::memory_order_relaxed);
      for (;;) {
        impl->drain_shard(*this);
        int expected = kRunning;
        if (strand_state.compare_exchange_strong(expected, kIdle)) return;
        // Lost the race with a producer (Rescheduled): drain again instead
        // of a post round-trip.
        strand_state.store(kRunning, std::memory_order_relaxed);
      }
    }

    Impl* impl;
    std::uint32_t index = 0;  ///< position in the shard table
    /// Submitted slot indices, one ring per lane.
    std::vector<std::unique_ptr<MpmcQueue<std::uint32_t>>> pending;
    std::atomic<std::int64_t> pending_count{0};  ///< across all lanes
    std::atomic<std::int64_t> first_pending_ns{0};
    std::atomic<int> strand_state{kIdle};
    /// Failed shards serve nothing: their strand only forwards queued work
    /// to survivors (drain_shard's first check). Sticky once set.
    std::atomic<bool> failed{false};
    /// Liveness signal for the watchdog, refreshed by the strand between
    /// batches; stalls show as a stale value while strand_state is running.
    std::atomic<std::int64_t> heartbeat_ns{0};
    /// Non-empty drain iterations served — the fault oracle's batch index.
    /// Strand-only.
    std::uint64_t batch_counter = 0;
    SchedulerEngine engine;
    std::vector<std::uint32_t> batch_slots;
    std::vector<EngineRequest> batch_requests;
    std::vector<EngineResult> batch_results;
    /// Engine speculation counters already folded into the Impl atomics
    /// (the engine's stats are cumulative and strand-only; these track the
    /// harvested prefix). Strand-only.
    std::uint64_t spec_seen_decided = 0;
    std::uint64_t spec_seen_committed = 0;
    std::uint64_t spec_seen_rolled_back = 0;
  };

  explicit Impl(const AsyncOptions& validated_options)
      : options(validated_options),
        lanes(validated_lanes(options.admission)),
        injector(options.faults),  // validates the plan (throws)
        slots(static_cast<std::size_t>(options.queue_capacity)),
        free_slots(static_cast<std::size_t>(options.queue_capacity)),
        streams(static_cast<std::size_t>(options.max_streams)),
        free_streams(static_cast<std::size_t>(options.max_streams)) {
    // Weighted-fair pop quotas: per round-robin round, lane l pops up to
    // floor(max_batch * w_l / W) slots (at least 1 so a starving weight
    // cannot round to zero service).
    int total_weight = 0;
    for (const auto& lane : lanes) total_weight += lane.weight;
    lane_quota.resize(lanes.size());
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      lane_quota[l] = std::max(
          1, options.max_batch * lanes[l].weight / total_weight);
    }
    lane_in_flight =
        std::make_unique<std::atomic<std::int64_t>[]>(lanes.size());
    lane_submitted =
        std::make_unique<std::atomic<std::uint64_t>[]>(lanes.size());
    lane_rejected =
        std::make_unique<std::atomic<std::uint64_t>[]>(lanes.size());
    lane_completed =
        std::make_unique<std::atomic<std::uint64_t>[]>(lanes.size());
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      lane_in_flight[l].store(0, std::memory_order_relaxed);
      lane_submitted[l].store(0, std::memory_order_relaxed);
      lane_rejected[l].store(0, std::memory_order_relaxed);
      lane_completed[l].store(0, std::memory_order_relaxed);
    }
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(options.max_streams); ++i) {
      free_streams.try_push(i);  // ring capacity >= max_streams
    }
    // Per-scheduler ticket-id space (process-wide serial in the high
    // bits): a ticket handed to the wrong AsyncScheduler can never match
    // a slot's ticket id, so it polls Invalid as the header promises.
    static std::atomic<std::uint64_t> scheduler_serial{0};
    next_ticket.store(
        (scheduler_serial.fetch_add(1, std::memory_order_relaxed) << 40) + 1,
        std::memory_order_relaxed);
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(options.queue_capacity); ++i) {
      free_slots.try_push(i);  // ring capacity >= queue_capacity
    }
    shards.reserve(static_cast<std::size_t>(options.shards));
    for (int s = 0; s < options.shards; ++s) {
      shards.push_back(std::make_unique<Shard>(*this, options, lanes.size()));
      shards.back()->index = static_cast<std::uint32_t>(s);
    }
    // Retried slots park here between attempts; pre-sized so even the
    // failure path allocates only once the table-bound is exceeded (never).
    retry_queue.reserve(static_cast<std::size_t>(options.queue_capacity));
    retry_scratch.reserve(static_cast<std::size_t>(options.queue_capacity));
    // One background thread covers every periodic duty: deadline flushes,
    // the stall watchdog, and retry release after backoff.
    if (options.flush_after_ms > 0.0 || options.watchdog_ms > 0.0 ||
        options.retry.enabled()) {
      maintenance = std::thread([this] { maintenance_loop(); });
    }
  }

  /// Ensure the shard's drain task will observe its queue: schedule it on
  /// the pool when idle, or flag a running drain to loop once more. True
  /// when this call made a difference (used only for the flush counters).
  bool activate(Shard& shard) {
    for (;;) {
      int state = shard.strand_state.load(std::memory_order_acquire);
      if (state == kIdle) {
        if (shard.strand_state.compare_exchange_weak(state, kScheduled)) {
          shared_thread_pool().post(shard);
          return true;
        }
      } else if (state == kRunning) {
        if (shard.strand_state.compare_exchange_weak(state, kRescheduled)) {
          return true;
        }
      } else {
        return false;  // already Scheduled/Rescheduled
      }
    }
  }

  /// Completion tail shared by every execution path: terminal stamps were
  /// stored by the caller; update the counters and wake waiters.
  /// Status stores before this / waiters load below form a Dekker pair
  /// with wait()'s waiters increment / status read: both sides fence with
  /// seq_cst so at least one side always sees the other's store —
  /// otherwise a completion could skip notify while the waiter sleeps on
  /// the stale status, a lost wakeup with no timeout to save it.
  void publish_done(std::size_t completed, std::size_t failed,
                    std::size_t cancelled = 0) {
    stat_completed.fetch_add(completed, std::memory_order_relaxed);
    stat_failed.fetch_add(failed, std::memory_order_relaxed);
    live_count.fetch_sub(
        static_cast<std::int64_t>(completed + failed + cancelled),
        std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters.load(std::memory_order_relaxed) > 0) {
      const std::lock_guard lock(wait_mutex);
      wait_cv.notify_all();
    }
  }

  /// Reserve one shard-failure token, refusing when taking it would leave
  /// no alive shard — routing and failover may always assume a survivor
  /// exists. True exactly once per shard.
  bool try_declare_failed(Shard& shard) {
    int count = failed_shard_count.load(std::memory_order_relaxed);
    do {
      if (count + 1 >= static_cast<int>(shards.size())) return false;
    } while (!failed_shard_count.compare_exchange_weak(
        count, count + 1, std::memory_order_acq_rel));
    if (shard.failed.exchange(true, std::memory_order_acq_rel)) {
      failed_shard_count.fetch_sub(1, std::memory_order_relaxed);
      return false;
    }
    stat_shards_failed.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// First alive shard scanning from `hint` (wrap-around). Null only if
  /// every shard is failed, which try_declare_failed makes impossible.
  [[nodiscard]] Shard* pick_alive(std::size_t hint) noexcept {
    for (std::size_t i = 0; i < shards.size(); ++i) {
      Shard& cand = *shards[(hint + i) % shards.size()];
      if (!cand.failed.load(std::memory_order_acquire)) return &cand;
    }
    return nullptr;
  }

  /// Round-robin one-shot routing that skips failed shards (free when
  /// nothing has failed — the common case is one relaxed load).
  [[nodiscard]] std::uint32_t route_one_shot(std::uint64_t id) noexcept {
    const auto home = static_cast<std::uint32_t>(id % shards.size());
    if (failed_shard_count.load(std::memory_order_relaxed) == 0) return home;
    Shard* alive = pick_alive(home);
    return alive != nullptr ? alive->index : home;
  }

  /// Hand an already-claimed slot to `target`'s coalescing queue (the
  /// requeue half of failover and retry release). Caller activates.
  void push_to_shard(std::uint32_t slot_index, Shard& target) {
    Slot& slot = slots[slot_index];
    slot.shard.store(target.index, std::memory_order_relaxed);
    std::int64_t no_stamp = 0;
    target.first_pending_ns.compare_exchange_strong(
        no_stamp, now_ns(), std::memory_order_relaxed);
    target.pending_count.fetch_add(1, std::memory_order_relaxed);
    while (!target.pending[slot.lane]->try_push(slot_index)) {
      std::this_thread::yield();  // transient only; ring holds every slot
    }
  }

  /// Complete a stream feed/close that cannot reach a live pinned shard.
  /// `release_entry` only from the failed shard's own strand: a close that
  /// still owns its entry then frees the table slot (the watchdog thread
  /// must never touch entries — they belong to strands).
  void fail_stream_slot(std::uint32_t slot_index, bool release_entry) {
    Slot& slot = slots[slot_index];
    if (release_entry && slot.kind == SlotKind::StreamClose) {
      StreamEntry& entry = streams[slot.stream_index];
      std::uint64_t closing = slot.stream_ticket | kStreamClosing;
      if (entry.ticket.compare_exchange_strong(closing, 0,
                                               std::memory_order_acq_rel)) {
        entry.has_checkpoint = false;
        open_stream_count.fetch_sub(1, std::memory_order_relaxed);
        stat_streams_closed.fetch_add(1, std::memory_order_relaxed);
        while (!free_streams.try_push(slot.stream_index)) {
          std::this_thread::yield();
        }
      }
    }
    slot.delivery.clear();
    slot.error.assign("AsyncScheduler: stream request lost with failed shard");
    slot.done_ns = now_ns();
    lane_completed[slot.lane].fetch_add(1, std::memory_order_relaxed);
    slot.status.store(TicketStatus::Failed, std::memory_order_release);
    publish_done(0, 1);
  }

  /// Complete a popped one-shot as Cancelled (caller's cancel() or a lane
  /// max_queue_ms drop). The caller batches the live-count publish.
  void complete_cancelled(Slot& slot, bool deadline_drop) {
    slot.result.cmax = 0.0;
    slot.result.weighted_completion_sum = 0.0;
    slot.result.has_schedule = false;
    slot.result.diag = DemtDiagnostics{};
    slot.error.assign(deadline_drop
                          ? "AsyncScheduler: dropped after lane max_queue_ms"
                          : "AsyncScheduler: cancelled by caller");
    slot.done_ns = now_ns();
    lane_completed[slot.lane].fetch_add(1, std::memory_order_relaxed);
    (deadline_drop ? stat_dropped : stat_cancelled)
        .fetch_add(1, std::memory_order_relaxed);
    slot.status.store(TicketStatus::Cancelled, std::memory_order_release);
  }

  /// Park a failed slot for its next attempt: ready after an exponential
  /// backoff (`attempt` is the upcoming attempt number, >= 2).
  void schedule_retry(std::uint32_t slot_index, std::int64_t now,
                      std::uint32_t attempt) {
    const auto base_ns = static_cast<std::int64_t>(
        std::llround(std::max(0.0, options.retry.base_backoff_ms) * 1e6));
    const int shift = std::min<int>(attempt >= 2 ? attempt - 2 : 0, 30);
    const std::lock_guard lock(retry_mutex);
    retry_queue.push_back(RetryItem{slot_index, now + (base_ns << shift)});
  }

  /// Maintenance duty: move every backoff-expired retry slot onto an
  /// alive shard's queue.
  void release_retries(std::int64_t now) {
    retry_scratch.clear();
    {
      const std::lock_guard lock(retry_mutex);
      std::size_t keep = 0;
      for (const RetryItem& item : retry_queue) {
        if (item.ready_ns <= now) {
          retry_scratch.push_back(item.slot);
        } else {
          retry_queue[keep++] = item;
        }
      }
      retry_queue.resize(keep);
    }
    for (const std::uint32_t slot_index : retry_scratch) {
      Shard* target = pick_alive(
          failover_rr.fetch_add(1, std::memory_order_relaxed));
      if (target == nullptr) target = shards.front().get();
      push_to_shard(slot_index, *target);
      activate(*target);
    }
  }

  /// Full failover, on the failed shard's own strand (the only owner of
  /// its engine sessions): checkpoint + re-pin every stream still pinned
  /// here, then forward `popped` (claimed but unserved) and everything in
  /// the rings to survivors. Re-entrant — a failed shard's strand stays a
  /// forwarder for slots routed to it by stale entry.shard reads.
  void strand_failover(Shard& shard, const std::uint32_t* popped,
                       std::size_t popped_count) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      StreamEntry& entry = streams[i];
      if (entry.shard.load(std::memory_order_relaxed) != shard.index) continue;
      if (entry.ticket.load(std::memory_order_acquire) == 0) continue;
      Shard* target = pick_alive(shard.index + 1 + i);
      if (target == nullptr || target == &shard) continue;
      if (entry.engine_open) {
        shard.engine.checkpoint_stream(entry.engine_stream, entry.checkpoint);
        shard.engine.abandon_stream(entry.engine_stream);
        entry.engine_open = false;
        entry.has_checkpoint = true;
        stat_streams_migrated.fetch_add(1, std::memory_order_relaxed);
      }
      // Release store: publishes the checkpoint to whoever routes on the
      // new pin (submit_stream's acquire load, then the ring push/pop).
      entry.shard.store(target->index, std::memory_order_release);
    }
    const auto forward = [&](std::uint32_t slot_index) {
      Slot& slot = slots[slot_index];
      if (slot.kind == SlotKind::OneShot) {
        Shard* target = pick_alive(
            failover_rr.fetch_add(1, std::memory_order_relaxed));
        if (target == nullptr) target = &shard;  // unreachable
        push_to_shard(slot_index, *target);
        activate(*target);
        stat_failed_over.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      const std::uint32_t pin =
          streams[slot.stream_index].shard.load(std::memory_order_relaxed);
      if (pin != shard.index &&
          !shards[pin]->failed.load(std::memory_order_acquire)) {
        push_to_shard(slot_index, *shards[pin]);
        activate(*shards[pin]);
      } else {
        // Stale slot (stream gone) or multi-failure corner: fail it rather
        // than bounce between dead shards.
        fail_stream_slot(slot_index, /*release_entry=*/true);
      }
    };
    for (std::size_t i = 0; i < popped_count; ++i) forward(popped[i]);
    std::uint32_t index = 0;
    for (auto& ring : shard.pending) {
      while (ring->try_pop(index)) {
        shard.pending_count.fetch_sub(1, std::memory_order_relaxed);
        forward(index);
      }
    }
    shard.first_pending_ns.store(0, std::memory_order_relaxed);
  }

  /// Watchdog-side requeue for a shard whose strand is stuck: reroute the
  /// queued one-shots now; stream work is failed (its engine session is
  /// strand-owned, so only the stuck strand can migrate it — that happens
  /// in strand_failover when it resumes).
  void watchdog_requeue(Shard& shard) {
    std::uint32_t index = 0;
    for (auto& ring : shard.pending) {
      while (ring->try_pop(index)) {
        shard.pending_count.fetch_sub(1, std::memory_order_relaxed);
        Slot& slot = slots[index];
        if (slot.kind == SlotKind::OneShot) {
          Shard* target = pick_alive(
              failover_rr.fetch_add(1, std::memory_order_relaxed));
          if (target == nullptr) target = &shard;  // unreachable
          push_to_shard(index, *target);
          activate(*target);
          stat_failed_over.fetch_add(1, std::memory_order_relaxed);
        } else {
          fail_stream_slot(index, /*release_entry=*/false);
        }
      }
    }
  }

  /// Serve batch_slots[first, last) — all OneShot — as one engine batch.
  /// `inject_throw` fails the whole segment as if the engine threw (the
  /// FaultKind::EngineThrow path). Failed slots with retry budget left go
  /// back to Pending through the retry queue instead of finalising.
  void run_one_shot_segment(Shard& shard, std::size_t first,
                            std::size_t last, bool inject_throw) {
    const std::size_t count = last - first;
    if (shard.batch_requests.size() < count) {
      shard.batch_requests.resize(count);
      shard.batch_results.resize(count);
    }
    for (std::size_t i = 0; i < count; ++i) {
      Slot& slot = slots[shard.batch_slots[first + i]];
      shard.batch_requests[i] = slot.request;
      slot.status.store(TicketStatus::Running, std::memory_order_relaxed);
    }
    bool failed = false;
    if (inject_throw) {
      failed = true;
      for (std::size_t i = 0; i < count; ++i) {
        slots[shard.batch_slots[first + i]].error.assign(
            "AsyncScheduler: injected fault: engine throw");
      }
    } else {
      try {
        shard.engine.schedule_batch_into(shard.batch_requests.data(), count,
                                         shard.batch_results.data());
      } catch (const std::exception& e) {
        failed = true;
        for (std::size_t i = 0; i < count; ++i) {
          slots[shard.batch_slots[first + i]].error.assign(e.what());
        }
      } catch (...) {
        failed = true;
        for (std::size_t i = 0; i < count; ++i) {
          slots[shard.batch_slots[first + i]].error.assign(
              "AsyncScheduler: unknown engine error");
        }
      }
    }
    const std::int64_t done = now_ns();
    std::size_t finalized_done = 0;
    std::size_t finalized_failed = 0;
    for (std::size_t i = 0; i < count; ++i) {
      Slot& slot = slots[shard.batch_slots[first + i]];
      if (failed) {
        const std::uint32_t tried = slot.attempts.load(
            std::memory_order_relaxed);
        if (options.retry.enabled() &&
            tried < static_cast<std::uint32_t>(options.retry.max_attempts)) {
          // Back to Pending: the slot stays live (same ticket, same lane
          // token) and re-queues after backoff, possibly on another shard.
          slot.attempts.store(tried + 1, std::memory_order_relaxed);
          slot.status.store(TicketStatus::Pending, std::memory_order_release);
          stat_retried.fetch_add(1, std::memory_order_relaxed);
          schedule_retry(shard.batch_slots[first + i], done, tried + 1);
          continue;
        }
        slot.result.cmax = 0.0;
        slot.result.weighted_completion_sum = 0.0;
        slot.result.has_schedule = false;
        slot.result.diag = DemtDiagnostics{};
        slot.error += " (policy: ";
        slot.error += slot.request.policy->name();
        if (tried > 1) {
          slot.error += ", attempts: ";
          slot.error += std::to_string(tried);
        }
        slot.error += ")";
        ++finalized_failed;
      } else {
        slot.result = std::move(shard.batch_results[i]);
        slot.error.clear();
        ++finalized_done;
      }
      slot.done_ns = done;
      lane_completed[slot.lane].fetch_add(1, std::memory_order_relaxed);
      slot.status.store(failed ? TicketStatus::Failed : TicketStatus::Done,
                        std::memory_order_release);
    }
    stat_batches.fetch_add(1, std::memory_order_relaxed);
    publish_done(finalized_done, finalized_failed);
  }

  /// Execute one stream feed/close slot on the stream's pinned shard.
  void run_stream_slot(Shard& shard, std::uint32_t slot_index) {
    Slot& slot = slots[slot_index];
    StreamEntry& entry = streams[slot.stream_index];
    slot.status.store(TicketStatus::Running, std::memory_order_relaxed);
    bool failed = false;
    // A slot that lost its entry (stale ticket racing a close + reopen)
    // must fail WITHOUT touching the entry — it may belong to a newer
    // stream now. A feed still owns the entry while the stream's own
    // close is marked in flight (feeds queued before the close execute
    // first in FIFO order), hence the mask; the close itself owns the
    // entry exactly when its claim mark is present.
    const std::uint64_t word = entry.ticket.load(std::memory_order_acquire);
    const bool owns_entry =
        slot.kind == SlotKind::StreamClose
            ? word == (slot.stream_ticket | kStreamClosing)
            : (word & ~kStreamClosing) == slot.stream_ticket;
    try {
      if (!owns_entry) {
        throw std::logic_error("AsyncScheduler: stream no longer open");
      }
      if (!entry.engine_open) {
        // Lazy open on the strand: the engine session (and its pooled
        // workspace) belongs to the shard's engine, so no other thread
        // ever touches it. A migrated stream resumes from its checkpoint
        // instead — bit-identically to the tape it left behind.
        if (entry.has_checkpoint) {
          entry.engine_stream =
              shard.engine.restore_stream(entry.config, entry.checkpoint);
          entry.has_checkpoint = false;
        } else {
          entry.engine_stream = shard.engine.open_stream(entry.config);
        }
        entry.engine_open = true;
      }
      if (slot.kind == SlotKind::StreamFeed) {
        shard.engine.feed_stream(entry.engine_stream, slot.arrivals,
                                 slot.arrival_count, slot.watermark,
                                 slot.delivery);
      } else {
        shard.engine.close_stream(entry.engine_stream, slot.delivery);
      }
      slot.error.clear();
    } catch (const std::exception& e) {
      failed = true;
      slot.error.assign(e.what());
      slot.delivery.clear();
    } catch (...) {
      failed = true;
      slot.error.assign("AsyncScheduler: unknown stream error");
      slot.delivery.clear();
    }
    if (failed && owns_entry) {
      // Entry fields are safe to read only while we own the entry.
      slot.error += " (policy: ";
      slot.error += entry.config.policy->name();
      slot.error += ")";
    }
    if (slot.kind == SlotKind::StreamClose && owns_entry) {
      // Close is terminal whatever happened inside: free the table entry.
      entry.engine_open = false;
      entry.ticket.store(0, std::memory_order_release);
      open_stream_count.fetch_sub(1, std::memory_order_relaxed);
      stat_streams_closed.fetch_add(1, std::memory_order_relaxed);
      while (!free_streams.try_push(slot.stream_index)) {
        std::this_thread::yield();  // unreachable; table-bounded
      }
    }
    // Fold this shard's engine speculation counters into the serving view
    // (deltas since the last harvest; the engine's stats are strand-only).
    const EngineStats& engine_stats = shard.engine.stats();
    stat_spec_decided.fetch_add(
        engine_stats.spec_decided - shard.spec_seen_decided,
        std::memory_order_relaxed);
    stat_spec_committed.fetch_add(
        engine_stats.spec_committed - shard.spec_seen_committed,
        std::memory_order_relaxed);
    stat_spec_rolled_back.fetch_add(
        engine_stats.spec_rolled_back - shard.spec_seen_rolled_back,
        std::memory_order_relaxed);
    shard.spec_seen_decided = engine_stats.spec_decided;
    shard.spec_seen_committed = engine_stats.spec_committed;
    shard.spec_seen_rolled_back = engine_stats.spec_rolled_back;
    slot.done_ns = now_ns();
    lane_completed[slot.lane].fetch_add(1, std::memory_order_relaxed);
    slot.status.store(failed ? TicketStatus::Failed : TicketStatus::Done,
                      std::memory_order_release);
    publish_done(failed ? 0 : 1, failed ? 1 : 0);
  }

  /// The strand body: pop up to max_batch pending slots, serve maximal
  /// runs of one-shot requests as engine batches and stream feeds/closes
  /// one by one in pop (FIFO) order — which is what keeps per-stream
  /// delivery ordered and the interleaving with batch traffic fair — then
  /// repeat until the queue is empty. Steady state performs no heap
  /// allocation (reused assembly buffers, metrics-only engine path,
  /// in-place result moves, pooled stream sessions and deliveries).
  void drain_shard(Shard& shard) {
    if (shard.failed.load(std::memory_order_acquire)) {
      // A failed shard serves nothing: its strand forwards whatever is
      // (or later lands) in its rings to the survivors.
      strand_failover(shard, nullptr, 0);
      return;
    }
    for (;;) {
      shard.heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
      // Weighted-fair pop: round-robin over the lanes, each round granting
      // lane l up to lane_quota[l] pops (quota ∝ its weight), until the
      // batch is full or nothing is pending. Work-conserving — an idle
      // lane's share flows to the backlogged ones — and FIFO within each
      // lane, which is what keeps per-stream delivery ordered.
      shard.batch_slots.clear();
      const auto limit = static_cast<std::size_t>(options.max_batch);
      std::uint32_t index = 0;
      bool progressed = true;
      while (progressed && shard.batch_slots.size() < limit) {
        progressed = false;
        for (std::size_t l = 0;
             l < shard.pending.size() && shard.batch_slots.size() < limit;
             ++l) {
          for (int q = 0; q < lane_quota[l] &&
                          shard.batch_slots.size() < limit &&
                          shard.pending[l]->try_pop(index);
               ++q) {
            shard.batch_slots.push_back(index);
            progressed = true;
          }
        }
      }
      shard.pending_count.fetch_sub(
          static_cast<std::int64_t>(shard.batch_slots.size()),
          std::memory_order_relaxed);
      if (shard.batch_slots.empty()) {
        // Racy with a concurrent submit; the flusher treats a non-empty
        // queue with no timestamp as already overdue, so a lost stamp only
        // costs one tick of latency, never a stall.
        shard.first_pending_ns.store(0, std::memory_order_relaxed);
        return;
      }
      // Fault decision for this non-empty iteration (one hash when chaos
      // is on; the branch is dead when it is off).
      FaultDecision fault{};
      if (injector.enabled()) {
        fault = injector.decide(static_cast<int>(shard.index),
                                shard.batch_counter++);
        if (fault.kind != FaultKind::None) {
          stat_faults_injected.fetch_add(1, std::memory_order_relaxed);
        }
        if (fault.kind == FaultKind::ShardDeath) {
          if (try_declare_failed(shard)) {
            // Die at the batch boundary: nothing popped here was served,
            // so failover forwards it all — no request is lost.
            strand_failover(shard, shard.batch_slots.data(),
                            shard.batch_slots.size());
            return;
          }
          fault = {};  // the last alive shard never dies
        }
      }
      // Cancellation and lane-deadline filter: popped one-shots flagged by
      // cancel() or older than their lane's max_queue_ms complete as
      // Cancelled here, at the single point where ring membership ends.
      // Stream slots pass through — skipping a feed would corrupt the tape.
      const std::int64_t filter_now = now_ns();
      std::size_t kept = 0;
      std::size_t cancelled = 0;
      for (std::size_t i = 0; i < shard.batch_slots.size(); ++i) {
        const std::uint32_t slot_index = shard.batch_slots[i];
        Slot& slot = slots[slot_index];
        if (slot.kind == SlotKind::OneShot) {
          const double max_q = lanes[slot.lane].max_queue_ms;
          const bool drop_deadline =
              max_q > 0.0 &&
              static_cast<double>(filter_now - slot.submit_ns) > max_q * 1e6;
          const bool drop_cancel =
              slot.cancel_ticket.load(std::memory_order_relaxed) ==
              slot.ticket.load(std::memory_order_relaxed);
          if (drop_deadline || drop_cancel) {
            complete_cancelled(slot, drop_deadline && !drop_cancel);
            ++cancelled;
            continue;
          }
        }
        shard.batch_slots[kept++] = slot_index;
      }
      shard.batch_slots.resize(kept);
      if (cancelled > 0) publish_done(0, 0, cancelled);
      if (fault.kind == FaultKind::SlowBatch && fault.stall_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(fault.stall_ms));
      }
      bool pending_throw = fault.kind == FaultKind::EngineThrow;
      const std::size_t count = shard.batch_slots.size();
      std::size_t i = 0;
      while (i < count) {
        shard.heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
        if (slots[shard.batch_slots[i]].kind == SlotKind::OneShot) {
          std::size_t j = i + 1;
          while (j < count &&
                 slots[shard.batch_slots[j]].kind == SlotKind::OneShot) {
            ++j;
          }
          run_one_shot_segment(shard, i, j, pending_throw);
          pending_throw = false;  // one segment absorbs the injected throw
          i = j;
        } else {
          run_stream_slot(shard, shard.batch_slots[i]);
          ++i;
        }
      }
      if (shard.failed.load(std::memory_order_acquire)) {
        // The watchdog declared us failed mid-batch (the batch itself
        // completed normally): migrate streams and forward the rest.
        strand_failover(shard, nullptr, 0);
        return;
      }
    }
  }

  /// One background thread, three periodic duties: deadline flushes (the
  /// old flusher), the strand-stall watchdog, and retry release after
  /// backoff. The tick is the tightest duty's cadence, clamped to
  /// [50us, 50ms].
  void maintenance_loop() {
    const auto flush_ns = options.flush_after_ms > 0.0
        ? static_cast<std::int64_t>(std::llround(options.flush_after_ms * 1e6))
        : 0;
    const auto watchdog_ns = options.watchdog_ms > 0.0
        ? static_cast<std::int64_t>(std::llround(options.watchdog_ms * 1e6))
        : 0;
    std::int64_t tick_ns = 50'000'000;
    // Half the flush deadline keeps the old bound: no request waits much
    // past ~1.5 deadlines before dispatch.
    if (flush_ns > 0) tick_ns = std::min(tick_ns, flush_ns / 2);
    // A quarter of the watchdog keeps stall detection prompt relative to
    // the threshold the user asked for.
    if (watchdog_ns > 0) tick_ns = std::min(tick_ns, watchdog_ns / 4);
    if (options.retry.enabled()) {
      tick_ns = std::min(
          tick_ns, static_cast<std::int64_t>(
                       std::llround(options.retry.base_backoff_ms * 1e6)) / 2);
    }
    const auto tick = std::chrono::nanoseconds(
        std::max<std::int64_t>(tick_ns, 50'000));
    std::unique_lock lock(maintenance_mutex);
    while (!maintenance_stop) {
      maintenance_cv.wait_for(lock, tick);
      if (maintenance_stop) break;
      const std::int64_t now = now_ns();
      if (flush_ns > 0) {
        for (auto& shard : shards) {
          if (shard->pending_count.load(std::memory_order_relaxed) <= 0) {
            continue;
          }
          const std::int64_t first =
              shard->first_pending_ns.load(std::memory_order_relaxed);
          if (first == 0 || now - first >= flush_ns) {
            if (activate(*shard)) {
              stat_deadline_flushes.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
      if (watchdog_ns > 0) {
        for (auto& shard : shards) {
          if (shard->failed.load(std::memory_order_acquire)) {
            // Already failed (death or an earlier tick): keep its rings
            // empty while its strand is stuck — late-routed work must not
            // wait for the stall to end.
            if (shard->pending_count.load(std::memory_order_relaxed) > 0) {
              watchdog_requeue(*shard);
            }
            continue;
          }
          const int state = shard->strand_state.load(std::memory_order_acquire);
          if (state != kRunning && state != kRescheduled) continue;
          const std::int64_t beat =
              shard->heartbeat_ns.load(std::memory_order_relaxed);
          if (beat == 0 || now - beat < watchdog_ns) continue;
          if (try_declare_failed(*shard)) {
            watchdog_requeue(*shard);
          }
        }
      }
      if (options.retry.enabled()) release_retries(now);
    }
  }

  /// Clamp a caller- or classifier-chosen lane into the lane table.
  [[nodiscard]] std::uint32_t clamp_lane(int lane) const noexcept {
    if (lane < 0) return 0;
    if (static_cast<std::size_t>(lane) >= lanes.size()) {
      return static_cast<std::uint32_t>(lanes.size() - 1);
    }
    return static_cast<std::uint32_t>(lane);
  }

  /// Per-lane admission: reserve an in-flight token in `lane`, refusing
  /// when the lane's own queue_capacity is reached. The token is released
  /// by take()/take_stream() (or immediately by the caller when a later
  /// admission step fails).
  [[nodiscard]] bool try_enter_lane(std::uint32_t lane) noexcept {
    const int cap = lanes[lane].queue_capacity;
    const std::int64_t in_lane =
        lane_in_flight[lane].fetch_add(1, std::memory_order_relaxed) + 1;
    if (cap > 0 && in_lane > cap) {
      lane_in_flight[lane].fetch_sub(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  /// Count one rejection against `lane` and hand back the tagged refusal.
  Ticket reject(std::uint32_t lane) noexcept {
    stat_rejected.fetch_add(1, std::memory_order_relaxed);
    lane_rejected[lane].fetch_add(1, std::memory_order_relaxed);
    return Ticket{0, 0, lane};
  }

  AsyncOptions options;
  std::vector<LaneSpec> lanes;  ///< copied from the admission policy
  FaultInjector injector;       ///< deterministic chaos oracle (may be off)
  std::vector<int> lane_quota;  ///< weighted-fair pop quota per RR round
  std::unique_ptr<std::atomic<std::int64_t>[]> lane_in_flight;
  std::unique_ptr<std::atomic<std::uint64_t>[]> lane_submitted;
  std::unique_ptr<std::atomic<std::uint64_t>[]> lane_rejected;
  std::unique_ptr<std::atomic<std::uint64_t>[]> lane_completed;
  std::vector<Slot> slots;
  MpmcQueue<std::uint32_t> free_slots;
  std::vector<StreamEntry> streams;
  MpmcQueue<std::uint32_t> free_streams;
  std::vector<std::unique_ptr<Shard>> shards;

  std::atomic<std::uint64_t> next_ticket;  // seeded per scheduler, see ctor
  std::atomic<std::int64_t> in_use_count{0};  ///< accepted, not yet taken
  std::atomic<std::int64_t> live_count{0};    ///< accepted, not yet terminal
  std::atomic<bool> stopping{false};

  std::atomic<std::uint64_t> stat_submitted{0};
  std::atomic<std::uint64_t> stat_rejected{0};
  std::atomic<std::uint64_t> stat_completed{0};
  std::atomic<std::uint64_t> stat_failed{0};
  std::atomic<std::uint64_t> stat_batches{0};
  std::atomic<std::uint64_t> stat_size_flushes{0};
  std::atomic<std::uint64_t> stat_deadline_flushes{0};
  std::atomic<std::uint64_t> stat_forced_flushes{0};
  std::atomic<std::uint64_t> stat_streams_opened{0};
  std::atomic<std::uint64_t> stat_streams_closed{0};
  std::atomic<std::uint64_t> stat_stream_feeds{0};
  std::atomic<std::uint64_t> stat_stream_rejected{0};
  std::atomic<std::int64_t> open_stream_count{0};

  std::atomic<std::uint64_t> stat_cancelled{0};
  std::atomic<std::uint64_t> stat_dropped{0};
  std::atomic<std::uint64_t> stat_retried{0};
  std::atomic<std::uint64_t> stat_failed_over{0};
  std::atomic<std::uint64_t> stat_shards_failed{0};
  std::atomic<std::uint64_t> stat_streams_migrated{0};
  std::atomic<std::uint64_t> stat_faults_injected{0};
  std::atomic<std::uint64_t> stat_spec_decided{0};
  std::atomic<std::uint64_t> stat_spec_committed{0};
  std::atomic<std::uint64_t> stat_spec_rolled_back{0};
  /// Failure-token count; try_declare_failed caps it below shards.size()
  /// so at least one shard is always alive. Doubles as the routing
  /// fast-path guard (0 = skip the alive scan entirely).
  std::atomic<int> failed_shard_count{0};
  std::atomic<std::uint32_t> failover_rr{0};  ///< spread for pick_alive

  /// A retried slot waits here (owned by no ring) until its backoff
  /// deadline; the maintenance thread releases it back to an alive shard.
  struct RetryItem {
    std::uint32_t slot = 0;
    std::int64_t ready_ns = 0;
  };
  std::mutex retry_mutex;
  std::vector<RetryItem> retry_queue;        ///< guarded by retry_mutex
  std::vector<std::uint32_t> retry_scratch;  ///< maintenance-thread only

  std::atomic<int> waiters{0};
  std::mutex wait_mutex;
  std::condition_variable wait_cv;

  std::thread maintenance;
  std::mutex maintenance_mutex;
  std::condition_variable maintenance_cv;
  bool maintenance_stop = false;

  /// Stamp a prepared slot (payload fields already written), route it to a
  /// shard's coalescing queue, and apply the flush policy. Shared tail of
  /// submit/submit_stream/close_stream: one-shots pass `pinned_shard` < 0
  /// (round-robin by ticket id, the pre-stream routing), stream slots pass
  /// their stream's pinned shard.
  Ticket commit_slot(std::uint32_t slot_index, std::int64_t pinned_shard);
};

Ticket AsyncScheduler::Impl::commit_slot(std::uint32_t slot_index,
                                         std::int64_t pinned_shard) {
  Slot& slot = slots[slot_index];
  const std::uint64_t id = next_ticket.fetch_add(1, std::memory_order_relaxed);
  const auto shard_index = pinned_shard >= 0
                               ? static_cast<std::uint32_t>(pinned_shard)
                               : route_one_shot(id);
  slot.shard.store(shard_index, std::memory_order_relaxed);
  slot.submit_ns = now_ns();
  slot.done_ns = 0;
  slot.attempts.store(1, std::memory_order_relaxed);
  slot.ticket.store(id, std::memory_order_relaxed);
  slot.status.store(TicketStatus::Pending, std::memory_order_release);
  in_use_count.fetch_add(1, std::memory_order_relaxed);
  live_count.fetch_add(1, std::memory_order_relaxed);
  stat_submitted.fetch_add(1, std::memory_order_relaxed);
  lane_submitted[slot.lane].fetch_add(1, std::memory_order_relaxed);

  Shard& shard = *shards[shard_index];
  std::int64_t no_stamp = 0;
  shard.first_pending_ns.compare_exchange_strong(no_stamp, slot.submit_ns,
                                                 std::memory_order_relaxed);
  shard.pending_count.fetch_add(1, std::memory_order_relaxed);
  while (!shard.pending[slot.lane]->try_push(slot_index)) {
    // Unreachable by construction (ring capacity >= queue_capacity and at
    // most queue_capacity slots circulate); yield defensively.
    std::this_thread::yield();
  }
  if (shard.pending_count.load(std::memory_order_relaxed) >=
      static_cast<std::int64_t>(options.max_batch)) {
    if (activate(shard)) {
      stat_size_flushes.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (options.flush_after_ms <= 0.0) {
    if (activate(shard)) {
      stat_deadline_flushes.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Ticket{id, slot_index, slot.lane};
}

AsyncScheduler::AsyncScheduler(AsyncOptions options)
    : impl_(std::make_unique<Impl>(validated(options))) {}

AsyncScheduler::~AsyncScheduler() {
  Impl& im = *impl_;
  im.stopping.store(true, std::memory_order_release);
  drain();  // needs the maintenance thread alive: retries drain through it
  if (im.maintenance.joinable()) {
    {
      const std::lock_guard lock(im.maintenance_mutex);
      im.maintenance_stop = true;
    }
    im.maintenance_cv.notify_all();
    im.maintenance.join();
  }
  // Let any still-queued strand activation retire before members die.
  for (auto& shard : im.shards) {
    while (shard->strand_state.load(std::memory_order_acquire) != kIdle) {
      std::this_thread::yield();
    }
  }
}

Ticket AsyncScheduler::submit(const EngineRequest& request) {
  const Impl& im = *impl_;
  validate_request(request);
  return submit(request, im.options.admission != nullptr
                             ? im.options.admission->classify(request)
                             : 0);
}

Ticket AsyncScheduler::submit(const EngineRequest& request, int lane) {
  Impl& im = *impl_;
  validate_request(request);
  const std::uint32_t lane_index = im.clamp_lane(lane);
  if (im.stopping.load(std::memory_order_acquire)) {
    return im.reject(lane_index);
  }
  if (!im.try_enter_lane(lane_index)) {
    return im.reject(lane_index);
  }
  std::uint32_t slot_index = 0;
  if (!im.free_slots.try_pop(slot_index)) {
    im.lane_in_flight[lane_index].fetch_sub(1, std::memory_order_relaxed);
    return im.reject(lane_index);
  }
  Impl::Slot& slot = im.slots[slot_index];
  slot.kind = SlotKind::OneShot;
  slot.lane = lane_index;
  slot.request = request;
  return im.commit_slot(slot_index, -1);
}

int AsyncScheduler::num_lanes() const noexcept {
  return static_cast<int>(impl_->lanes.size());
}

const LaneSpec& AsyncScheduler::lane_spec(int lane) const {
  return impl_->lanes.at(static_cast<std::size_t>(lane));
}

StreamTicket AsyncScheduler::open_stream(const StreamConfig& config) {
  const Impl& im = *impl_;
  validate_stream_config(config);
  return open_stream(config,
                     im.options.admission != nullptr
                         ? im.options.admission->classify_stream(config)
                         : 0);
}

StreamTicket AsyncScheduler::open_stream(const StreamConfig& config,
                                         int lane) {
  Impl& im = *impl_;
  validate_stream_config(config);
  if (im.stopping.load(std::memory_order_acquire)) {
    im.stat_stream_rejected.fetch_add(1, std::memory_order_relaxed);
    return StreamTicket{};
  }
  std::uint32_t index = 0;
  if (!im.free_streams.try_pop(index)) {
    im.stat_stream_rejected.fetch_add(1, std::memory_order_relaxed);
    return StreamTicket{};
  }
  Impl::StreamEntry& entry = im.streams[index];
  const std::uint64_t id =
      im.next_ticket.fetch_add(1, std::memory_order_relaxed);
  entry.shard.store(im.route_one_shot(id), std::memory_order_relaxed);
  entry.has_checkpoint = false;  // recycled entries carry no stale image
  entry.config = config;
  entry.config.reservations = &entry.reservations;
  entry.lane = im.clamp_lane(lane);
  entry.reservations.clear();
  if (config.reservations != nullptr) {
    entry.reservations = *config.reservations;
  }
  entry.engine_open = false;
  entry.ticket.store(id, std::memory_order_release);
  im.open_stream_count.fetch_add(1, std::memory_order_relaxed);
  im.stat_streams_opened.fetch_add(1, std::memory_order_relaxed);
  return StreamTicket{id, index, entry.lane};
}

Ticket AsyncScheduler::submit_stream(const StreamTicket& stream,
                                     const StreamArrival* arrivals,
                                     std::size_t count, double watermark) {
  Impl& im = *impl_;
  if (count > 0 && arrivals == nullptr) {
    throw std::invalid_argument("AsyncScheduler: null arrivals");
  }
  if (!stream.accepted() || stream.index >= im.streams.size()) {
    im.stat_rejected.fetch_add(1, std::memory_order_relaxed);
    return Ticket{};
  }
  Impl::StreamEntry& entry = im.streams[stream.index];
  // The lane comes from the caller's ticket (stamped at open_stream), not
  // from the entry: the entry may have been recycled to a new stream, and
  // reading its fields before the ownership check below would race the
  // new owner's open_stream write — and would misattribute this
  // rejection's lane stats to the new stream.
  const std::uint32_t lane = im.clamp_lane(static_cast<int>(stream.lane));
  // A closing entry carries id | kStreamClosing, so this one comparison
  // also refuses feeds behind an in-flight close.
  if (entry.ticket.load(std::memory_order_acquire) != stream.id ||
      im.stopping.load(std::memory_order_acquire)) {
    return im.reject(lane);
  }
  if (!im.try_enter_lane(lane)) {
    return im.reject(lane);
  }
  std::uint32_t slot_index = 0;
  if (!im.free_slots.try_pop(slot_index)) {
    im.lane_in_flight[lane].fetch_sub(1, std::memory_order_relaxed);
    return im.reject(lane);
  }
  Impl::Slot& slot = im.slots[slot_index];
  slot.kind = SlotKind::StreamFeed;
  slot.lane = lane;
  slot.stream_index = stream.index;
  slot.stream_ticket = stream.id;
  slot.arrivals = arrivals;
  slot.arrival_count = count;
  slot.watermark = watermark;
  im.stat_stream_feeds.fetch_add(1, std::memory_order_relaxed);
  // Acquire: a migrated stream's re-pin publishes its checkpoint through
  // this load (then the ring push/pop carries it to the new strand).
  return im.commit_slot(
      slot_index,
      static_cast<std::int64_t>(entry.shard.load(std::memory_order_acquire)));
}

Ticket AsyncScheduler::close_stream(const StreamTicket& stream) {
  Impl& im = *impl_;
  if (!stream.accepted() || stream.index >= im.streams.size() ||
      im.stopping.load(std::memory_order_acquire)) {
    im.stat_rejected.fetch_add(1, std::memory_order_relaxed);
    return Ticket{};
  }
  Impl::StreamEntry& entry = im.streams[stream.index];
  // Ticket-carried lane, not entry.lane — see submit_stream.
  const std::uint32_t lane = im.clamp_lane(static_cast<int>(stream.lane));
  if (!im.try_enter_lane(lane)) {
    return im.reject(lane);
  }
  std::uint32_t slot_index = 0;
  if (!im.free_slots.try_pop(slot_index)) {
    im.lane_in_flight[lane].fetch_sub(1, std::memory_order_relaxed);
    return im.reject(lane);
  }
  // Claim the close: one CAS both verifies we still own the entry and
  // marks it closing, so a stale close racing a close + reopen can never
  // touch the entry's new owner (it simply fails this CAS).
  std::uint64_t expected = stream.id;
  if (!entry.ticket.compare_exchange_strong(expected,
                                            stream.id | kStreamClosing,
                                            std::memory_order_acq_rel)) {
    while (!im.free_slots.try_push(slot_index)) std::this_thread::yield();
    im.lane_in_flight[lane].fetch_sub(1, std::memory_order_relaxed);
    return im.reject(lane);
  }
  Impl::Slot& slot = im.slots[slot_index];
  slot.kind = SlotKind::StreamClose;
  slot.lane = lane;
  slot.stream_index = stream.index;
  slot.stream_ticket = stream.id;
  slot.arrivals = nullptr;
  slot.arrival_count = 0;
  slot.watermark = 0.0;
  return im.commit_slot(
      slot_index,
      static_cast<std::int64_t>(entry.shard.load(std::memory_order_acquire)));
}

TicketStatus AsyncScheduler::poll(const Ticket& ticket) const noexcept {
  if (!ticket.accepted()) return TicketStatus::Rejected;
  if (ticket.slot >= impl_->slots.size()) {
    return TicketStatus::Invalid;  // ticket from another scheduler
  }
  const Impl::Slot& slot = impl_->slots[ticket.slot];
  if (slot.ticket.load(std::memory_order_acquire) != ticket.id) {
    return TicketStatus::Invalid;
  }
  return slot.status.load(std::memory_order_acquire);
}

TicketStatus AsyncScheduler::wait(const Ticket& ticket) {
  Impl& im = *impl_;
  TicketStatus status = poll(ticket);
  if (is_terminal(status)) return status;
  // Force the ticket's shard out of its coalescing wait: a partial batch
  // must not stall a caller who has declared they want the result now.
  // slot.shard is stable from submit until take; if the slot recycled
  // since the poll above we merely poke a shard needlessly.
  const std::uint32_t shard =
      im.slots[ticket.slot].shard.load(std::memory_order_relaxed);
  if (im.activate(*im.shards[shard])) {
    im.stat_forced_flushes.fetch_add(1, std::memory_order_relaxed);
  }
  im.waiters.fetch_add(1, std::memory_order_relaxed);
  // Second half of the Dekker pair with drain_shard (see there).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  {
    std::unique_lock lock(im.wait_mutex);
    im.wait_cv.wait(lock, [&] {
      status = poll(ticket);
      return is_terminal(status);
    });
  }
  im.waiters.fetch_sub(1, std::memory_order_relaxed);
  return status;
}

TicketStatus AsyncScheduler::wait(const Ticket& ticket, double timeout_ms) {
  Impl& im = *impl_;
  TicketStatus status = poll(ticket);
  if (is_terminal(status)) return status;
  const std::uint32_t shard =
      im.slots[ticket.slot].shard.load(std::memory_order_relaxed);
  if (im.activate(*im.shards[shard])) {
    im.stat_forced_flushes.fetch_add(1, std::memory_order_relaxed);
  }
  if (timeout_ms <= 0.0) {
    status = poll(ticket);
    return is_terminal(status) ? status : TicketStatus::TimedOut;
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::nanoseconds(
          static_cast<std::int64_t>(std::llround(timeout_ms * 1e6)));
  im.waiters.fetch_add(1, std::memory_order_relaxed);
  // Second half of the Dekker pair with publish_done (see wait()).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  bool terminal = false;
  {
    std::unique_lock lock(im.wait_mutex);
    terminal = im.wait_cv.wait_until(lock, deadline, [&] {
      status = poll(ticket);
      return is_terminal(status);
    });
  }
  im.waiters.fetch_sub(1, std::memory_order_relaxed);
  return terminal ? status : TicketStatus::TimedOut;
}

bool AsyncScheduler::cancel(const Ticket& ticket) {
  Impl& im = *impl_;
  if (!ticket.accepted() || ticket.slot >= im.slots.size()) return false;
  Impl::Slot& slot = im.slots[ticket.slot];
  if (slot.ticket.load(std::memory_order_acquire) != ticket.id) return false;
  if (slot.kind != SlotKind::OneShot) return false;  // streams: tape safety
  if (is_terminal(slot.status.load(std::memory_order_acquire))) return false;
  // Id-keyed request: a stale store onto a recycled slot can never match
  // the new owner's ticket, so this is race-free without a status CAS.
  slot.cancel_ticket.store(ticket.id, std::memory_order_relaxed);
  // Poke the shard so the drop happens promptly, not at the next flush.
  const std::uint32_t shard = slot.shard.load(std::memory_order_relaxed);
  im.activate(*im.shards[shard]);
  return slot.ticket.load(std::memory_order_acquire) == ticket.id;
}

std::uint32_t AsyncScheduler::attempts(const Ticket& ticket) const noexcept {
  const Impl& im = *impl_;
  if (!ticket.accepted() || ticket.slot >= im.slots.size()) return 0;
  const Impl::Slot& slot = im.slots[ticket.slot];
  if (slot.ticket.load(std::memory_order_acquire) != ticket.id) return 0;
  return slot.attempts.load(std::memory_order_relaxed);
}

bool AsyncScheduler::take(const Ticket& ticket, EngineResult& out) {
  Impl& im = *impl_;
  if (!ticket.accepted() || ticket.slot >= im.slots.size()) return false;
  Impl::Slot& slot = im.slots[ticket.slot];
  if (slot.ticket.load(std::memory_order_acquire) != ticket.id) return false;
  if (slot.kind != SlotKind::OneShot) return false;  // take_stream instead
  const TicketStatus status = slot.status.load(std::memory_order_acquire);
  if (status != TicketStatus::Done && status != TicketStatus::Failed &&
      status != TicketStatus::Cancelled) {
    return false;
  }
  out = std::move(slot.result);
  slot.ticket.store(0, std::memory_order_relaxed);
  slot.status.store(TicketStatus::Invalid, std::memory_order_release);
  im.in_use_count.fetch_sub(1, std::memory_order_relaxed);
  im.lane_in_flight[slot.lane].fetch_sub(1, std::memory_order_relaxed);
  while (!im.free_slots.try_push(ticket.slot)) {
    std::this_thread::yield();  // unreachable; see submit()
  }
  return true;
}

bool AsyncScheduler::take_stream(const Ticket& ticket, StreamDelivery& out) {
  Impl& im = *impl_;
  if (!ticket.accepted() || ticket.slot >= im.slots.size()) return false;
  Impl::Slot& slot = im.slots[ticket.slot];
  if (slot.ticket.load(std::memory_order_acquire) != ticket.id) return false;
  if (slot.kind == SlotKind::OneShot) return false;  // take() instead
  const TicketStatus status = slot.status.load(std::memory_order_acquire);
  if (status != TicketStatus::Done && status != TicketStatus::Failed) {
    return false;
  }
  // Swap, not move: the caller's buffers park in the slot, so a recycled
  // StreamDelivery keeps the take loop allocation-free.
  std::swap(out, slot.delivery);
  slot.ticket.store(0, std::memory_order_relaxed);
  slot.status.store(TicketStatus::Invalid, std::memory_order_release);
  im.in_use_count.fetch_sub(1, std::memory_order_relaxed);
  im.lane_in_flight[slot.lane].fetch_sub(1, std::memory_order_relaxed);
  while (!im.free_slots.try_push(ticket.slot)) {
    std::this_thread::yield();  // unreachable; see submit()
  }
  return true;
}

std::size_t AsyncScheduler::open_streams() const noexcept {
  const std::int64_t open =
      impl_->open_stream_count.load(std::memory_order_relaxed);
  return open > 0 ? static_cast<std::size_t>(open) : 0;
}

std::string AsyncScheduler::error(const Ticket& ticket) const {
  const Impl& im = *impl_;
  if (!ticket.accepted() || ticket.slot >= im.slots.size()) return {};
  const Impl::Slot& slot = im.slots[ticket.slot];
  if (slot.ticket.load(std::memory_order_acquire) != ticket.id) return {};
  const TicketStatus status = slot.status.load(std::memory_order_acquire);
  if (status != TicketStatus::Failed && status != TicketStatus::Cancelled) {
    return {};
  }
  return slot.error;
}

double AsyncScheduler::latency_seconds(const Ticket& ticket) const noexcept {
  if (!ticket.accepted() || ticket.slot >= impl_->slots.size()) return 0.0;
  const Impl::Slot& slot = impl_->slots[ticket.slot];
  if (slot.ticket.load(std::memory_order_acquire) != ticket.id) return 0.0;
  const TicketStatus status = slot.status.load(std::memory_order_acquire);
  if (status != TicketStatus::Done && status != TicketStatus::Failed &&
      status != TicketStatus::Cancelled) {
    return 0.0;
  }
  return static_cast<double>(slot.done_ns - slot.submit_ns) * 1e-9;
}

void AsyncScheduler::flush() {
  Impl& im = *impl_;
  for (auto& shard : im.shards) {
    if (shard->pending_count.load(std::memory_order_relaxed) <= 0) continue;
    if (im.activate(*shard)) {
      im.stat_forced_flushes.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void AsyncScheduler::drain() {
  Impl& im = *impl_;
  im.waiters.fetch_add(1, std::memory_order_acq_rel);
  std::unique_lock lock(im.wait_mutex);
  while (im.live_count.load(std::memory_order_acquire) != 0) {
    lock.unlock();
    flush();
    lock.lock();
    im.wait_cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
      return im.live_count.load(std::memory_order_acquire) == 0;
    });
  }
  lock.unlock();
  im.waiters.fetch_sub(1, std::memory_order_relaxed);
}

std::size_t AsyncScheduler::in_flight() const noexcept {
  const std::int64_t live = impl_->in_use_count.load(std::memory_order_relaxed);
  return live > 0 ? static_cast<std::size_t>(live) : 0;
}

AsyncStats AsyncScheduler::stats() const {
  const Impl& im = *impl_;
  AsyncStats stats;
  stats.submitted = im.stat_submitted.load(std::memory_order_relaxed);
  stats.rejected = im.stat_rejected.load(std::memory_order_relaxed);
  stats.completed = im.stat_completed.load(std::memory_order_relaxed);
  stats.failed = im.stat_failed.load(std::memory_order_relaxed);
  stats.batches = im.stat_batches.load(std::memory_order_relaxed);
  stats.size_flushes = im.stat_size_flushes.load(std::memory_order_relaxed);
  stats.deadline_flushes =
      im.stat_deadline_flushes.load(std::memory_order_relaxed);
  stats.forced_flushes =
      im.stat_forced_flushes.load(std::memory_order_relaxed);
  stats.streams_opened =
      im.stat_streams_opened.load(std::memory_order_relaxed);
  stats.streams_closed =
      im.stat_streams_closed.load(std::memory_order_relaxed);
  stats.stream_feeds = im.stat_stream_feeds.load(std::memory_order_relaxed);
  stats.stream_rejected =
      im.stat_stream_rejected.load(std::memory_order_relaxed);
  stats.cancelled = im.stat_cancelled.load(std::memory_order_relaxed);
  stats.dropped = im.stat_dropped.load(std::memory_order_relaxed);
  stats.retried = im.stat_retried.load(std::memory_order_relaxed);
  stats.failed_over = im.stat_failed_over.load(std::memory_order_relaxed);
  stats.shards_failed = im.stat_shards_failed.load(std::memory_order_relaxed);
  stats.streams_migrated =
      im.stat_streams_migrated.load(std::memory_order_relaxed);
  stats.faults_injected =
      im.stat_faults_injected.load(std::memory_order_relaxed);
  stats.spec_decided = im.stat_spec_decided.load(std::memory_order_relaxed);
  stats.spec_committed =
      im.stat_spec_committed.load(std::memory_order_relaxed);
  stats.spec_rolled_back =
      im.stat_spec_rolled_back.load(std::memory_order_relaxed);
  if (im.options.cache != nullptr) {
    // The cache keeps its own atomic counters (it may be shared across
    // schedulers); snapshot them into the serving view.
    const DecisionCacheStats cache = im.options.cache->stats();
    stats.cache_hits = cache.hits;
    stats.cache_misses = cache.misses;
    stats.cache_evictions = cache.evictions;
  }
  stats.lanes.resize(im.lanes.size());
  for (std::size_t l = 0; l < im.lanes.size(); ++l) {
    LaneStats& lane = stats.lanes[l];
    lane.name = im.lanes[l].name;
    lane.submitted = im.lane_submitted[l].load(std::memory_order_relaxed);
    lane.rejected = im.lane_rejected[l].load(std::memory_order_relaxed);
    lane.completed = im.lane_completed[l].load(std::memory_order_relaxed);
    const std::int64_t in_flight =
        im.lane_in_flight[l].load(std::memory_order_relaxed);
    lane.in_flight =
        in_flight > 0 ? static_cast<std::uint64_t>(in_flight) : 0;
  }
  return stats;
}

const AsyncOptions& AsyncScheduler::options() const noexcept {
  return impl_->options;
}

}  // namespace moldsched
