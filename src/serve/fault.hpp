/// \file fault.hpp
/// Deterministic fault injection and retry configuration for the async
/// serving layer (serve/async_scheduler.hpp). Chaos testing is only
/// useful when a failing run can be replayed: a FaultInjector is a *pure
/// function* of its FaultPlan — whether a fault fires at (shard, batch)
/// depends only on the plan's seed, rates, and scripted points, never on
/// thread timing — so the same plan reproduces the same fault pattern on
/// every run (what changes between runs is only which requests happen to
/// sit in the affected batches).
///
/// Three fault kinds map to the three failure modes the scheduler
/// recovers from: EngineThrow (a batch fails — retried under the
/// RetryPolicy), SlowBatch (a strand stalls — the watchdog declares the
/// shard failed and surviving shards absorb its queue), and ShardDeath
/// (a shard dies at a batch boundary — its queue fails over and its
/// pinned streams, sessions included, re-pin to a surviving shard and
/// resume bit-identically).
///
/// RetryPolicy bounds the recovery: a faulted or failed-over one-shot
/// batch is re-queued up to max_attempts total attempts with exponential
/// backoff (base_backoff_ms, doubling per retry). The default
/// (max_attempts == 1) disables retry — a failure is final on its first
/// attempt, the pre-fault behaviour, so the no-fault serving path is
/// bit-compatible and allocation-free exactly as before.

#pragma once

#include <cstdint>
#include <vector>

namespace moldsched {

/// What a fault decision makes the shard do.
enum class FaultKind {
  None,         ///< serve the batch normally
  EngineThrow,  ///< fail the batch as if the engine threw (retryable)
  SlowBatch,    ///< stall the strand for stall_ms before serving
  ShardDeath,   ///< mark the shard failed; queue fails over, streams migrate
};

/// One scripted fault: fires when shard `shard` (any shard when < 0)
/// starts its `batch`-th non-empty drain iteration (0-based, counted per
/// shard). Scripted points beat the random rates and are the tool for
/// reproducing a specific scenario ("kill shard 2 at its 5th batch").
struct FaultPoint {
  FaultKind kind = FaultKind::None;
  int shard = -1;            ///< target shard; -1 matches every shard
  std::uint64_t batch = 0;   ///< per-shard non-empty drain iteration index
  double stall_ms = 0.0;     ///< SlowBatch only; <= 0 uses FaultPlan::stall_ms
};

/// Seeded chaos configuration: scripted points plus per-batch random
/// fault rates (each in [0, 1], evaluated from a hash of
/// (seed, shard, batch) — deterministic and replayable). All-zero rates
/// with no points means faults are off; an AsyncScheduler built that way
/// runs the exact pre-fault hot path.
struct FaultPlan {
  std::uint64_t seed = 0;          ///< replay key for the random rates
  std::vector<FaultPoint> points;  ///< scripted faults, first match wins
  double throw_rate = 0.0;         ///< P(EngineThrow) per non-empty batch
  double stall_rate = 0.0;         ///< P(SlowBatch) per non-empty batch
  double death_rate = 0.0;         ///< P(ShardDeath) per non-empty batch
  double stall_ms = 1.0;           ///< default SlowBatch stall length

  [[nodiscard]] bool enabled() const noexcept {
    return !points.empty() || throw_rate > 0.0 || stall_rate > 0.0 ||
           death_rate > 0.0;
  }
};

/// Bounded retry with exponential backoff for faulted or failed-over
/// one-shot work: attempt k (2-based) re-queues after
/// base_backoff_ms * 2^(k-2). max_attempts == 1 means no retry — the
/// first failure is final (pre-fault behaviour).
struct RetryPolicy {
  int max_attempts = 1;        ///< total attempts (first try included), >= 1
  double base_backoff_ms = 0.2;  ///< backoff before the first retry

  [[nodiscard]] bool enabled() const noexcept { return max_attempts > 1; }
};

/// The verdict for one (shard, batch) point: what fires and, for
/// SlowBatch, how long the stall is.
struct FaultDecision {
  FaultKind kind = FaultKind::None;
  double stall_ms = 0.0;
};

/// The deterministic fault oracle. Stateless after construction and
/// safe to query concurrently from every shard strand; `decide` performs
/// no allocation (the serving hot path calls it once per non-empty drain
/// iteration when faults are enabled, never otherwise).
class FaultInjector {
 public:
  FaultInjector() = default;
  /// Validates the plan: rates must lie in [0, 1] and their sum must not
  /// exceed 1 (they partition one uniform draw); throws
  /// std::invalid_argument otherwise.
  explicit FaultInjector(FaultPlan plan);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// The fault (or None) for shard `shard`'s `batch`-th non-empty drain
  /// iteration. Pure: same plan + arguments => same decision, on every
  /// run and every thread.
  [[nodiscard]] FaultDecision decide(int shard,
                                     std::uint64_t batch) const noexcept;

 private:
  FaultPlan plan_;
  bool enabled_ = false;
};

}  // namespace moldsched
