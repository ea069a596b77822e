/// \file decision_cache.hpp
/// Decision cache for recurring workload shapes. At millions-of-users
/// scale the same instance shapes arrive constantly; a repeated shape
/// should cost a lookup + allotment replay, not a full DEMT run — the
/// same amortization move as contraction hierarchies in routing engines
/// (heavy precomputation, massive query volume) or a KV/prefix cache in
/// an inference stack.
///
/// Two layers:
///
///  1. **Canonicalization** (`canonical_signature`): an order-free
///     fingerprint of (machine size, task multiset). Each task is hashed
///     from its min_procs, max_procs, weight, and per-allotment times,
///     with every positive magnitude quantized onto the paper's geometric
///     grid (`TimeGrid`, anchored at the instance's own t_0 so the
///     signature is scale-aware): `quantize_steps` sub-steps per grid
///     doubling, bounded by the thresholds 2^(i/quantize_steps). The
///     bucket is read from the value's binary exponent plus a threshold
///     table held in `SignatureScratch`, so the pass makes no
///     transcendental call. Per-task hashes are sorted before mixing, so the
///     signature is invariant under task permutation and under
///     resubmission of the same shape, while perturbations beyond one
///     quantization sub-step (or any processor-count change) produce a
///     different signature (tests/test_decision_cache.cpp fuzzes both
///     properties over thousands of instances).
///
///  2. **DecisionCache**: a sharded, bounded map from
///     (signature, policy cache key, m) to a compact allotment record —
///     the flat placements (`FlatPlacements`-shaped arrays) plus the
///     run's diagnostics. Sharded by signature hash with one mutex and a
///     CLOCK (second-chance) eviction hand per shard; records are pooled,
///     so an eviction recycles the record's buffers in place and a warm
///     hit performs **zero heap allocations** (gated by
///     Alloc.CacheHitsServeDemtMetricsOnly in tests/alloc/). Admission
///     goes through a doorkeeper in the style of TinyLFU (Einziger,
///     Friedman & Manes, arXiv:1512.00727): each shard keeps a fixed
///     bitset of 64 bits per record, one bit per (signature, policy key).
///     A shape's first insert only sets its bit; the second stores the
///     record. A shape that never recurs therefore costs no record and no
///     descriptor copy (Alloc.FirstSightingInsertAllocatesNothing), and a
///     flood of one-offs evicts few of the shapes that do recur. The price
///     is one extra policy run per recurring shape. A one-off is stored
///     only when another shape set its bit, and the bitset is cleared once
///     half its bits are set, so that happens to fewer than half of them.
///
/// Bit-identity contract: quantization only *buckets* candidates. A hit
/// is declared only after an exact, in-order comparison of every task
/// descriptor (weights, min_procs, full time vectors, by `==`) against
/// the stored instance, and the replayed placements are the cached run's
/// doubles copied verbatim — so a cache-on run is bit-identical to a
/// cache-off run (differential suite in tests/test_decision_cache.cpp).
/// A *permuted* resubmission of a cached shape therefore misses exactly
/// once and coexists as its own record under the same signature:
/// replaying across a permutation could legally differ from a fresh run
/// when sort keys tie, and bit-identity wins over hit rate here.
///
/// Policies opt in through `SchedulingPolicy::cache_key()`: 0 (the
/// default) means "never cache me", a nonzero key must change whenever
/// any option that can change the schedule changes. The built-ins
/// (DemtPolicy, FlatListPolicy, LptRigidPolicy) return keys derived from
/// their frozen options, so separate policy objects built from equal
/// options share cache entries.
///
/// Thread safety: lookup/insert/stats/clear are safe from any number of
/// strands (per-shard mutexes, atomic counters). One DecisionCache may
/// back every shard of an AsyncScheduler (`AsyncOptions::cache`).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/demt.hpp"
#include "sched/flat_schedule.hpp"
#include "tasks/instance.hpp"

namespace moldsched {

/// Order-free fingerprint of (m, task multiset) on the quantization grid.
/// Equal shapes (up to permutation) always collide; unequal shapes
/// collide with hash probability only — which is safe, because lookup
/// verifies descriptors exactly before replaying.
struct InstanceSignature {
  std::uint64_t hash = 0;
  [[nodiscard]] bool operator==(const InstanceSignature& o) const noexcept {
    return hash == o.hash;
  }
};

/// Largest accepted `quantize_steps`: the quantizer's threshold table
/// holds steps + 1 doubles, and buckets finer than 2^(1/65536) (a relative
/// width of 1e-5) distinguish nothing a timing model can.
inline constexpr int kMaxQuantizeSteps = 1 << 16;

/// Reusable scratch for canonical_signature: the per-task hash buffer and
/// the quantizer's tables. Pool one per strand and the pass is
/// allocation-free once warm; the tables are rebuilt only when the step
/// count changes.
struct SignatureScratch {
  std::vector<std::uint64_t> task_hashes;

  /// Sub-step bucket of a ratio r > 0 with `steps` sub-steps per doubling,
  /// computed without a logarithm: for r = 2^e * f with f in [1, 2) it is
  /// e * steps + i, where i is the largest index with threshold
  /// 2^(i/steps) <= f (thresholds i = 0..steps, the last pinned at 2.0).
  /// That is floor(log2(r) * steps) except where rounding at a threshold
  /// differs. Defined for every non-negative double: subnormal r is
  /// renormalized exactly, r == 0 (an underflowed ratio) maps to INT64_MIN
  /// and r == +inf (an overflowed one) to INT64_MAX. Throws
  /// std::invalid_argument unless 1 <= steps <= kMaxQuantizeSteps.
  [[nodiscard]] std::int64_t bucket(double ratio, int steps);

 private:
  friend InstanceSignature canonical_signature(const Instance& instance,
                                               int quantize_steps,
                                               SignatureScratch& scratch);

  /// Rebuild the tables for `steps` unless they already match.
  void prepare(int steps);
  /// bucket() against prepared tables.
  [[nodiscard]] std::int64_t quantize(double ratio) const noexcept;

  int steps_ = 0;
  /// 2^(i/steps) for i = 0..steps, thresholds_[steps] pinned at 2.0.
  std::vector<double> thresholds_;
  /// cells_[c]: largest i with thresholds_[i] <= 1 + c/1024, the starting
  /// point of the walk for a mantissa whose top ten fraction bits are c.
  std::vector<int> cells_;
};

/// Compute the canonical signature of `instance` with `quantize_steps`
/// sub-steps per geometric-grid doubling (see the file comment). Throws
/// std::invalid_argument unless 1 <= quantize_steps <= kMaxQuantizeSteps.
[[nodiscard]] InstanceSignature canonical_signature(const Instance& instance,
                                                    int quantize_steps,
                                                    SignatureScratch& scratch);

struct DecisionCacheOptions {
  /// Total records across all shards (>= 1). Eviction is CLOCK
  /// (second-chance) per shard once a shard's share is full.
  std::size_t capacity = 1024;
  /// Lock shards (>= 1; clamped to capacity so every shard owns at least
  /// one record). Signature hash picks the shard.
  int shards = 8;
  /// Sub-steps per grid doubling for canonical_signature, in
  /// [1, kMaxQuantizeSteps]. Larger = finer buckets (fewer shapes share a
  /// signature); exactness is unaffected.
  int quantize_steps = 32;
};

/// Cumulative counters; snapshot through DecisionCache::stats().
struct DecisionCacheStats {
  std::uint64_t hits = 0;       ///< lookups replayed from a record
  std::uint64_t misses = 0;     ///< lookups that found no exact record
  /// Records stored, refreshes included; a first sighting, which only
  /// marks the doorkeeper, is not counted.
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;  ///< records recycled by the CLOCK hand
  std::size_t size = 0;         ///< live records right now
};

/// Sharded, bounded decision cache. See the file comment for the replay
/// and bit-identity contract.
class DecisionCache {
 public:
  /// Throws std::invalid_argument on capacity < 1, shards < 1, or
  /// quantize_steps outside [1, kMaxQuantizeSteps].
  explicit DecisionCache(DecisionCacheOptions options = {});

  DecisionCache(const DecisionCache&) = delete;
  DecisionCache& operator=(const DecisionCache&) = delete;

  /// Replay the record for (sig, policy_key, instance.procs()) into `out`
  /// and `diag`, verifying the stored task descriptors exactly against
  /// `instance` first. Returns false (and counts a miss) when policy_key
  /// is 0, no record matches, or only inexact bucket-mates exist.
  /// Allocation-free once `out` is warm.
  bool lookup(const InstanceSignature& sig, std::uint64_t policy_key,
              const Instance& instance, FlatPlacements& out,
              DemtDiagnostics& diag);

  /// Store (or refresh) the record for (sig, policy_key, instance):
  /// copies the task descriptors and the flat placements. Stores on the
  /// second sighting; the first one only marks the doorkeeper (see the
  /// file comment). No-op when policy_key is 0. Evicts via CLOCK when the
  /// shard is full, recycling the victim's buffers in place.
  void insert(const InstanceSignature& sig, std::uint64_t policy_key,
              const Instance& instance, const FlatPlacements& flat,
              const DemtDiagnostics& diag);

  /// Drop every record and forget every sighting (capacity and counters
  /// are kept).
  void clear();

  [[nodiscard]] DecisionCacheStats stats() const;
  [[nodiscard]] const DecisionCacheOptions& options() const noexcept {
    return options_;
  }

 private:
  /// One cached decision: the exact task descriptors (for verification)
  /// plus the flat placements and diagnostics (for replay). Buffers are
  /// recycled in place on eviction.
  struct Record {
    std::uint64_t sig = 0;
    std::uint64_t policy_key = 0;
    int m = 0;
    int n = 0;
    bool live = false;
    bool referenced = false;  ///< CLOCK second-chance bit
    // Exact task descriptors, in submission order.
    std::vector<double> weight;
    std::vector<int> min_procs;
    std::vector<int> times_begin;  ///< n+1 offsets into `times`
    std::vector<double> times;
    // Flat placements (FlatPlacements-shaped arrays).
    std::vector<double> start;
    std::vector<double> duration;
    std::vector<int> proc_begin;
    std::vector<int> proc_count;
    std::vector<int> proc_ids;
    DemtDiagnostics diag;
  };

  struct Shard {
    std::mutex mu;
    std::vector<Record> records;  ///< fixed capacity, allocated up front
    std::size_t live = 0;         ///< records ever filled (append cursor)
    std::size_t hand = 0;         ///< CLOCK hand
    /// Doorkeeper bitset, one 64-bit word per record, allocated up front.
    std::vector<std::uint64_t> seen;
    std::size_t seen_bits = 0;    ///< bits set in `seen`
  };

  [[nodiscard]] Shard& shard_for(std::uint64_t hash) noexcept;
  [[nodiscard]] static bool matches(const Record& r, std::uint64_t sig,
                                    std::uint64_t policy_key,
                                    const Instance& instance) noexcept;

  DecisionCacheOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace moldsched
