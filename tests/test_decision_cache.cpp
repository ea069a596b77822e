/// The decision cache's gate (core/decision_cache.hpp), in two suites:
///
///  - `DecisionCache`: differential tests — cache-on serving must be
///    bit-identical to cache-off across policies {demt, flatlist},
///    serve shards {1, 2, 4}, repeated/interleaved shapes, and eviction
///    pressure (capacity 1 forces thrash), plus unit tests of the
///    replay, CLOCK bound, doorkeeper admission, and stats surfaces.
///
///  - `Canonical`: property tests of canonical_signature — invariant
///    under task permutation and duplicate-shape resubmission, distinct
///    under work/weight/machine perturbation beyond the quantization
///    grid, stable within one quantization sub-step — fuzzed with a
///    seeded Rng over thousands of random instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/decision_cache.hpp"
#include "core/policy.hpp"
#include "engine/engine.hpp"
#include "gate_workloads.hpp"
#include "sched/validator.hpp"
#include "serve/async_scheduler.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace moldsched {
namespace {

std::vector<Instance> make_instances(int count, int n, int m,
                                     std::uint64_t seed) {
  const std::vector<WorkloadFamily> families = {
      WorkloadFamily::WeaklyParallel, WorkloadFamily::Cirne,
      WorkloadFamily::HighlyParallel, WorkloadFamily::Mixed};
  Rng rng(seed);
  std::vector<Instance> instances;
  for (int i = 0; i < count; ++i) {
    instances.push_back(generate_instance(
        families[static_cast<std::size_t>(i) % families.size()], n, m, rng));
  }
  return instances;
}

/// Deep copy through the public task surface (Instance is move-only-ish
/// for tests' purposes: no copy ctor needed here).
Instance copy_instance(const Instance& src) {
  Instance out(src.procs());
  for (int t = 0; t < src.num_tasks(); ++t) {
    const MoldableTask& task = src.task(t);
    out.add_task(MoldableTask(task.times(), task.weight(), task.min_procs()));
  }
  return out;
}

/// Copy with the tasks appended in `order` (a permutation of 0..n-1).
/// Step counts the quantizer treats differently: one threshold per
/// doubling, a few, the default, and more thresholds than table cells.
const std::vector<int>& quantizer_step_counts() {
  static const std::vector<int> kSteps{1, 7, 32, 1000};
  return kSteps;
}

Instance permuted_instance(const Instance& src, const std::vector<int>& order) {
  Instance out(src.procs());
  for (const int t : order) {
    const MoldableTask& task = src.task(t);
    out.add_task(MoldableTask(task.times(), task.weight(), task.min_procs()));
  }
  return out;
}

InstanceSignature signature_of(const Instance& instance, int steps = 32) {
  SignatureScratch scratch;
  return canonical_signature(instance, steps, scratch);
}

void expect_identical(const EngineResult& a, const EngineResult& b) {
  EXPECT_EQ(a.cmax, b.cmax);
  EXPECT_EQ(a.weighted_completion_sum, b.weighted_completion_sum);
  ASSERT_EQ(a.has_schedule, b.has_schedule);
  if (a.has_schedule) gate::expect_identical_placements(a.schedule, b.schedule);
}

/// Run `policy` fresh (no cache) on `instance` into `out`.
void run_fresh(const SchedulingPolicy& policy, const Instance& instance,
               FlatPlacements& out) {
  auto ws = policy.make_workspace();
  policy.schedule_into(instance, *ws, out);
}

// ---------------------------------------------------------------------------
// DecisionCache: unit + differential suite
// ---------------------------------------------------------------------------

TEST(DecisionCache, ValidatesOptions) {
  EXPECT_THROW(DecisionCache(DecisionCacheOptions{0, 1, 32}),
               std::invalid_argument);
  EXPECT_THROW(DecisionCache(DecisionCacheOptions{8, 0, 32}),
               std::invalid_argument);
  EXPECT_THROW(DecisionCache(DecisionCacheOptions{8, 1, 0}),
               std::invalid_argument);
  SignatureScratch scratch;
  const Instance instance(4);
  EXPECT_THROW((void)canonical_signature(instance, 0, scratch),
               std::invalid_argument);
  // More shards than capacity: clamped, not rejected.
  DecisionCache tiny(DecisionCacheOptions{2, 8, 32});
  EXPECT_EQ(tiny.stats().size, 0u);
}

TEST(DecisionCache, LookupMissesThenReplaysExactly) {
  const auto instances = make_instances(1, 24, 12, 71);
  const Instance& instance = instances[0];
  const FlatListPolicy policy;
  FlatPlacements fresh;
  run_fresh(policy, instance, fresh);

  DecisionCache cache(DecisionCacheOptions{16, 2, 32});
  const InstanceSignature sig =
      signature_of(instance, cache.options().quantize_steps);
  FlatPlacements replay;
  DemtDiagnostics diag;
  EXPECT_FALSE(cache.lookup(sig, policy.cache_key(), instance, replay, diag));
  DemtDiagnostics stored;
  stored.num_batches = 7;  // any marker: diag must round-trip verbatim
  // The first sighting only marks the doorkeeper; the second stores.
  cache.insert(sig, policy.cache_key(), instance, fresh, stored);
  cache.insert(sig, policy.cache_key(), instance, fresh, stored);
  ASSERT_TRUE(cache.lookup(sig, policy.cache_key(), instance, replay, diag));
  gate::expect_identical_placements(replay, fresh);
  EXPECT_EQ(diag.num_batches, 7);

  const DecisionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.size, 1u);

  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_FALSE(cache.lookup(sig, policy.cache_key(), instance, replay, diag));
}

TEST(DecisionCache, PolicyKeyZeroIsNeverCached) {
  // A policy that keeps the default cache_key() == 0 must never be
  // cached — the safe default for user-defined policies.
  struct OpaqueWorkspace final : PolicyWorkspace {
    ListPassWorkspace list;
  };
  struct OpaquePolicy final : SchedulingPolicy {
    [[nodiscard]] const char* name() const noexcept override {
      return "opaque";
    }
    [[nodiscard]] std::unique_ptr<PolicyWorkspace> make_workspace()
        const override {
      return std::make_unique<OpaqueWorkspace>();
    }
    void schedule_into(const Instance& batch, PolicyWorkspace& ws,
                       FlatPlacements& out) const override {
      flat_list_schedule(batch, static_cast<OpaqueWorkspace&>(ws).list, out);
    }
  };
  const OpaquePolicy policy;
  EXPECT_EQ(policy.cache_key(), 0u);

  const auto instances = make_instances(1, 16, 8, 5);
  DecisionCache cache(DecisionCacheOptions{8, 1, 32});
  SchedulerEngine engine(EngineOptions{1, false, &cache});
  std::vector<EngineRequest> requests(4);
  for (auto& r : requests) {
    r.instance = &instances[0];
    r.policy = &policy;
  }
  std::vector<EngineResult> results;
  engine.schedule_batch(requests, results);
  const DecisionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.size, 0u);
}

TEST(DecisionCache, ExactVerificationRejectsBucketMates) {
  // Perturb one processing time well inside one quantization sub-step:
  // same signature bucket, but lookup must refuse to replay across it.
  const auto instances = make_instances(1, 12, 8, 909);
  const Instance& a = instances[0];
  Instance b(a.procs());
  for (int t = 0; t < a.num_tasks(); ++t) {
    const MoldableTask& task = a.task(t);
    std::vector<double> times = task.times();
    if (t == 3) {
      // Far from tmin (times grow with fewer procs kept equal), nudge by
      // 2^(0.01/32): ~0.02% — far below one sub-step.
      times[0] *= std::exp2(0.01 / 32.0);
    }
    b.add_task(MoldableTask(times, task.weight(), task.min_procs()));
  }
  const InstanceSignature sig_a = signature_of(a);
  const InstanceSignature sig_b = signature_of(b);
  // Not guaranteed for *any* perturbation (the value could sit on a
  // bucket edge), but deterministic for this seed: assert it so the test
  // really exercises the bucket-mate path.
  ASSERT_EQ(sig_a.hash, sig_b.hash);

  const FlatListPolicy policy;
  FlatPlacements flat_a, flat_b, replay;
  run_fresh(policy, a, flat_a);
  run_fresh(policy, b, flat_b);

  DecisionCache cache(DecisionCacheOptions{8, 1, 32});
  DemtDiagnostics diag;
  // Two sightings store a; b shares a's signature, hence its doorkeeper
  // bit, so b's first insert stores.
  cache.insert(sig_a, policy.cache_key(), a, flat_a, diag);
  cache.insert(sig_a, policy.cache_key(), a, flat_a, diag);
  EXPECT_FALSE(cache.lookup(sig_b, policy.cache_key(), b, replay, diag));
  cache.insert(sig_b, policy.cache_key(), b, flat_b, diag);
  ASSERT_TRUE(cache.lookup(sig_a, policy.cache_key(), a, replay, diag));
  gate::expect_identical_placements(replay, flat_a);
  ASSERT_TRUE(cache.lookup(sig_b, policy.cache_key(), b, replay, diag));
  gate::expect_identical_placements(replay, flat_b);
}

TEST(DecisionCache, PermutedResubmissionIsItsOwnRecord) {
  const auto instances = make_instances(1, 18, 8, 31337);
  const Instance& a = instances[0];
  std::vector<int> order(static_cast<std::size_t>(a.num_tasks()));
  std::iota(order.begin(), order.end(), 0);
  std::reverse(order.begin(), order.end());
  const Instance b = permuted_instance(a, order);
  ASSERT_EQ(signature_of(a).hash, signature_of(b).hash);

  const FlatListPolicy policy;
  FlatPlacements flat_a, flat_b, replay;
  run_fresh(policy, a, flat_a);
  run_fresh(policy, b, flat_b);

  DecisionCache cache(DecisionCacheOptions{8, 1, 32});
  DemtDiagnostics diag;
  // Two sightings store a (the first only marks the doorkeeper).
  cache.insert(signature_of(a), policy.cache_key(), a, flat_a, diag);
  cache.insert(signature_of(a), policy.cache_key(), a, flat_a, diag);
  // The permuted twin shares the bucket but must MISS (bit-identity wins
  // over hit rate: replaying across a permutation could differ when sort
  // keys tie) ...
  EXPECT_FALSE(cache.lookup(signature_of(b), policy.cache_key(), b, replay,
                            diag));
  // ... and then coexist as its own record under the same signature (the
  // twin shares a's doorkeeper bit, so one insert stores it).
  cache.insert(signature_of(b), policy.cache_key(), b, flat_b, diag);
  ASSERT_TRUE(
      cache.lookup(signature_of(a), policy.cache_key(), a, replay, diag));
  gate::expect_identical_placements(replay, flat_a);
  ASSERT_TRUE(
      cache.lookup(signature_of(b), policy.cache_key(), b, replay, diag));
  gate::expect_identical_placements(replay, flat_b);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(DecisionCache, DistinctPolicyKeysDoNotPoisonEachOther) {
  // Same instance served under two DemtOptions: each must replay its own
  // decision. This is why the cache keys on cache_key(), not the
  // per-class workspace_key() — DemtPolicy objects with different option
  // sets share one workspace key and would otherwise collide.
  const auto instances = make_instances(1, 24, 12, 555);
  DemtOptions fast;
  fast.shuffles = 0;
  DemtOptions thorough;
  thorough.shuffles = 4;
  const DemtPolicy fast_policy(fast);
  const DemtPolicy thorough_policy(thorough);
  ASSERT_NE(fast_policy.cache_key(), thorough_policy.cache_key());
  ASSERT_EQ(fast_policy.cache_key(), DemtPolicy(fast).cache_key());

  DecisionCache cache(DecisionCacheOptions{16, 2, 32});
  SchedulerEngine cached(EngineOptions{1, true, &cache});
  SchedulerEngine plain(EngineOptions{1, true});

  std::vector<EngineRequest> requests(6);
  requests[0] = EngineRequest{&instances[0], &fast_policy};
  requests[1] = EngineRequest{&instances[0], &thorough_policy};
  requests[2] = requests[0];  // second sighting: stores the fast decision
  requests[3] = requests[1];  // second sighting: stores the thorough one
  requests[4] = requests[0];  // replay of the fast decision
  requests[5] = requests[1];  // replay of the thorough decision
  std::vector<EngineResult> with_cache, without_cache;
  cached.schedule_batch(requests, with_cache);
  plain.schedule_batch(requests, without_cache);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_identical(with_cache[i], without_cache[i]);
    EXPECT_EQ(with_cache[i].diag.num_batches,
              without_cache[i].diag.num_batches);
  }
  const DecisionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.size, 2u);
}

TEST(DecisionCache, EvictionPressureCapacityOneStaysBitIdentical) {
  // Capacity 1 and an A/B/A/B mix: every request thrashes the single
  // record. Results must still be bit-identical to a cache-less engine.
  const auto instances = make_instances(2, 20, 10, 2718);
  DemtOptions demt;
  demt.shuffles = 2;
  const DemtPolicy policy(demt);

  DecisionCache cache(DecisionCacheOptions{1, 1, 32});
  SchedulerEngine cached(EngineOptions{1, true, &cache});
  SchedulerEngine plain(EngineOptions{1, true});

  std::vector<EngineRequest> requests;
  for (int round = 0; round < 3; ++round) {
    for (int s = 0; s < 2; ++s) {
      requests.push_back(
          EngineRequest{&instances[static_cast<std::size_t>(s)], &policy});
    }
  }
  std::vector<EngineResult> with_cache, without_cache;
  cached.schedule_batch(requests, with_cache);
  plain.schedule_batch(requests, without_cache);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_identical(with_cache[i], without_cache[i]);
  }
  const DecisionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.size, 1u);      // bounded, always
  EXPECT_GT(stats.evictions, 0u); // thrash really happened
  EXPECT_EQ(stats.hits, 0u);      // capacity 1 cannot retain both shapes
}

TEST(DecisionCache, ClockEvictionBoundsEveryShard) {
  const auto instances = make_instances(6, 12, 8, 424242);
  const FlatListPolicy policy;
  DecisionCache cache(DecisionCacheOptions{2, 1, 32});
  DemtDiagnostics diag;
  FlatPlacements flat, replay;
  for (const Instance& instance : instances) {
    run_fresh(policy, instance, flat);
    // The first sighting only marks the doorkeeper; the second stores.
    for (int sighting = 0; sighting < 2; ++sighting) {
      cache.insert(signature_of(instance), policy.cache_key(), instance, flat,
                   diag);
      EXPECT_LE(cache.stats().size, 2u);
    }
  }
  const DecisionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.inserts, 6u);
  EXPECT_EQ(stats.evictions, 4u);
  // Whatever survived must replay its own decision exactly.
  int live = 0;
  for (const Instance& instance : instances) {
    if (cache.lookup(signature_of(instance), policy.cache_key(), instance,
                     replay, diag)) {
      run_fresh(policy, instance, flat);
      gate::expect_identical_placements(replay, flat);
      ++live;
    }
  }
  EXPECT_EQ(live, 2);
}

TEST(DecisionCache, SharedAcrossEnginesLikeServeShards) {
  // One cache backing several engines (exactly how AsyncScheduler wires
  // its shards): a shape stored by engine A replays on engine B. A serves
  // the batch twice, because a shape is stored on its second sighting.
  const auto instances = make_instances(3, 20, 10, 808);
  DemtOptions demt;
  demt.shuffles = 2;
  const DemtPolicy policy(demt);
  DecisionCache cache(DecisionCacheOptions{32, 4, 32});
  SchedulerEngine a(EngineOptions{1, true, &cache});
  SchedulerEngine b(EngineOptions{1, true, &cache});
  SchedulerEngine plain(EngineOptions{1, true});

  std::vector<EngineRequest> requests;
  for (const Instance& instance : instances) {
    requests.push_back(EngineRequest{&instance, &policy});
  }
  std::vector<EngineResult> via_a, via_b, fresh;
  a.schedule_batch(requests, via_a);
  a.schedule_batch(requests, via_a);
  EXPECT_EQ(cache.stats().hits, 0u);
  b.schedule_batch(requests, via_b);
  EXPECT_EQ(cache.stats().hits, requests.size());
  plain.schedule_batch(requests, fresh);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_identical(via_a[i], fresh[i]);
    expect_identical(via_b[i], fresh[i]);
    EXPECT_EQ(via_b[i].diag.dual_tests, fresh[i].diag.dual_tests);
  }
}

TEST(DecisionCache, HitMaterializesValidSchedule) {
  const auto instances = make_instances(1, 24, 12, 64);
  DemtOptions demt;
  demt.shuffles = 2;
  const DemtPolicy policy(demt);
  DecisionCache cache(DecisionCacheOptions{8, 1, 32});
  SchedulerEngine engine(EngineOptions{1, true, &cache});
  // Stored on the second sighting, replayed on the third.
  std::vector<EngineRequest> requests(3, EngineRequest{&instances[0], &policy});
  std::vector<EngineResult> results;
  engine.schedule_batch(requests, results);
  ASSERT_EQ(cache.stats().hits, 1u);
  ASSERT_TRUE(results[2].has_schedule);
  expect_identical(results[0], results[2]);
  require_valid(results[2].schedule, instances[0]);
}

TEST(DecisionCache, FirstSightingStoresNothingSecondStoresThirdReplays) {
  const auto instances = make_instances(1, 24, 12, 1512);
  DemtOptions demt;
  demt.shuffles = 2;
  const DemtPolicy policy(demt);
  DecisionCache cache(DecisionCacheOptions{8, 1, 32});
  SchedulerEngine cached(EngineOptions{1, true, &cache});
  SchedulerEngine plain(EngineOptions{1, true});
  const std::vector<EngineRequest> requests{
      EngineRequest{&instances[0], &policy}};
  std::vector<EngineResult> fresh, result;
  plain.schedule_batch(requests, fresh);

  cached.schedule_batch(requests, result);
  DecisionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.misses, 1u);
  expect_identical(result[0], fresh[0]);

  cached.schedule_batch(requests, result);
  stats = cache.stats();
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.hits, 0u);
  expect_identical(result[0], fresh[0]);

  cached.schedule_batch(requests, result);
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  expect_identical(result[0], fresh[0]);
  EXPECT_EQ(result[0].diag.dual_tests, fresh[0].diag.dual_tests);
}

TEST(DecisionCache, ClearForgetsSightingsAsWellAsRecords) {
  const auto instances = make_instances(2, 12, 8, 2024);
  const FlatListPolicy policy;
  DecisionCache cache(DecisionCacheOptions{8, 1, 32});
  DemtDiagnostics diag;
  FlatPlacements flat, replay;
  const Instance& stored = instances[0];
  const Instance& sighted = instances[1];
  run_fresh(policy, stored, flat);
  cache.insert(signature_of(stored), policy.cache_key(), stored, flat, diag);
  cache.insert(signature_of(stored), policy.cache_key(), stored, flat, diag);
  run_fresh(policy, sighted, flat);
  cache.insert(signature_of(sighted), policy.cache_key(), sighted, flat, diag);
  ASSERT_EQ(cache.stats().size, 1u);

  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  // Both shapes need two sightings again: the one that was stored and the
  // one that was only marked.
  for (const Instance* instance : {&stored, &sighted}) {
    run_fresh(policy, *instance, flat);
    const InstanceSignature sig = signature_of(*instance);
    cache.insert(sig, policy.cache_key(), *instance, flat, diag);
    EXPECT_EQ(cache.stats().size, 0u);
    EXPECT_FALSE(cache.lookup(sig, policy.cache_key(), *instance, replay, diag));
  }
  EXPECT_EQ(cache.stats().inserts, 1u);
  for (const Instance* instance : {&stored, &sighted}) {
    run_fresh(policy, *instance, flat);
    const InstanceSignature sig = signature_of(*instance);
    cache.insert(sig, policy.cache_key(), *instance, flat, diag);
    ASSERT_TRUE(cache.lookup(sig, policy.cache_key(), *instance, replay, diag));
    gate::expect_identical_placements(replay, flat);
  }
  EXPECT_EQ(cache.stats().size, 2u);
  EXPECT_EQ(cache.stats().inserts, 3u);
}

TEST(DecisionCache, DoorkeeperForgetsOnceHalfItsBitsAreSet) {
  // Capacity 1: a 64-bit doorkeeper, cleared when a new bit would make
  // more than 32 set. Shape A sets one bit, then one-offs with random
  // signatures set `new_bits` more (a one-off that finds its bit set is
  // stored instead, so inserts tell the two apart). After 31 more, A's
  // bit is still set and its second sighting stores it; the 32nd clears
  // the bitset, so A's second sighting is a first one again.
  const auto instances = make_instances(1, 12, 8, 5150);
  const Instance& a = instances[0];
  const FlatListPolicy policy;
  FlatPlacements flat;
  run_fresh(policy, a, flat);
  const DemtDiagnostics diag;
  for (const int new_bits : {31, 32}) {
    SCOPED_TRACE(testing::Message() << new_bits << " new bits");
    DecisionCache cache(DecisionCacheOptions{1, 1, 32});
    cache.insert(signature_of(a), policy.cache_key(), a, flat, diag);
    Rng rng(99);
    std::uint64_t sightings = 0;
    while (sightings - cache.stats().inserts <
           static_cast<std::uint64_t>(new_bits)) {
      cache.insert(InstanceSignature{rng.next_u64()}, policy.cache_key(), a,
                   flat, diag);
      ++sightings;
    }
    const std::uint64_t before = cache.stats().inserts;
    cache.insert(signature_of(a), policy.cache_key(), a, flat, diag);
    EXPECT_EQ(cache.stats().inserts - before, new_bits == 31 ? 1u : 0u);
  }
}

TEST(DecisionCache, RecurringSetSurvivesAFloodOfOneOffs) {
  // One shard of 16 records (a 1024-bit doorkeeper). Each round looks up
  // 4 recurring shapes, inserting on a miss, then sights 24 one-off shapes
  // once each, 5 rounds in all. Storing every miss, the 24 one-offs of a
  // round evict the whole set; with the doorkeeper, the 120 one-offs set
  // at most 124 of the 1024 bits, so few are stored and the set hits from
  // its third round on.
  constexpr int kRecurring = 4;
  constexpr int kFlood = 24;
  constexpr int kRounds = 5;
  const auto recurring = make_instances(kRecurring, 12, 8, 7001);
  const auto one_offs = make_instances(kFlood * kRounds, 12, 8, 7002);
  const FlatListPolicy policy;
  DecisionCache cache(DecisionCacheOptions{16, 1, 32});
  DemtDiagnostics diag;
  FlatPlacements flat, replay;
  for (int round = 0; round < kRounds; ++round) {
    for (int r = 0; r < kRecurring; ++r) {
      SCOPED_TRACE(testing::Message() << "round " << round << " shape " << r);
      const Instance& instance = recurring[static_cast<std::size_t>(r)];
      const InstanceSignature sig = signature_of(instance);
      run_fresh(policy, instance, flat);
      if (cache.lookup(sig, policy.cache_key(), instance, replay, diag)) {
        gate::expect_identical_placements(replay, flat);
      } else {
        EXPECT_LT(round, 2);
        cache.insert(sig, policy.cache_key(), instance, flat, diag);
      }
    }
    for (int k = 0; k < kFlood; ++k) {
      const Instance& instance =
          one_offs[static_cast<std::size_t>(round * kFlood + k)];
      const InstanceSignature sig = signature_of(instance);
      EXPECT_FALSE(cache.lookup(sig, policy.cache_key(), instance, replay,
                                diag));
      run_fresh(policy, instance, flat);
      cache.insert(sig, policy.cache_key(), instance, flat, diag);
    }
  }
  const DecisionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits,
            static_cast<std::uint64_t>(kRecurring * (kRounds - 2)));
  EXPECT_LE(stats.size, 16u);
  // Under one in eight one-offs got past the doorkeeper.
  EXPECT_LT(stats.inserts,
            static_cast<std::uint64_t>(kRecurring + kFlood * kRounds / 8));
}

TEST(DecisionCache, ConcurrentSightingsFromSharedEngines) {
  // Four engines on four threads share one cache (as serve shards do) and
  // run the same fresh shapes, each in its own order, for three passes.
  constexpr int kThreads = 4;
  constexpr int kPasses = 3;
  const auto instances = make_instances(8, 20, 10, 4242);
  DemtOptions demt;
  demt.shuffles = 2;
  const DemtPolicy policy(demt);
  SchedulerEngine plain(EngineOptions{1, true});
  std::vector<EngineRequest> in_order;
  for (const Instance& instance : instances) {
    in_order.push_back(EngineRequest{&instance, &policy});
  }
  std::vector<EngineResult> fresh;
  plain.schedule_batch(in_order, fresh);

  DecisionCache cache(DecisionCacheOptions{32, 4, 32});
  std::vector<std::vector<int>> orders(kThreads);
  std::vector<std::vector<std::vector<EngineResult>>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    std::vector<int>& order = orders[static_cast<std::size_t>(t)];
    order.resize(instances.size());
    std::iota(order.begin(), order.end(), 0);
    Rng(static_cast<std::uint64_t>(100 + t)).shuffle(order);
    threads.emplace_back([&, t] {
      SchedulerEngine engine(EngineOptions{1, true, &cache});
      std::vector<EngineRequest> requests;
      for (const int shape : orders[static_cast<std::size_t>(t)]) {
        requests.push_back(in_order[static_cast<std::size_t>(shape)]);
      }
      auto& mine = results[static_cast<std::size_t>(t)];
      mine.resize(kPasses);
      for (auto& pass : mine) engine.schedule_batch(requests, pass);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    const auto& order = orders[static_cast<std::size_t>(t)];
    for (int pass = 0; pass < kPasses; ++pass) {
      const auto& got =
          results[static_cast<std::size_t>(t)][static_cast<std::size_t>(pass)];
      ASSERT_EQ(got.size(), order.size());
      for (std::size_t i = 0; i < order.size(); ++i) {
        SCOPED_TRACE(testing::Message()
                     << "thread " << t << " pass " << pass << " slot " << i);
        expect_identical(got[i], fresh[static_cast<std::size_t>(order[i])]);
      }
    }
  }
  const DecisionCacheStats stats = cache.stats();
  EXPECT_LE(stats.size, instances.size());
  EXPECT_GT(stats.hits, 0u);
}

/// Serve-layer differential: cache-on vs cache-off must be bit-identical
/// for shards {1, 2, 4} on a repeated/interleaved shape mix, both
/// policies. Also checks the AsyncStats counters.
void run_serve_differential(bool use_demt) {
  const auto catalog = make_instances(4, 18, 8, use_demt ? 11 : 13);
  DemtOptions demt;
  demt.shuffles = 2;
  const DemtPolicy demt_policy(demt);
  const FlatListPolicy flat_policy;
  const SchedulingPolicy& policy =
      use_demt ? static_cast<const SchedulingPolicy&>(demt_policy)
               : static_cast<const SchedulingPolicy&>(flat_policy);

  // Interleaved, repeating mix over the catalog.
  const int kRequests = 32;
  std::vector<int> mix;
  Rng rng(4096);
  for (int i = 0; i < kRequests; ++i) {
    mix.push_back(static_cast<int>(
        rng.uniform_int(0, static_cast<std::int64_t>(catalog.size()) - 1)));
  }

  // Reference: synchronous engine, no cache.
  SchedulerEngine reference(EngineOptions{1, true});
  std::vector<EngineRequest> requests;
  for (const int shape : mix) {
    EngineRequest request;
    request.instance = &catalog[static_cast<std::size_t>(shape)];
    request.policy = &policy;
    requests.push_back(request);
  }
  std::vector<EngineResult> expected;
  reference.schedule_batch(requests, expected);

  for (const int shards : {1, 2, 4}) {
    DecisionCache cache(DecisionCacheOptions{64, 4, 32});
    AsyncOptions options;
    options.shards = shards;
    options.max_batch = 4;
    options.flush_after_ms = 0.0;
    options.keep_schedules = true;
    options.cache = &cache;
    AsyncScheduler serve(options);
    std::vector<Ticket> tickets;
    for (const EngineRequest& request : requests) {
      const Ticket t = serve.submit(request);
      ASSERT_TRUE(t.accepted());
      tickets.push_back(t);
    }
    serve.drain();
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      ASSERT_EQ(serve.wait(tickets[i]), TicketStatus::Done);
      EngineResult out;
      ASSERT_TRUE(serve.take(tickets[i], out));
      expect_identical(out, expected[i]);
    }
    const AsyncStats stats = serve.stats();
    EXPECT_EQ(stats.cache_hits + stats.cache_misses,
              static_cast<std::uint64_t>(kRequests));
    EXPECT_GT(stats.cache_hits, 0u);
    EXPECT_EQ(stats.cache_evictions, 0u);
  }
}

TEST(DecisionCache, ServeDifferentialDemtShards124) {
  run_serve_differential(/*use_demt=*/true);
}

TEST(DecisionCache, ServeDifferentialFlatListShards124) {
  run_serve_differential(/*use_demt=*/false);
}

/// The recurring-shape gate: 128 DEMT requests drawn Zipf(1.1) from 16
/// shapes (n=60, m=32). Cache-on serving is bit-identical to the cache-off
/// synchronous engine for shards {1, 2, 4}, and one shard serving the mix
/// metrics-only for a warm-up round plus two more reaches a hit rate of at
/// least 0.80.
TEST(DecisionCache, ZipfMixShards124BitIdenticalWithHitRateAtLeast80) {
  const gate::ZipfWorkload workload = gate::zipf_workload();
  DemtOptions demt;
  demt.shuffles = gate::kShuffles;
  const DemtPolicy policy(demt);
  std::vector<EngineRequest> requests(workload.mix.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].instance =
        &workload.catalog[static_cast<std::size_t>(workload.mix[i])];
    requests[i].policy = &policy;
  }
  SchedulerEngine sync(EngineOptions{1, true});
  std::vector<EngineResult> reference;
  sync.schedule_batch(requests, reference);

  const DecisionCacheOptions cache_options{
      static_cast<std::size_t>(gate::kZipfShapes) * 8, 4, 32};
  for (const int shards : {1, 2, 4}) {
    DecisionCache cache(cache_options);
    AsyncOptions options;
    options.shards = shards;
    options.max_batch = gate::kServeMaxBatch;
    options.flush_after_ms = gate::kServeFlushMs;
    options.queue_capacity = 4096;
    options.keep_schedules = true;
    options.cache = &cache;
    AsyncScheduler serve(options);
    std::vector<Ticket> tickets;
    for (const EngineRequest& request : requests) {
      tickets.push_back(serve.submit(request));
      ASSERT_TRUE(tickets.back().accepted());
    }
    serve.drain();
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "shards=" << shards << " request "
                                      << i);
      EngineResult out;
      ASSERT_TRUE(serve.take(tickets[i], out));
      expect_identical(out, reference[i]);
    }
  }

  DecisionCache cache(cache_options);
  AsyncOptions options;
  options.max_batch = gate::kServeMaxBatch;
  options.flush_after_ms = gate::kServeFlushMs;
  options.queue_capacity = 4096;
  options.cache = &cache;
  AsyncScheduler serve(options);
  std::vector<Ticket> tickets;
  EngineResult out;
  for (int round = 0; round < 1 + gate::kServeReps; ++round) {
    tickets.clear();
    for (const EngineRequest& request : requests) {
      tickets.push_back(serve.submit(request));
    }
    serve.drain();
    for (const Ticket& ticket : tickets) ASSERT_TRUE(serve.take(ticket, out));
  }
  const DecisionCacheStats stats = cache.stats();
  ASSERT_GT(stats.hits + stats.misses, 0u);
  EXPECT_GE(static_cast<double>(stats.hits) /
                static_cast<double>(stats.hits + stats.misses),
            gate::kZipfMinHitRate)
      << stats.hits << " hits, " << stats.misses << " misses";
}

TEST(DecisionCache, AsyncStatsWithoutCacheStayZero) {
  const auto instances = make_instances(1, 12, 8, 3);
  AsyncOptions options;
  options.flush_after_ms = 0.0;
  const FlatListPolicy policy;
  AsyncScheduler serve(options);
  EngineRequest request;
  request.instance = &instances[0];
  request.policy = &policy;
  const Ticket t = serve.submit(request);
  ASSERT_TRUE(t.accepted());
  EXPECT_EQ(serve.wait(t), TicketStatus::Done);
  EngineResult out;
  EXPECT_TRUE(serve.take(t, out));
  const AsyncStats stats = serve.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_evictions, 0u);
}

// ---------------------------------------------------------------------------
// Canonical: property tests of the canonicalization pass
// ---------------------------------------------------------------------------

TEST(Canonical, PermutationInvariantFuzz) {
  // >= 1000 random instances: the signature must not depend on task
  // submission order.
  Rng rng(0xC0FFEE);
  const std::vector<WorkloadFamily> families = {
      WorkloadFamily::WeaklyParallel, WorkloadFamily::Cirne,
      WorkloadFamily::HighlyParallel, WorkloadFamily::Mixed};
  SignatureScratch scratch;
  for (int i = 0; i < 1000; ++i) {
    const int n = 2 + static_cast<int>(rng.uniform_int(0, 10));
    const int m = 2 + static_cast<int>(rng.uniform_int(0, 14));
    const Instance instance = generate_instance(
        families[static_cast<std::size_t>(i) % families.size()], n, m, rng);
    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    const Instance shuffled = permuted_instance(instance, order);
    EXPECT_EQ(canonical_signature(instance, 32, scratch).hash,
              canonical_signature(shuffled, 32, scratch).hash)
        << "instance " << i;
  }
}

TEST(Canonical, DuplicateResubmissionInvariant) {
  // A shape rebuilt from scratch (fresh heap, same values) must produce
  // the same signature — resubmission of a recurring shape is the whole
  // point of the cache. Scratch reuse must not matter either.
  const auto instances = make_instances(200, 10, 8, 1234);
  SignatureScratch scratch_a, scratch_b;
  for (const Instance& instance : instances) {
    const Instance rebuilt = copy_instance(instance);
    EXPECT_EQ(canonical_signature(instance, 32, scratch_a).hash,
              canonical_signature(rebuilt, 32, scratch_b).hash);
    EXPECT_EQ(canonical_signature(instance, 32, scratch_a).hash,
              canonical_signature(instance, 32, scratch_a).hash);
  }
}

TEST(Canonical, DistinctUnderWorkPerturbationFuzz) {
  // Scaling any one processing time by >= one full grid sub-step must
  // change the signature (2^(3/steps), 6.7% at 32 — three sub-steps, so
  // even a value sitting right at a bucket edge lands in a different
  // bucket). Run for every step count the quantizer treats differently:
  // one threshold, a few, the default, and more thresholds than cells.
  for (const int steps : quantizer_step_counts()) {
    Rng rng(0xFEED);
    const std::vector<WorkloadFamily> families = {
        WorkloadFamily::WeaklyParallel, WorkloadFamily::Cirne,
        WorkloadFamily::HighlyParallel, WorkloadFamily::Mixed};
    SignatureScratch scratch;
    for (int i = 0; i < 500; ++i) {
      const int n = 2 + static_cast<int>(rng.uniform_int(0, 8));
      const int m = 2 + static_cast<int>(rng.uniform_int(0, 10));
      const Instance instance = generate_instance(
          families[static_cast<std::size_t>(i) % families.size()], n, m,
          rng);
      const int victim = static_cast<int>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      Instance perturbed(instance.procs());
      for (int t = 0; t < instance.num_tasks(); ++t) {
        const MoldableTask& task = instance.task(t);
        std::vector<double> times = task.times();
        if (t == victim) {
          for (double& v : times) v *= std::exp2(3.0 / steps);
        }
        perturbed.add_task(
            MoldableTask(times, task.weight(), task.min_procs()));
      }
      EXPECT_NE(canonical_signature(instance, steps, scratch).hash,
                canonical_signature(perturbed, steps, scratch).hash)
          << "steps " << steps << " instance " << i;
    }
  }
}

TEST(Canonical, DistinctUnderWeightPerturbation) {
  for (const int steps : quantizer_step_counts()) {
    const auto instances = make_instances(100, 8, 8, 777);
    SignatureScratch scratch;
    for (const Instance& instance : instances) {
      Instance perturbed(instance.procs());
      for (int t = 0; t < instance.num_tasks(); ++t) {
        const MoldableTask& task = instance.task(t);
        const double weight =
            t == 0 ? task.weight() * std::exp2(3.0 / steps) : task.weight();
        perturbed.add_task(
            MoldableTask(task.times(), weight, task.min_procs()));
      }
      EXPECT_NE(canonical_signature(instance, steps, scratch).hash,
                canonical_signature(perturbed, steps, scratch).hash)
          << "steps " << steps;
    }
  }
}

TEST(Canonical, DistinctUnderProcessorCountChange) {
  const auto instances = make_instances(100, 8, 8, 4242);
  SignatureScratch scratch;
  for (const Instance& instance : instances) {
    // Same tasks on a bigger machine: m is part of the shape.
    Instance bigger(instance.procs() + 1);
    // Same machine, one task constrained to more processors.
    Instance constrained(instance.procs());
    for (int t = 0; t < instance.num_tasks(); ++t) {
      const MoldableTask& task = instance.task(t);
      bigger.add_task(
          MoldableTask(task.times(), task.weight(), task.min_procs()));
      const int min_procs =
          t == 0 ? std::min(task.min_procs() + 1, task.max_procs())
                 : task.min_procs();
      constrained.add_task(
          MoldableTask(task.times(), task.weight(), min_procs));
    }
    const std::uint64_t base = canonical_signature(instance, 32, scratch).hash;
    EXPECT_NE(base, canonical_signature(bigger, 32, scratch).hash);
    if (instance.task(0).min_procs() < instance.task(0).max_procs()) {
      EXPECT_NE(base, canonical_signature(constrained, 32, scratch).hash);
    }
  }
}

TEST(Canonical, InvariantWithinOneQuantizationSubStep) {
  // Mid-bucket construction: every magnitude sits at the center of its
  // quantization bucket, so a multiplicative jitter of well under half a
  // sub-step must leave the signature unchanged in both directions. The
  // anchor task (pure tmin) is left untouched so the grid itself cannot
  // move.
  for (const int steps : quantizer_step_counts()) {
    std::vector<std::uint64_t> hashes;
    for (const double jitter : {1.0, std::exp2(0.2 / steps),
                                std::exp2(-0.2 / steps)}) {
      Instance instance(4);
      // Anchor: tmin task, itself mid-bucket on the absolute grid.
      const double tmin = std::exp2((10.0 + 0.5) / steps);
      instance.add_task(MoldableTask({4 * tmin, 2 * tmin, 1.5 * tmin, tmin},
                                     std::exp2(0.5 / steps), 1));
      // Every other magnitude mid-bucket relative to tmin, then jittered.
      for (int b : {3, 7, 19}) {
        std::vector<double> times;
        for (int k = 0; k < 4; ++k) {
          times.push_back(tmin * std::exp2((b + 4 - k + 0.5) / steps) *
                          jitter);
        }
        instance.add_task(MoldableTask(
            times, std::exp2((b + 0.5) / steps) * jitter, 1));
      }
      SignatureScratch scratch;
      hashes.push_back(canonical_signature(instance, steps, scratch).hash);
    }
    EXPECT_EQ(hashes[1], hashes[0]) << "steps " << steps;
    EXPECT_EQ(hashes[2], hashes[0]) << "steps " << steps;
  }
}

TEST(Canonical, MidBucketIndexMatchesFloorLog2) {
  // At the center of a bucket the log-free quantizer must agree with
  // floor(log2(r) * steps): over several doublings around 1, and at the
  // far ends of the exponent range.
  SignatureScratch scratch;
  for (const int steps : quantizer_step_counts()) {
    for (const int e : {-1000, -40, -3, -1, 0, 1, 2, 5, 40, 1000}) {
      for (int i = 0; i < steps; i += std::max(1, steps / 97)) {
        const double r = std::exp2(e + (i + 0.5) / steps);
        const auto expected =
            static_cast<std::int64_t>(std::floor(std::log2(r) * steps));
        EXPECT_EQ(expected, static_cast<std::int64_t>(e) * steps + i);
        EXPECT_EQ(scratch.bucket(r, steps), expected)
            << "steps " << steps << " r " << r;
      }
    }
    // Powers of two sit exactly on a threshold: the bucket starts there.
    EXPECT_EQ(scratch.bucket(1.0, steps), 0);
    EXPECT_EQ(scratch.bucket(2.0, steps), steps);
    EXPECT_EQ(scratch.bucket(0.25, steps), -2 * steps);
    // Subnormal ratios are renormalized exactly.
    EXPECT_EQ(scratch.bucket(0x1p-1070, steps),
              static_cast<std::int64_t>(-1070) * steps);
    EXPECT_EQ(scratch.bucket(std::numeric_limits<double>::denorm_min(), steps),
              static_cast<std::int64_t>(-1074) * steps);
    // Buckets never decrease with the ratio.
    double prev = 1.0;
    for (int j = 1; j <= 4 * steps; ++j) {
      const double r = prev * std::exp2(0.37 / steps);
      EXPECT_LE(scratch.bucket(prev, steps), scratch.bucket(r, steps));
      prev = r;
    }
  }
}

TEST(Canonical, QuantizeStepsOutOfRangeThrows) {
  SignatureScratch scratch;
  Instance one(4);
  one.add_task(MoldableTask({4.0, 2.0, 1.5, 1.0}, 1.0, 1));
  EXPECT_THROW((void)scratch.bucket(1.0, 0), std::invalid_argument);
  EXPECT_THROW((void)scratch.bucket(1.0, kMaxQuantizeSteps + 1),
               std::invalid_argument);
  EXPECT_THROW((void)canonical_signature(one, kMaxQuantizeSteps + 1, scratch),
               std::invalid_argument);
  EXPECT_THROW(DecisionCache(DecisionCacheOptions{16, 2,
                                                  kMaxQuantizeSteps + 1}),
               std::invalid_argument);
  // The bound itself is accepted, and a rejected call leaves the scratch
  // usable.
  EXPECT_EQ(scratch.bucket(2.0, kMaxQuantizeSteps), kMaxQuantizeSteps);
  SignatureScratch fresh;
  EXPECT_EQ(canonical_signature(one, 32, scratch).hash,
            canonical_signature(one, 32, fresh).hash);
}

TEST(Canonical, ExtremeTimeRatioIsDefined) {
  // Ratios to the anchor that overflow to +inf or underflow to 0 (and
  // subnormal magnitudes) must land in defined buckets: no float-to-int
  // cast of an infinity, stable across calls, scratch objects and task
  // order.
  Instance instance(2);
  instance.add_task(MoldableTask({1e-300}, 1.0, 1));
  instance.add_task(MoldableTask({1e300, 1e299}, 1.0, 1));  // ratio = inf
  instance.add_task(MoldableTask({5e-324, 1e300}, 1e-310, 1));
  Instance reversed(2);
  for (int t = instance.num_tasks() - 1; t >= 0; --t) {
    const MoldableTask& task = instance.task(t);
    reversed.add_task(MoldableTask(task.times(), task.weight(),
                                   task.min_procs()));
  }
  // min_procs hides a time far below the anchor: ratio underflows to 0.
  Instance underflow(2);
  underflow.add_task(MoldableTask({1e-300, 1e300}, 1.0, 2));
  for (const int steps : quantizer_step_counts()) {
    SignatureScratch a, b;
    EXPECT_EQ(canonical_signature(instance, steps, a).hash,
              canonical_signature(instance, steps, b).hash);
    EXPECT_EQ(canonical_signature(instance, steps, a).hash,
              canonical_signature(reversed, steps, b).hash);
    EXPECT_EQ(canonical_signature(underflow, steps, a).hash,
              canonical_signature(underflow, steps, b).hash);
    EXPECT_NE(canonical_signature(instance, steps, a).hash,
              canonical_signature(underflow, steps, a).hash);
  }
  SignatureScratch scratch;
  EXPECT_EQ(scratch.bucket(std::numeric_limits<double>::infinity(), 32),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(scratch.bucket(0.0, 32), std::numeric_limits<std::int64_t>::min());
}

TEST(Canonical, EmptyAndTrivialInstances) {
  SignatureScratch scratch;
  const Instance empty4(4);
  const Instance empty8(8);
  EXPECT_NE(canonical_signature(empty4, 32, scratch).hash,
            canonical_signature(empty8, 32, scratch).hash);
  Instance one(4);
  one.add_task(MoldableTask({4.0, 2.0, 1.5, 1.0}, 1.0, 1));
  EXPECT_NE(canonical_signature(one, 32, scratch).hash,
            canonical_signature(empty4, 32, scratch).hash);
  // Deterministic across calls and scratch objects.
  SignatureScratch other;
  EXPECT_EQ(canonical_signature(one, 32, scratch).hash,
            canonical_signature(one, 32, other).hash);
}

TEST(Canonical, FuzzedShapesRarelyCollide) {
  // 1000 independently generated shapes: a 64-bit multiset hash should
  // essentially never collide (deterministic seed, so this either always
  // passes or flags a real quality problem in the mixer).
  Rng rng(0xDECADE);
  const std::vector<WorkloadFamily> families = {
      WorkloadFamily::WeaklyParallel, WorkloadFamily::Cirne,
      WorkloadFamily::HighlyParallel, WorkloadFamily::Mixed};
  SignatureScratch scratch;
  std::set<std::uint64_t> seen;
  const int kShapes = 1000;
  for (int i = 0; i < kShapes; ++i) {
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 11));
    const int m = 2 + static_cast<int>(rng.uniform_int(0, 14));
    const Instance instance = generate_instance(
        families[static_cast<std::size_t>(i) % families.size()], n, m, rng);
    seen.insert(canonical_signature(instance, 32, scratch).hash);
  }
  EXPECT_GE(static_cast<int>(seen.size()), kShapes - 1);
}

}  // namespace
}  // namespace moldsched
