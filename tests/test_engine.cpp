/// Determinism and workspace contracts of the multi-instance engine
/// (mirroring test_parallel_determinism for the shuffle engine): the same
/// request batch must give bit-identical results for 1, 2, 4 and all
/// workers, match direct demt_schedule calls, and workspace reuse across
/// batches must never leak state between requests. Results carry flat
/// placements, which the checks compare and validate as emitted.

#include <gtest/gtest.h>

#include "core/demt.hpp"
#include "core/policy.hpp"
#include "engine/engine.hpp"
#include "baselines/lpt_policy.hpp"
#include "gate_workloads.hpp"
#include "reference/event_sim.hpp"
#include "sched/validator.hpp"
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

/// One request per instance, all under `policy`, served in one batch call.
std::vector<EngineResult> run_batch(SchedulerEngine& engine,
                                    const std::vector<Instance>& instances,
                                    const SchedulingPolicy& policy) {
  std::vector<EngineRequest> requests(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    requests[i].instance = &instances[i];
    requests[i].policy = &policy;
  }
  return engine.schedule_batch(requests);
}

/// `calls` batch calls per engine: the last must match a fresh
/// single-strand engine (warm workspaces carry no state).
void expect_identical_across_workers(const std::vector<Instance>& instances,
                                     const SchedulingPolicy& policy,
                                     int calls = 1) {
  SchedulerEngine sequential(EngineOptions{1, true});
  const auto base = run_batch(sequential, instances, policy);
  ASSERT_EQ(base.size(), instances.size());

  for (int workers : {2, 4, 0}) {
    SchedulerEngine engine(EngineOptions{workers, true});
    std::vector<EngineResult> results;
    for (int c = 0; c < calls; ++c) {
      results = run_batch(engine, instances, policy);
    }
    ASSERT_EQ(results.size(), base.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].cmax, base[i].cmax) << "workers=" << workers;
      EXPECT_EQ(results[i].weighted_completion_sum,
                base[i].weighted_completion_sum)
          << "workers=" << workers;
      gate::expect_identical_placements(results[i].schedule, base[i].schedule);
    }
  }
}

TEST(Engine, DeterministicAcrossWorkerCounts) {
  DemtOptions demt;
  demt.shuffles = 8;
  const DemtPolicy policy(demt);
  expect_identical_across_workers(make_instances(6, 40, 16, 20040627), policy);

  // The serving-shape gate workload (n=60, m=32), served three times per
  // engine (warm-up + 2 rounds): every worker count reproduces the
  // single-strand results.
  const gate::EngineWorkload workload =
      gate::engine_workload(gate::kEngineRequests);
  expect_identical_across_workers(workload.instances, policy, 3);
}

TEST(Engine, MatchesDirectDemtCalls) {
  const auto instances = make_instances(4, 30, 12, 42);
  SchedulerEngine engine(EngineOptions{0, true});
  const auto results = run_batch(engine, instances, DemtPolicy{});
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto direct = demt_schedule(instances[i]);
    const FlatPlacements& schedule = results[i].schedule;
    gate::expect_identical_placements(schedule, direct.schedule);
    EXPECT_EQ(results[i].diag.num_batches, direct.diag.num_batches);
    EXPECT_EQ(results[i].diag.shuffle_improvements,
              direct.diag.shuffle_improvements);
    require_valid(schedule, instances[i]);
  }
}

TEST(Engine, FlatListIsFeasibleAndDeterministic) {
  const auto instances = make_instances(5, 50, 16, 7);
  SchedulerEngine engine(EngineOptions{1, true});
  const FlatListPolicy policy;
  const auto first = run_batch(engine, instances, policy);
  SchedulerEngine parallel(EngineOptions{0, true});
  const auto second = run_batch(parallel, instances, policy);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    require_valid(first[i].schedule, instances[i]);
    gate::expect_identical_placements(first[i].schedule, second[i].schedule);
    EXPECT_EQ(first[i].cmax, first[i].schedule.cmax());
    EXPECT_EQ(first[i].weighted_completion_sum,
              first[i].schedule.weighted_completion_sum(instances[i]));
  }
}

TEST(Engine, MetricsOnlyModeMatchesScheduleMode) {
  const auto instances = make_instances(4, 35, 12, 9);
  SchedulerEngine with_schedules(EngineOptions{1, true});
  SchedulerEngine metrics_only(EngineOptions{1, false});
  const DemtPolicy demt_policy;
  const FlatListPolicy flat_policy;
  const SchedulingPolicy* policies[] = {&demt_policy, &flat_policy};
  for (const SchedulingPolicy* policy : policies) {
    const auto full = run_batch(with_schedules, instances, *policy);
    const auto lean = run_batch(metrics_only, instances, *policy);
    for (std::size_t i = 0; i < instances.size(); ++i) {
      EXPECT_TRUE(full[i].has_schedule);
      EXPECT_FALSE(lean[i].has_schedule);
      EXPECT_EQ(full[i].cmax, lean[i].cmax);
      EXPECT_EQ(full[i].weighted_completion_sum,
                lean[i].weighted_completion_sum);
    }
  }
}

TEST(Engine, WorkspaceReuseAcrossBatchesIsStateless) {
  const auto big = make_instances(4, 45, 16, 11);
  const auto small = make_instances(4, 10, 8, 13);
  SchedulerEngine engine(EngineOptions{1, true});
  const DemtPolicy policy;
  const auto base = run_batch(engine, big, policy);
  (void)run_batch(engine, small, policy);  // shrink then regrow
  const auto again = run_batch(engine, big, policy);
  for (std::size_t i = 0; i < big.size(); ++i) {
    gate::expect_identical_placements(again[i].schedule, base[i].schedule);
  }
}

TEST(Engine, StatsCountRequestsAndBatches) {
  const auto instances = make_instances(3, 15, 8, 21);
  SchedulerEngine engine(EngineOptions{1, true});
  const DemtPolicy policy;
  EXPECT_EQ(engine.stats().requests, 0u);
  (void)run_batch(engine, instances, policy);
  (void)run_batch(engine, instances, policy);
  EXPECT_EQ(engine.stats().requests, 2 * instances.size());
  EXPECT_EQ(engine.stats().batches, 2u);
  EXPECT_EQ(engine.stats().strands_last_batch, 1);
}

TEST(Engine, EmptyBatchIsServedWithoutDispatch) {
  SchedulerEngine engine(EngineOptions{0, true});
  std::vector<EngineRequest> no_requests;
  std::vector<EngineResult> results(3);  // stale storage must be cleared
  engine.schedule_batch(no_requests, results);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(engine.stats().requests, 0u);
  EXPECT_EQ(engine.stats().batches, 0u);
}

TEST(Engine, SingleRequestBatchMatchesDirectCall) {
  const auto instances = make_instances(1, 25, 12, 23);
  for (int workers : {1, 0}) {
    SchedulerEngine engine(EngineOptions{workers, true});
    const auto results = run_batch(engine, instances, DemtPolicy{});
    ASSERT_EQ(results.size(), 1u);
    const auto direct = demt_schedule(instances[0]);
    EXPECT_EQ(results[0].cmax, direct.schedule.cmax());
    gate::expect_identical_placements(results[0].schedule, direct.schedule);
    EXPECT_EQ(engine.stats().strands_last_batch, 1);  // never > batch size
  }
}

TEST(Engine, RawPointerBatchHookMatchesVectorOverload) {
  // schedule_batch_into is the async layer's batch-assembly hook; it must
  // be bit-identical to the vector path it backs.
  const auto instances = make_instances(5, 30, 12, 29);
  const DemtPolicy demt_policy;
  const FlatListPolicy flat_policy;
  std::vector<EngineRequest> requests(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    requests[i].instance = &instances[i];
    requests[i].policy =
        i % 2 == 0 ? static_cast<const SchedulingPolicy*>(&demt_policy)
                   : &flat_policy;
  }
  SchedulerEngine vector_engine(EngineOptions{1, true});
  std::vector<EngineResult> expected;
  vector_engine.schedule_batch(requests, expected);

  SchedulerEngine raw_engine(EngineOptions{1, true});
  std::vector<EngineResult> actual(requests.size());
  raw_engine.schedule_batch_into(requests.data(), requests.size(),
                                 actual.data());
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].cmax, expected[i].cmax);
    EXPECT_EQ(actual[i].weighted_completion_sum,
              expected[i].weighted_completion_sum);
    gate::expect_identical_placements(actual[i].schedule,
                                      expected[i].schedule);
  }
  EXPECT_EQ(raw_engine.stats().requests, requests.size());
}

TEST(Engine, RejectsBadRequests) {
  SchedulerEngine engine;
  const DemtPolicy policy;
  EngineRequest no_instance;
  no_instance.policy = &policy;
  EXPECT_THROW((void)engine.schedule_batch({no_instance}),
               std::invalid_argument);
  EXPECT_THROW(SchedulerEngine(EngineOptions{-1, true}),
               std::invalid_argument);
}

TEST(Engine, EveryKeptScheduleIsValidAndReplays) {
  // Every schedule the engine emits, checked as emitted: the validator and
  // the event simulator on each EngineResult of one mixed batch (three
  // policies x four families x m in {1, 4, 64, 257}), with the decision
  // cache off and on. With the cache on, the batch runs three times: the
  // second pass stores each decision and the third replays it.
  const DemtPolicy demt;
  const FlatListPolicy flat_list;
  const LptRigidPolicy lpt;
  const SchedulingPolicy* policies[] = {&demt, &flat_list, &lpt};
  std::vector<Instance> instances;
  Rng rng(20040627);
  for (const int m : {1, 4, 64, 257}) {
    for (const WorkloadFamily family : all_families()) {
      instances.push_back(generate_instance(family, 14, m, rng));
    }
  }
  std::vector<EngineRequest> requests;
  for (const SchedulingPolicy* policy : policies) {
    for (const Instance& instance : instances) {
      requests.push_back(EngineRequest{&instance, policy});
    }
  }
  for (const bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "cache on" : "cache off");
    DecisionCache cache;
    EngineOptions options;
    options.keep_schedules = true;
    options.cache = cached ? &cache : nullptr;
    SchedulerEngine engine(options);
    for (int pass = 0; pass < (cached ? 3 : 1); ++pass) {
      const auto results = engine.schedule_batch(requests);
      ASSERT_EQ(results.size(), requests.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        const Instance& instance = *requests[i].instance;
        SCOPED_TRACE(::testing::Message()
                     << requests[i].policy->name() << " m=" << instance.procs()
                     << " request " << i << " pass " << pass);
        const EngineResult& result = results[i];
        ASSERT_TRUE(result.has_schedule);
        const auto report = validate_schedule(result.schedule, instance);
        EXPECT_TRUE(report.ok) << report.errors.front();
        const SimResult sim = simulate_execution(result.schedule, instance);
        EXPECT_TRUE(sim.ok) << sim.errors.front();
        EXPECT_EQ(sim.cmax, result.cmax);
        EXPECT_NEAR(sim.weighted_completion_sum,
                    result.weighted_completion_sum,
                    1e-9 * result.weighted_completion_sum);
      }
    }
    if (cached) EXPECT_GT(cache.stats().hits, 0u);
  }
}

}  // namespace
}  // namespace moldsched
