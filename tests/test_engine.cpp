/// Determinism and workspace contracts of the multi-instance engine
/// (mirroring test_parallel_determinism for the shuffle engine): the same
/// request batch must give bit-identical results for 1, 2, 4 and all
/// workers, match direct demt_schedule calls, and workspace reuse across
/// batches must never leak state between requests.

#include <gtest/gtest.h>

#include "core/demt.hpp"
#include "core/policy.hpp"
#include "engine/engine.hpp"
#include "sched/validator.hpp"
#include "sim/online.hpp"
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

void expect_identical(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  for (int t = 0; t < a.num_tasks(); ++t) {
    const Placement& pa = a.placement(t);
    const Placement& pb = b.placement(t);
    EXPECT_EQ(pa.start, pb.start) << "task " << t;
    EXPECT_EQ(pa.duration, pb.duration) << "task " << t;
    EXPECT_EQ(pa.procs, pb.procs) << "task " << t;
  }
}

TEST(Engine, DeterministicAcrossWorkerCounts) {
  const auto instances = make_instances(6, 40, 16, 20040627);
  DemtOptions demt;
  demt.shuffles = 8;
  const DemtPolicy policy(demt);

  SchedulerEngine sequential(EngineOptions{1, true});
  const auto base = sequential.schedule_all(instances, policy);
  ASSERT_EQ(base.size(), instances.size());

  for (int workers : {2, 4, 0}) {
    SchedulerEngine engine(EngineOptions{workers, true});
    const auto results = engine.schedule_all(instances, policy);
    ASSERT_EQ(results.size(), base.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].cmax, base[i].cmax) << "workers=" << workers;
      EXPECT_EQ(results[i].weighted_completion_sum,
                base[i].weighted_completion_sum)
          << "workers=" << workers;
      expect_identical(results[i].schedule, base[i].schedule);
    }
  }
}

TEST(Engine, MatchesDirectDemtCalls) {
  const auto instances = make_instances(4, 30, 12, 42);
  SchedulerEngine engine(EngineOptions{0, true});
  const auto results = engine.schedule_all(instances, DemtPolicy{});
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto direct = demt_schedule(instances[i]);
    expect_identical(results[i].schedule, direct.schedule);
    EXPECT_EQ(results[i].diag.num_batches, direct.diag.num_batches);
    EXPECT_EQ(results[i].diag.shuffle_improvements,
              direct.diag.shuffle_improvements);
    require_valid(results[i].schedule, instances[i]);
  }
}

TEST(Engine, FlatListIsFeasibleAndDeterministic) {
  const auto instances = make_instances(5, 50, 16, 7);
  SchedulerEngine engine(EngineOptions{1, true});
  const FlatListPolicy policy;
  const auto first = engine.schedule_all(instances, policy);
  SchedulerEngine parallel(EngineOptions{0, true});
  const auto second = parallel.schedule_all(instances, policy);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    require_valid(first[i].schedule, instances[i]);
    expect_identical(first[i].schedule, second[i].schedule);
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
    const auto full = with_schedules.schedule_all(instances, *policy);
    const auto lean = metrics_only.schedule_all(instances, *policy);
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
  const auto base = engine.schedule_all(big, policy);
  (void)engine.schedule_all(small, policy);  // shrink then regrow
  const auto again = engine.schedule_all(big, policy);
  for (std::size_t i = 0; i < big.size(); ++i) {
    expect_identical(again[i].schedule, base[i].schedule);
  }
}

TEST(Engine, OnlineSimulationMatchesDirectPath) {
  Rng rng(17);
  const int m = 8;
  std::vector<std::vector<OnlineJob>> streams(3);
  for (auto& stream : streams) {
    double release = 0.0;
    for (int j = 0; j < 12; ++j) {
      Instance tmp = generate_instance(WorkloadFamily::Cirne, 1, m, rng);
      stream.push_back(OnlineJob{tmp.task(0), release});
      release += rng.uniform(0.0, 1.0);
    }
  }
  const DemtPolicy policy;
  std::vector<OnlineRequest> requests(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    requests[i].m = m;
    requests[i].jobs = &streams[i];
    requests[i].policy = &policy;
  }

  SchedulerEngine sequential(EngineOptions{1, true});
  std::vector<FlatOnlineResult> base;
  sequential.simulate_batch(requests, base);

  for (int workers : {2, 0}) {
    SchedulerEngine engine(EngineOptions{workers, true});
    std::vector<FlatOnlineResult> results;
    engine.simulate_batch(requests, results);
    ASSERT_EQ(results.size(), base.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].cmax, base[i].cmax);
      EXPECT_EQ(results[i].schedule.start, base[i].schedule.start);
      EXPECT_EQ(results[i].schedule.duration, base[i].schedule.duration);
    }
  }

  for (std::size_t i = 0; i < streams.size(); ++i) {
    const auto direct = online_batch_schedule(
        m, streams[i], [](const Instance& instance) {
          return demt_schedule(instance).schedule;
        });
    EXPECT_EQ(base[i].cmax, direct.cmax);
    EXPECT_EQ(base[i].weighted_completion_sum,
              direct.weighted_completion_sum);
    EXPECT_EQ(base[i].num_batches, direct.num_batches);
  }
}

TEST(Engine, StatsCountRequestsAndBatches) {
  const auto instances = make_instances(3, 15, 8, 21);
  SchedulerEngine engine(EngineOptions{1, true});
  const DemtPolicy policy;
  EXPECT_EQ(engine.stats().requests, 0u);
  (void)engine.schedule_all(instances, policy);
  (void)engine.schedule_all(instances, policy);
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
  std::vector<OnlineRequest> no_online;
  std::vector<FlatOnlineResult> online_results;
  engine.simulate_batch(no_online, online_results);
  EXPECT_TRUE(online_results.empty());
}

TEST(Engine, SingleRequestBatchMatchesDirectCall) {
  const auto instances = make_instances(1, 25, 12, 23);
  for (int workers : {1, 0}) {
    SchedulerEngine engine(EngineOptions{workers, true});
    const auto results = engine.schedule_all(instances, DemtPolicy{});
    ASSERT_EQ(results.size(), 1u);
    const auto direct = demt_schedule(instances[0]);
    EXPECT_EQ(results[0].cmax, direct.schedule.cmax());
    expect_identical(results[0].schedule, direct.schedule);
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
    expect_identical(actual[i].schedule, expected[i].schedule);
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
  std::vector<FlatOnlineResult> results;
  OnlineRequest no_jobs;
  no_jobs.policy = &policy;
  EXPECT_THROW(engine.simulate_batch({no_jobs}, results),
               std::invalid_argument);
}

}  // namespace
}  // namespace moldsched
