/// Edge-case sweep across the whole stack: single-processor clusters,
/// single tasks, tasks narrower than the machine, extreme weights, and
/// degenerate durations — the configurations most likely to break index
/// arithmetic or bound computations.

#include <gtest/gtest.h>

#include "baselines/baselines.hpp"
#include "core/demt.hpp"
#include "dualapprox/cmax_estimator.hpp"
#include "exp/algorithms.hpp"
#include "lp/minsum_bound.hpp"
#include "sched/validator.hpp"
#include "workloads/generators.hpp"

namespace moldsched {
namespace {

TEST(EdgeCases, SingleProcessorCluster) {
  Instance instance(1);
  instance.add_task(MoldableTask({3.0}, 2.0));
  instance.add_task(MoldableTask({1.0}, 5.0));
  instance.add_task(MoldableTask({2.0}, 1.0));

  for (const auto& algorithm : standard_algorithms()) {
    const FlatPlacements schedule = algorithm.run(instance);
    require_valid(schedule, instance);
    // One processor: makespan is exactly the total work.
    EXPECT_NEAR(schedule.cmax(), 6.0, 1e-9) << algorithm.name;
  }

  const auto estimate = estimate_cmax(instance);
  EXPECT_NEAR(estimate.lower_bound, 6.0, 1e-3);
  const auto bound = minsum_lower_bound(instance);
  // Single machine: Smith's rule gives the true optimum 5*1 + 2*4 + 1*6.
  EXPECT_LE(bound.bound, 19.0 + 1e-9);
  EXPECT_GT(bound.bound, 0.0);
}

TEST(EdgeCases, TasksNarrowerThanTheMachine) {
  Instance instance(16);
  instance.add_task(MoldableTask({8.0, 5.0, 4.0}, 1.0));       // width 3
  instance.add_task(MoldableTask({6.0}, 2.0));                 // width 1
  instance.add_task(MoldableTask({9.0, 5.0, 3.5, 3.0}, 1.5));  // width 4

  for (const auto& algorithm : standard_algorithms()) {
    const FlatPlacements schedule = algorithm.run(instance);
    require_valid(schedule, instance);
    for (int i = 0; i < instance.num_tasks(); ++i) {
      EXPECT_LE(schedule.proc_count[i],
                instance.task(i).max_procs())
          << algorithm.name;
    }
  }
}

TEST(EdgeCases, ExtremeWeightSpread) {
  Instance instance(8);
  Rng rng(1);
  for (int i = 0; i < 12; ++i) {
    std::vector<double> times;
    for (int k = 1; k <= 8; ++k) times.push_back((4.0 + i) / (0.4 * k + 0.6));
    instance.add_task(
        MoldableTask(std::move(times), i == 0 ? 1e6 : 1e-3));
  }
  const auto result = demt_schedule(instance);
  require_valid(result.schedule, instance);
  // The one massive-weight task dominates the criterion; DEMT must finish
  // it early (before the vast majority of the horizon).
  EXPECT_LE(result.schedule.finish(0), 0.8 * result.schedule.cmax());
}

TEST(EdgeCases, ManyIdenticalTasks) {
  Instance instance(8);
  for (int i = 0; i < 64; ++i) {
    instance.add_task(MoldableTask({4.0, 2.0, 1.4, 1.1, 1.0, 0.9, 0.85, 0.8},
                                   1.0));
  }
  for (const auto& algorithm : standard_algorithms()) {
    const FlatPlacements schedule = algorithm.run(instance);
    require_valid(schedule, instance);
  }
}

TEST(EdgeCases, TwoTasksTinyCluster) {
  Instance instance(2);
  instance.add_task(MoldableTask({5.0, 2.6}, 1.0));
  instance.add_task(MoldableTask({0.4, 0.3}, 9.0));
  const auto result = demt_schedule(instance);
  require_valid(result.schedule, instance);
  const auto bound = minsum_lower_bound(instance);
  EXPECT_GE(result.schedule.weighted_completion_sum(instance),
            bound.bound * (1 - 1e-9));
}

TEST(EdgeCases, VeryLongAndVeryShortTasksMix) {
  // Duration spread of 5 orders of magnitude stresses the grid (large K).
  Instance instance(4);
  instance.add_task(MoldableTask({1e-3, 9e-4, 8e-4, 7e-4}, 1.0));
  instance.add_task(MoldableTask({50.0, 26.0, 18.0, 14.0}, 1.0));
  instance.add_task(MoldableTask({0.5, 0.3, 0.25, 0.2}, 3.0));
  const auto result = demt_schedule(instance);
  require_valid(result.schedule, instance);
  EXPECT_GE(result.diag.grid_k, 10);  // log2(1e5)-ish
  const auto bound = minsum_lower_bound(instance);
  EXPECT_GE(result.schedule.weighted_completion_sum(instance),
            bound.bound * (1 - 1e-9));
}

TEST(EdgeCases, AllTasksRigid) {
  Instance instance(8);
  instance.add_task(MoldableTask({9.0, 5.0, 3.5, 3.0, 2.8, 2.7, 2.6, 2.5},
                                 1.0, /*min_procs=*/8));
  instance.add_task(MoldableTask({8.0, 4.5, 3.2, 2.7, 2.5, 2.4, 2.3, 2.2},
                                 2.0, /*min_procs=*/4));
  instance.add_task(MoldableTask({6.0, 3.5, 2.6, 2.2, 2.0, 1.9, 1.85, 1.8},
                                 3.0, /*min_procs=*/2));
  const auto result = demt_schedule(instance);
  require_valid(result.schedule, instance);
  EXPECT_EQ(result.schedule.proc_count[0], 8);
  EXPECT_GE(result.schedule.proc_count[1], 4);
}

TEST(EdgeCases, GangHandlesNarrowTasks) {
  Instance instance(16);
  instance.add_task(MoldableTask({8.0, 5.0}, 1.0));  // only 2 procs wide
  const FlatPlacements schedule = gang_schedule(instance);
  require_valid(schedule, instance);
  EXPECT_EQ(schedule.proc_count[0], 2);
}

TEST(EdgeCases, LowerBoundsOnConstantTimeTasks) {
  // No speedup at all: p(k) = c. Min work = c at one processor.
  Instance instance(4);
  for (int i = 0; i < 8; ++i) {
    instance.add_task(MoldableTask(std::vector<double>(4, 2.0), 1.0));
  }
  const auto estimate = estimate_cmax(instance);
  // 8 unit-work-2 sequential tasks on 4 procs: opt = 4.
  EXPECT_NEAR(estimate.lower_bound, 4.0, 1e-2);
  const auto result = demt_schedule(instance);
  require_valid(result.schedule, instance);
  EXPECT_LE(result.schedule.cmax(), 8.0 + 1e-9);
}

TEST(EdgeCases, InstanceAsLargeAsThePaper) {
  // One full-size paper instance end to end (n=400, m=200).
  Rng rng(55);
  const Instance instance =
      generate_instance(WorkloadFamily::Cirne, 400, 200, rng);
  const auto result = demt_schedule(instance);
  require_valid(result.schedule, instance);
  EXPECT_LE(result.schedule.cmax(), 3.0 * result.diag.cmax_lower_bound);
}

}  // namespace
}  // namespace moldsched
