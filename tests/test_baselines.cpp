#include "baselines/baselines.hpp"

#include <gtest/gtest.h>

#include "dualapprox/cmax_estimator.hpp"
#include "sched/validator.hpp"
#include "workloads/generators.hpp"

namespace moldsched {
namespace {

Instance ideal_tasks(int n, int m, double seq, double weight = 1.0) {
  Instance instance(m);
  for (int i = 0; i < n; ++i) {
    std::vector<double> times;
    for (int k = 1; k <= m; ++k) times.push_back(seq / k);
    instance.add_task(MoldableTask(std::move(times), weight));
  }
  return instance;
}

TEST(Gang, UsesAllProcessorsSequentially) {
  const Instance instance = ideal_tasks(3, 4, 8.0);
  const FlatPlacements schedule = gang_schedule(instance);
  require_valid(schedule, instance);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(schedule.proc_count[i], 4);
  }
  EXPECT_DOUBLE_EQ(schedule.cmax(), 3 * 2.0);
}

TEST(Gang, OrdersBySmithRatioOnFullMachine) {
  Instance instance(2);
  instance.add_task(MoldableTask({4.0, 2.0}, 1.0));  // ratio 0.5
  instance.add_task(MoldableTask({4.0, 2.0}, 8.0));  // ratio 4.0 -> first
  const FlatPlacements schedule = gang_schedule(instance);
  EXPECT_LT(schedule.start[1], schedule.start[0]);
}

TEST(Gang, OptimalForIdealTasksMinsum) {
  // For perfectly parallel equal tasks, gang in any order is minsum-optimal;
  // check the value: tasks of p(m) = 2 => completions 2, 4, 6.
  const Instance instance = ideal_tasks(3, 4, 8.0);
  const FlatPlacements schedule = gang_schedule(instance);
  EXPECT_DOUBLE_EQ(schedule.weighted_completion_sum(instance), 12.0);
}

TEST(Sequential, OneProcessorEach) {
  const Instance instance = ideal_tasks(6, 3, 3.0);
  const FlatPlacements schedule = sequential_lptf_schedule(instance);
  require_valid(schedule, instance);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(schedule.proc_count[i], 1);
  }
  // 6 unit-seq tasks of length 3 on 3 procs: two rounds -> cmax 6.
  EXPECT_DOUBLE_EQ(schedule.cmax(), 6.0);
}

TEST(Sequential, RejectsRigidMultiprocessorTasks) {
  Instance instance(4);
  instance.add_task(MoldableTask({4.0, 2.0, 1.5, 1.2}, 1.0, /*min_procs=*/2));
  EXPECT_THROW(sequential_lptf_schedule(instance), std::invalid_argument);
}

TEST(Sequential, LptfOrdering) {
  Instance instance(1);
  instance.add_task(MoldableTask({1.0}, 1.0));
  instance.add_task(MoldableTask({5.0}, 1.0));
  instance.add_task(MoldableTask({3.0}, 1.0));
  const FlatPlacements schedule = sequential_lptf_schedule(instance);
  // Longest first on a single machine: 5, 3, 1.
  EXPECT_DOUBLE_EQ(schedule.start[1], 0.0);
  EXPECT_DOUBLE_EQ(schedule.start[2], 5.0);
  EXPECT_DOUBLE_EQ(schedule.start[0], 8.0);
}

class ListGrahamOrders : public ::testing::TestWithParam<ListOrder> {};

INSTANTIATE_TEST_SUITE_P(Orders, ListGrahamOrders,
                         ::testing::Values(ListOrder::ShelfOrder,
                                           ListOrder::WeightedLptf,
                                           ListOrder::SmallestAreaFirst),
                         [](const auto& info) {
                           switch (info.param) {
                             case ListOrder::ShelfOrder: return "Shelf";
                             case ListOrder::WeightedLptf: return "Lptf";
                             case ListOrder::SmallestAreaFirst: return "Saf";
                           }
                           return "?";
                         });

TEST_P(ListGrahamOrders, ValidOnAllFamilies) {
  Rng rng(31);
  for (auto family : all_families()) {
    const Instance instance = generate_instance(family, 30, 16, rng);
    const FlatPlacements schedule = list_graham_schedule(instance, GetParam());
    require_valid(schedule, instance);
  }
}

TEST_P(ListGrahamOrders, CmaxNearTheDualBoundOnParallelWork) {
  // The paper notes the [7] allotments give list schedules with Cmax ratio
  // below ~2 for parallel tasks.
  Rng rng(32);
  const Instance instance =
      generate_instance(WorkloadFamily::HighlyParallel, 60, 16, rng);
  const FlatPlacements schedule = list_graham_schedule(instance, GetParam());
  const auto estimate = estimate_cmax(instance);
  EXPECT_LE(schedule.cmax(), 2.5 * estimate.lower_bound);
}

TEST(ListGraham, SafPrefersSmallAreasEarly) {
  Instance instance(4);
  // Big area task and small area task, same weight.
  instance.add_task(MoldableTask({20.0, 11.0, 8.0, 6.0}, 1.0));
  instance.add_task(MoldableTask({1.0, 0.9, 0.8, 0.8}, 1.0));
  const FlatPlacements schedule =
      list_graham_schedule(instance, ListOrder::SmallestAreaFirst);
  EXPECT_LE(schedule.start[1], schedule.start[0]);
}

TEST(ListGraham, WeightedLptfPutsLongPerWeightTasksFirst) {
  // p/w descending: the light task (p/w = 6) precedes the heavy one
  // (p/w = 2/3) even though both have the same duration.
  Instance instance(1);
  instance.add_task(MoldableTask({6.0}, 1.0));
  instance.add_task(MoldableTask({6.0}, 9.0));
  const FlatPlacements schedule =
      list_graham_schedule(instance, ListOrder::WeightedLptf);
  EXPECT_DOUBLE_EQ(schedule.start[0], 0.0);
  EXPECT_DOUBLE_EQ(schedule.start[1], 6.0);
}

TEST(Baselines, EmptyInstanceThrows) {
  Instance instance(4);
  EXPECT_THROW(gang_schedule(instance), std::invalid_argument);
  EXPECT_THROW(sequential_lptf_schedule(instance), std::invalid_argument);
  EXPECT_THROW(list_graham_schedule(instance, ListOrder::ShelfOrder),
               std::invalid_argument);
}

}  // namespace
}  // namespace moldsched
