#include "reference/schedule.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace moldsched {
namespace {

Instance two_task_instance() {
  Instance instance(3);
  instance.add_task(MoldableTask({4.0, 2.5, 2.0}, 2.0));
  instance.add_task(MoldableTask({6.0, 3.0, 2.5}, 1.0));
  return instance;
}

TEST(Schedule, PlaceAndQuery) {
  Schedule schedule(3, 2);
  EXPECT_FALSE(schedule.assigned(0));
  EXPECT_FALSE(schedule.complete());
  schedule.place(0, 0.0, 4.0, {0});
  schedule.place(1, 1.0, 3.0, {1, 2});
  EXPECT_TRUE(schedule.complete());
  EXPECT_DOUBLE_EQ(schedule.completion(0), 4.0);
  EXPECT_DOUBLE_EQ(schedule.completion(1), 4.0);
  EXPECT_DOUBLE_EQ(schedule.cmax(), 4.0);
  EXPECT_EQ(schedule.placement(1).nprocs(), 2);
}

TEST(Schedule, PlacementSortsProcessors) {
  Schedule schedule(4, 1);
  schedule.place(0, 0.0, 1.0, {3, 1, 2});
  const auto& procs = schedule.placement(0).procs;
  ASSERT_EQ(procs.size(), 3u);
  EXPECT_EQ(procs[0], 1);
  EXPECT_EQ(procs[1], 2);
  EXPECT_EQ(procs[2], 3);
}

TEST(Schedule, PlaceValidation) {
  Schedule schedule(2, 1);
  EXPECT_THROW(schedule.place(5, 0.0, 1.0, {0}), std::invalid_argument);
  EXPECT_THROW(schedule.place(0, -1.0, 1.0, {0}), std::invalid_argument);
  EXPECT_THROW(schedule.place(0, 0.0, 0.0, {0}), std::invalid_argument);
  EXPECT_THROW(schedule.place(0, 0.0, 1.0, {}), std::invalid_argument);
  EXPECT_THROW(schedule.place(0, 0.0, 1.0, {2}), std::invalid_argument);
  EXPECT_THROW(schedule.place(0, 0.0, 1.0, {-1}), std::invalid_argument);
  EXPECT_THROW(schedule.place(0, 0.0, 1.0, {0, 0}), std::invalid_argument);
}

TEST(Schedule, ReplaceOverwrites) {
  Schedule schedule(2, 1);
  schedule.place(0, 0.0, 1.0, {0});
  schedule.place(0, 5.0, 2.0, {1});
  EXPECT_DOUBLE_EQ(schedule.placement(0).start, 5.0);
  EXPECT_DOUBLE_EQ(schedule.completion(0), 7.0);
}

// An unassigned task has no completion, so the makespan is undefined.
TEST(Schedule, UnassignedTaskHasNoCompletion) {
  Schedule schedule(2, 2);
  schedule.place(1, 0.0, 1.0, {1});
  EXPECT_FALSE(schedule.assigned(0));
  EXPECT_TRUE(schedule.assigned(1));
  EXPECT_THROW((void)schedule.completion(0), std::logic_error);
  EXPECT_THROW((void)schedule.cmax(), std::logic_error);
}

TEST(Schedule, MetricsAgainstInstance) {
  const Instance instance = two_task_instance();
  Schedule schedule(3, 2);
  schedule.place(0, 0.0, 2.5, {0, 1});   // ends 2.5, weight 2
  schedule.place(1, 2.5, 6.0, {2});      // ends 8.5, weight 1
  EXPECT_DOUBLE_EQ(schedule.cmax(), 8.5);
  EXPECT_DOUBLE_EQ(schedule.weighted_completion_sum(instance),
                   2.0 * 2.5 + 1.0 * 8.5);
}

TEST(Schedule, WeightedSumRejectsSizeMismatch) {
  const Instance instance = two_task_instance();
  Schedule schedule(3, 1);
  schedule.place(0, 0.0, 4.0, {0});
  EXPECT_THROW((void)schedule.weighted_completion_sum(instance),
               std::logic_error);
}

TEST(Schedule, ConstructorValidation) {
  EXPECT_THROW(Schedule(0, 1), std::invalid_argument);
  EXPECT_THROW(Schedule(1, -1), std::invalid_argument);
}

TEST(Schedule, ConvertersRoundTrip) {
  Schedule schedule(4, 3);
  schedule.place(0, 0.0, 2.0, {2, 3});
  schedule.place(2, 2.0, 1.5, {0});
  const FlatPlacements flat = to_flat(schedule);
  ASSERT_EQ(flat.size(), 3);
  EXPECT_FALSE(flat.assigned(1));
  EXPECT_EQ(flat.proc_ids, (std::vector<int>{2, 3, 0}));
  EXPECT_EQ(flat.cmax(), 3.5);
  const Schedule back = to_schedule(flat, 4);
  EXPECT_FALSE(back.assigned(1));
  EXPECT_EQ(back.placement(0).procs, schedule.placement(0).procs);
  EXPECT_EQ(back.placement(2).start, 2.0);
  EXPECT_THROW((void)to_schedule(flat, 2), std::invalid_argument);  // id 3
}

TEST(Schedule, EmptyScheduleCmax) {
  Schedule schedule(4, 0);
  EXPECT_TRUE(schedule.complete());
  EXPECT_DOUBLE_EQ(schedule.cmax(), 0.0);
}

}  // namespace
}  // namespace moldsched
