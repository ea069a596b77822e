#include <gtest/gtest.h>

#include "reference/compaction_reference.hpp"
#include "sched/validator.hpp"

namespace moldsched {
namespace {

TEST(PullForward, MovesTaskToTimeZero) {
  Schedule schedule(2, 1);
  schedule.place(0, 5.0, 2.0, {0});
  const int moved = pull_forward(schedule);
  EXPECT_EQ(moved, 1);
  EXPECT_DOUBLE_EQ(schedule.placement(0).start, 0.0);
}

TEST(PullForward, StopsAtPredecessorOnSharedProcessor) {
  Schedule schedule(2, 2);
  schedule.place(0, 0.0, 3.0, {0});
  schedule.place(1, 7.0, 2.0, {0, 1});
  pull_forward(schedule);
  EXPECT_DOUBLE_EQ(schedule.placement(1).start, 3.0);
}

TEST(PullForward, CascadesAcrossPasses) {
  // Task 2 can only move after task 1 moved: needs a second pass.
  Schedule schedule(1, 3);
  schedule.place(0, 0.0, 1.0, {0});
  schedule.place(1, 5.0, 1.0, {0});
  schedule.place(2, 9.0, 1.0, {0});
  pull_forward(schedule);
  EXPECT_DOUBLE_EQ(schedule.placement(1).start, 1.0);
  EXPECT_DOUBLE_EQ(schedule.placement(2).start, 2.0);
}

TEST(PullForward, FixpointOnTightSchedule) {
  Schedule schedule(1, 2);
  schedule.place(0, 0.0, 2.0, {0});
  schedule.place(1, 2.0, 1.0, {0});
  EXPECT_EQ(pull_forward(schedule), 0);
}

TEST(PullForward, DoesNotJumpOverBusyInterval) {
  // Proc 0: [0,4) busy by task 0; task 1 at [6, 8) on procs {0,1}. Task 1
  // may only reach t=4, not 0 (processor 0 still busy earlier).
  Schedule schedule(2, 2);
  schedule.place(0, 0.0, 4.0, {0});
  schedule.place(1, 6.0, 2.0, {0, 1});
  pull_forward(schedule);
  EXPECT_DOUBLE_EQ(schedule.placement(1).start, 4.0);
}

TEST(PullForward, PreservesFeasibility) {
  Instance instance(4);
  for (int i = 0; i < 8; ++i) {
    instance.add_task(MoldableTask({4.0, 2.0, 1.5, 1.2}, 1.0));
  }
  Schedule schedule(4, 8);
  // Staircase with big gaps; tasks alternate between the disjoint pairs
  // {0,1} and {2,3}, so the compacted schedule runs two tasks at a time.
  for (int i = 0; i < 8; ++i) {
    const int base = (i % 2) * 2;
    schedule.place(i, 10.0 * i, 2.0, {base, base + 1});
  }
  pull_forward(schedule);
  ValidationOptions options;
  options.check_durations = false;
  const auto report = validate_schedule(to_flat(schedule), instance, options);
  EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors[0]);
  // 4 tasks per processor pair, 2.0 each: everything fits within 8.
  EXPECT_LE(schedule.cmax(), 8.0 + 1e-9);
}

TEST(PullForward, IgnoresUnassignedTasks) {
  Schedule schedule(2, 3);
  schedule.place(0, 4.0, 1.0, {0});
  // tasks 1, 2 unassigned
  EXPECT_EQ(pull_forward(schedule), 1);
  EXPECT_DOUBLE_EQ(schedule.placement(0).start, 0.0);
}

}  // namespace
}  // namespace moldsched
