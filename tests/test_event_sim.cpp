#include "reference/event_sim.hpp"

#include <gtest/gtest.h>

#include "core/demt.hpp"
#include "reference/schedule.hpp"
#include "workloads/generators.hpp"

namespace moldsched {
namespace {

Instance small_instance() {
  Instance instance(4);
  instance.add_task(MoldableTask({4.0, 2.5, 2.0, 1.8}, 1.0));
  instance.add_task(MoldableTask({3.0, 1.5, 1.2, 1.0}, 2.0));
  return instance;
}

TEST(EventSim, ReplaysFeasibleSchedule) {
  const Instance instance = small_instance();
  Schedule schedule(4, 2);
  schedule.place(0, 0.0, 2.5, {0, 1});
  schedule.place(1, 2.5, 3.0, {0});
  const auto sim = simulate_execution(to_flat(schedule), instance);
  EXPECT_TRUE(sim.ok) << (sim.errors.empty() ? "" : sim.errors[0]);
  EXPECT_DOUBLE_EQ(sim.completion[0], 2.5);
  EXPECT_DOUBLE_EQ(sim.completion[1], 5.5);
  EXPECT_DOUBLE_EQ(sim.cmax, 5.5);
  EXPECT_DOUBLE_EQ(sim.weighted_completion_sum, 1.0 * 2.5 + 2.0 * 5.5);
}

TEST(EventSim, MetricsMatchScheduleObject) {
  Rng rng(64);
  const Instance instance =
      generate_instance(WorkloadFamily::Mixed, 30, 8, rng);
  const auto result = demt_schedule(instance);
  const auto sim = simulate_execution(result.schedule, instance);
  EXPECT_TRUE(sim.ok);
  EXPECT_NEAR(sim.cmax, result.schedule.cmax(), 1e-9);
  EXPECT_NEAR(sim.weighted_completion_sum,
              result.schedule.weighted_completion_sum(instance), 1e-6);
}

TEST(EventSim, DetectsDoubleBooking) {
  const Instance instance = small_instance();
  Schedule schedule(4, 2);
  // Durations match the model (p(2) = 2.5 and 1.5) so the ONLY error is
  // the conflict: proc 1 double-booked during [1.0, 2.5).
  schedule.place(0, 0.0, 2.5, {0, 1});
  schedule.place(1, 1.0, 1.5, {1, 2});
  const auto sim = simulate_execution(to_flat(schedule), instance);
  EXPECT_FALSE(sim.ok);
  ASSERT_FALSE(sim.errors.empty());
  EXPECT_NE(sim.errors[0].find("still running"), std::string::npos);
}

TEST(EventSim, DetectsDurationMismatch) {
  const Instance instance = small_instance();
  Schedule schedule(4, 2);
  schedule.place(0, 0.0, 9.9, {0, 1});  // p(2) is 2.5
  schedule.place(1, 0.0, 1.0, {2, 3, 0});  // also wrong procs count time
  const auto sim = simulate_execution(to_flat(schedule), instance);
  EXPECT_FALSE(sim.ok);
}

TEST(EventSim, DetectsMissingTask) {
  const Instance instance = small_instance();
  Schedule schedule(4, 2);
  schedule.place(0, 0.0, 2.5, {0, 1});
  const auto sim = simulate_execution(to_flat(schedule), instance);
  EXPECT_FALSE(sim.ok);
  EXPECT_NE(sim.errors[0].find("never starts"), std::string::npos);
}

TEST(EventSim, BackToBackTasksShareProcessorCleanly) {
  const Instance instance = small_instance();
  Schedule schedule(4, 2);
  schedule.place(0, 0.0, 4.0, {0});
  schedule.place(1, 4.0, 3.0, {0});  // same processor, abutting
  const auto sim = simulate_execution(to_flat(schedule), instance);
  EXPECT_TRUE(sim.ok) << (sim.errors.empty() ? "" : sim.errors[0]);
}

TEST(EventSim, UtilisationComputed) {
  const Instance instance = small_instance();
  Schedule schedule(4, 2);
  schedule.place(0, 0.0, 2.5, {0, 1});
  schedule.place(1, 0.0, 1.5, {2, 3});
  const auto sim = simulate_execution(to_flat(schedule), instance);
  // Busy area = 2*2.5 + 2*1.5 = 8 over 4 procs * cmax 2.5 = 10.
  EXPECT_NEAR(sim.utilisation, 0.8, 1e-12);
}

TEST(EventSim, ShapeMismatchReported) {
  // Three entries for the instance's two tasks.
  const Instance instance = small_instance();
  FlatPlacements schedule;
  schedule.reset(3);
  const auto sim = simulate_execution(schedule, instance);
  EXPECT_FALSE(sim.ok);
  ASSERT_FALSE(sim.errors.empty());
  EXPECT_NE(sim.errors[0].find("shape mismatch"), std::string::npos);
}

}  // namespace
}  // namespace moldsched
