#include "tasks/moldable_task.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "reference/allotment_table_reference.hpp"

namespace moldsched {
namespace {

MoldableTask ideal(double seq, int m, double w = 1.0) {
  // Perfectly moldable: p(k) = seq / k (linear speedup, constant work).
  std::vector<double> times;
  for (int k = 1; k <= m; ++k) times.push_back(seq / k);
  return MoldableTask(std::move(times), w);
}

TEST(MoldableTask, BasicAccessors) {
  MoldableTask task({10.0, 6.0, 5.0}, 2.5);
  EXPECT_EQ(task.max_procs(), 3);
  EXPECT_EQ(task.min_procs(), 1);
  EXPECT_DOUBLE_EQ(task.weight(), 2.5);
  EXPECT_DOUBLE_EQ(task.time(1), 10.0);
  EXPECT_DOUBLE_EQ(task.time(3), 5.0);
  EXPECT_DOUBLE_EQ(task.work(1), 10.0);
  EXPECT_DOUBLE_EQ(task.work(2), 12.0);
  EXPECT_DOUBLE_EQ(task.work(3), 15.0);
  EXPECT_FALSE(task.rigid());
}

TEST(MoldableTask, TimeOutOfRangeThrows) {
  MoldableTask task({4.0, 3.0}, 1.0);
  EXPECT_THROW((void)task.time(0), std::out_of_range);
  EXPECT_THROW((void)task.time(3), std::out_of_range);
}

TEST(MoldableTask, ConstructorValidation) {
  EXPECT_THROW(MoldableTask({}, 1.0), std::invalid_argument);
  EXPECT_THROW(MoldableTask({1.0, -2.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(MoldableTask({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(MoldableTask({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(MoldableTask({1.0, 0.9}, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(MoldableTask({1.0, 0.9}, 1.0, 3), std::invalid_argument);
}

TEST(MoldableTask, MinTimeAndWork) {
  MoldableTask task({10.0, 6.0, 5.0}, 1.0);
  EXPECT_DOUBLE_EQ(task.min_time(), 5.0);
  EXPECT_DOUBLE_EQ(task.min_work(), 10.0);
  EXPECT_EQ(task.min_work_procs(), 1);
}

TEST(MoldableTask, MinTimeRespectsMinProcs) {
  MoldableTask rigid({10.0, 6.0, 5.0}, 1.0, /*min_procs=*/3);
  EXPECT_TRUE(rigid.rigid());
  EXPECT_DOUBLE_EQ(rigid.min_time(), 5.0);
  EXPECT_DOUBLE_EQ(rigid.min_work(), 15.0);
  EXPECT_EQ(rigid.min_work_procs(), 3);
}

TEST(MoldableTask, CanonicalAllotment) {
  MoldableTask task({10.0, 6.0, 5.0}, 1.0);
  EXPECT_EQ(canonical_allotment_reference(task, 20.0), 1);
  EXPECT_EQ(canonical_allotment_reference(task, 10.0), 1);
  EXPECT_EQ(canonical_allotment_reference(task, 7.0), 2);
  EXPECT_EQ(canonical_allotment_reference(task, 5.0), 3);
  EXPECT_EQ(canonical_allotment_reference(task, 4.9), 0);  // nothing fits
}

TEST(MoldableTask, CanonicalAllotmentRespectsMinProcs) {
  MoldableTask task({10.0, 6.0, 5.0}, 1.0, /*min_procs=*/2);
  EXPECT_EQ(canonical_allotment_reference(task, 20.0), 2);
  EXPECT_EQ(canonical_allotment_reference(task, 5.5), 3);
}

TEST(MoldableTask, MinWorkAllotmentMonotoneCase) {
  MoldableTask task({10.0, 6.0, 5.0}, 1.0);
  // For monotone tasks the min-work allotment equals the canonical one.
  for (double d : {4.0, 5.0, 6.0, 7.0, 10.0, 15.0}) {
    EXPECT_EQ(task.min_work_allotment(d),
              canonical_allotment_reference(task, d))
        << d;
  }
}

TEST(MoldableTask, MinWorkAllotmentNonMonotoneCase) {
  // Non-monotone work: p = {9, 6, 2}; works are {9, 12, 6}. Under deadline
  // 9 the canonical allotment is 1 (work 9) but 3 procs give work 6.
  MoldableTask task({9.0, 6.0, 2.0}, 1.0);
  EXPECT_EQ(canonical_allotment_reference(task, 9.0), 1);
  EXPECT_EQ(task.min_work_allotment(9.0), 3);
}

TEST(MoldableTask, MonotonicityPredicates) {
  MoldableTask good({10.0, 6.0, 5.0}, 1.0);
  EXPECT_TRUE(good.is_time_monotone());
  EXPECT_TRUE(good.is_work_monotone());

  MoldableTask bad_time({5.0, 6.0}, 1.0);
  EXPECT_FALSE(bad_time.is_time_monotone());

  MoldableTask bad_work({10.0, 4.0}, 1.0);  // work 10 -> 8 decreases
  EXPECT_TRUE(bad_work.is_time_monotone());
  EXPECT_FALSE(bad_work.is_work_monotone());
}

TEST(MoldableTask, EnforceMonotonicityRepairsBothDirections) {
  MoldableTask task({10.0, 12.0, 2.0}, 1.0);  // violates both properties
  task.enforce_monotonicity();
  EXPECT_TRUE(task.is_time_monotone());
  EXPECT_TRUE(task.is_work_monotone());
  EXPECT_DOUBLE_EQ(task.time(1), 10.0);  // p(1) untouched
}

TEST(MoldableTask, EnforceMonotonicityIdempotentOnValid) {
  MoldableTask task({10.0, 6.0, 5.0}, 1.0);
  task.enforce_monotonicity();
  EXPECT_DOUBLE_EQ(task.time(1), 10.0);
  EXPECT_DOUBLE_EQ(task.time(2), 6.0);
  EXPECT_DOUBLE_EQ(task.time(3), 5.0);
}

TEST(MoldableTask, FromSpeedupLinear) {
  const auto task = MoldableTask::from_speedup(
      12.0, 4, 2.0, [](int k) { return static_cast<double>(k); });
  EXPECT_DOUBLE_EQ(task.time(1), 12.0);
  EXPECT_DOUBLE_EQ(task.time(4), 3.0);
  EXPECT_TRUE(task.is_time_monotone());
  EXPECT_TRUE(task.is_work_monotone());
}

TEST(MoldableTask, FromSpeedupValidation) {
  EXPECT_THROW(
      MoldableTask::from_speedup(1.0, 0, 1.0, [](int) { return 1.0; }),
      std::invalid_argument);
  EXPECT_THROW(
      MoldableTask::from_speedup(0.0, 2, 1.0, [](int) { return 1.0; }),
      std::invalid_argument);
  EXPECT_THROW(
      MoldableTask::from_speedup(1.0, 2, 1.0, [](int) { return 0.0; }),
      std::invalid_argument);
}

TEST(MoldableTask, IdealTaskHasConstantWork) {
  const auto task = ideal(20.0, 8);
  for (int k = 1; k <= 8; ++k) {
    EXPECT_NEAR(task.work(k), 20.0, 1e-12);
  }
}

}  // namespace
}  // namespace moldsched
