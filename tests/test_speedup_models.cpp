#include "workloads/speedup_models.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "tasks/moldable_task.hpp"

namespace moldsched {
namespace {

TEST(Recurrence, FirstEntryIsSequentialTime) {
  Rng rng(1);
  const auto times = recurrence_times(7.5, 16, kHighlyParallel, rng);
  ASSERT_EQ(times.size(), 16u);
  EXPECT_DOUBLE_EQ(times[0], 7.5);
}

TEST(Recurrence, ProducesMonotoneTasksByConstruction) {
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    for (const auto& params : {kHighlyParallel, kWeaklyParallel}) {
      MoldableTask task(recurrence_times(5.0, 32, params, rng), 1.0);
      EXPECT_TRUE(task.is_time_monotone(1e-9));
      EXPECT_TRUE(task.is_work_monotone(1e-9));
    }
  }
}

TEST(Recurrence, HighlyParallelSpeedsUpMoreThanWeakly) {
  Rng rng(3);
  double high_sum = 0.0, weak_sum = 0.0;
  const int trials = 200;
  for (int trial = 0; trial < trials; ++trial) {
    high_sum += recurrence_times(10.0, 64, kHighlyParallel, rng).back();
    weak_sum += recurrence_times(10.0, 64, kWeaklyParallel, rng).back();
  }
  // Highly parallel tasks end much faster on the full machine.
  EXPECT_LT(high_sum / trials, 0.15 * 10.0);
  EXPECT_GT(weak_sum / trials, 0.5 * 10.0);
}

TEST(Recurrence, QuasiLinearUpperBoundIsIdeal) {
  // X = 1 every step gives p(j) = p(1)/j exactly; random X <= 1 can never
  // beat the ideal linear speedup.
  Rng rng(4);
  const auto times = recurrence_times(6.0, 20, kHighlyParallel, rng);
  for (int k = 1; k <= 20; ++k) {
    EXPECT_GE(times[static_cast<std::size_t>(k) - 1] * k, 6.0 * (1.0 - 1e-9));
  }
}

TEST(Recurrence, Validation) {
  Rng rng(5);
  EXPECT_THROW(recurrence_times(0.0, 4, kHighlyParallel, rng),
               std::invalid_argument);
  EXPECT_THROW(recurrence_times(1.0, 0, kHighlyParallel, rng),
               std::invalid_argument);
}

TEST(Downey, SequentialBaseline) {
  EXPECT_DOUBLE_EQ(downey_speedup(1.0, 10.0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(downey_speedup(0.5, 10.0, 0.5), 1.0);
}

TEST(Downey, SaturatesAtAverageParallelism) {
  for (double sigma : {0.0, 0.3, 1.0, 1.5, 3.0}) {
    EXPECT_NEAR(downey_speedup(1000.0, 12.0, sigma), 12.0, 1e-9) << sigma;
  }
}

TEST(Downey, ZeroVarianceIsPiecewiseLinear) {
  // sigma = 0: S(n) = n up to A, then A.
  for (int n = 1; n <= 8; ++n) {
    EXPECT_NEAR(downey_speedup(n, 8.0, 0.0), n, 1e-12);
  }
  EXPECT_NEAR(downey_speedup(20.0, 8.0, 0.0), 8.0, 1e-12);
}

TEST(Downey, ContinuousAtRegimeBoundaries) {
  // sigma <= 1: branches meet at n = A and n = 2A - 1.
  const double a = 9.0, sigma = 0.6;
  EXPECT_NEAR(downey_speedup(a - 1e-9, a, sigma), downey_speedup(a + 1e-9, a, sigma),
              1e-6);
  const double knee = 2.0 * a - 1.0;
  EXPECT_NEAR(downey_speedup(knee - 1e-9, a, sigma),
              downey_speedup(knee + 1e-9, a, sigma), 1e-6);
  // sigma > 1: knee at A(1+sigma) - sigma.
  const double sigma2 = 1.8;
  const double knee2 = a * (1.0 + sigma2) - sigma2;
  EXPECT_NEAR(downey_speedup(knee2 - 1e-9, a, sigma2),
              downey_speedup(knee2 + 1e-9, a, sigma2), 1e-6);
}

TEST(Downey, MonotoneNonDecreasingInN) {
  for (double sigma : {0.2, 0.9, 1.0, 1.7}) {
    double prev = 0.0;
    for (int n = 1; n <= 64; ++n) {
      const double s = downey_speedup(n, 17.0, sigma);
      EXPECT_GE(s, prev - 1e-12);
      prev = s;
    }
  }
}

TEST(Downey, HigherVarianceLowersSpeedup) {
  // More variance in parallelism = worse speedup at the same allotment.
  EXPECT_GT(downey_speedup(8.0, 16.0, 0.2), downey_speedup(8.0, 16.0, 1.9));
}

TEST(Downey, SpeedupNeverExceedsAllotmentOrA) {
  for (double sigma : {0.0, 0.5, 1.0, 2.0}) {
    for (int n = 1; n <= 40; ++n) {
      const double s = downey_speedup(n, 10.0, sigma);
      EXPECT_LE(s, n + 1e-9);
      EXPECT_LE(s, 10.0 + 1e-9);
    }
  }
}

TEST(Downey, Validation) {
  EXPECT_THROW((void)downey_speedup(1.0, 0.5, 0.5), std::invalid_argument);
  EXPECT_THROW((void)downey_speedup(1.0, 2.0, -0.1), std::invalid_argument);
}

TEST(DowneyTimes, ConvertsSpeedupToTimes) {
  const auto times = downey_times(10.0, 8, 4.0, 0.0);
  ASSERT_EQ(times.size(), 8u);
  EXPECT_DOUBLE_EQ(times[0], 10.0);
  EXPECT_NEAR(times[3], 2.5, 1e-12);   // S(4) = 4
  EXPECT_NEAR(times[7], 2.5, 1e-12);   // saturated at A = 4
}

TEST(DowneyTimes, TasksAreMonotoneAfterRepair) {
  for (double sigma : {0.0, 0.7, 1.4}) {
    MoldableTask task(downey_times(10.0, 50, 7.3, sigma), 1.0);
    task.enforce_monotonicity();
    EXPECT_TRUE(task.is_time_monotone(1e-9));
    EXPECT_TRUE(task.is_work_monotone(1e-9));
  }
}

}  // namespace
}  // namespace moldsched
