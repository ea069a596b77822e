#include "tasks/time_grid.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/demt.hpp"

namespace moldsched {
namespace {

TEST(TimeGrid, PaperFormula) {
  // cmax = 16, tmin = 1 -> K = 4, t_j = 16 / 2^(4-j).
  TimeGrid grid(16.0, 1.0);
  EXPECT_EQ(grid.K(), 4);
  EXPECT_DOUBLE_EQ(grid.t(0), 1.0);
  EXPECT_DOUBLE_EQ(grid.t(1), 2.0);
  EXPECT_DOUBLE_EQ(grid.t(4), 16.0);
  EXPECT_DOUBLE_EQ(grid.t(5), 32.0);
}

TEST(TimeGrid, SmallestBatchHoldsTmin) {
  // t_0 in [tmin, 2*tmin): "the smallest useful batch size (such that at
  // least one task can be done)".
  for (double cmax : {3.7, 10.0, 129.3}) {
    for (double tmin : {0.2, 1.0, 3.0}) {
      if (tmin > cmax) continue;
      TimeGrid grid(cmax, tmin);
      EXPECT_GE(grid.t(0), tmin * (1.0 - 1e-12));
      EXPECT_LT(grid.t(0), 2.0 * tmin);
    }
  }
}

TEST(TimeGrid, BatchGeometry) {
  TimeGrid grid(16.0, 1.0);
  for (int j = 0; j < 8; ++j) {
    EXPECT_DOUBLE_EQ(grid.batch_start(j), grid.t(j));
    EXPECT_DOUBLE_EQ(grid.batch_end(j), grid.t(j + 1));
    // Each batch is as long as its own start time: t_{j+1} = 2 t_j.
    EXPECT_DOUBLE_EQ(grid.batch_length(j), grid.t(j));
    EXPECT_DOUBLE_EQ(grid.batch_end(j) - grid.batch_start(j),
                     grid.batch_length(j));
  }
}

TEST(TimeGrid, DoublesForever) {
  TimeGrid grid(8.0, 1.0);
  for (int j = 0; j < 20; ++j) {
    EXPECT_DOUBLE_EQ(grid.t(j + 1), 2.0 * grid.t(j));
  }
}

TEST(TimeGrid, TminLargerThanCmaxClampsToZero) {
  TimeGrid grid(4.0, 5.0);
  EXPECT_EQ(grid.K(), 0);
  EXPECT_DOUBLE_EQ(grid.t(0), 4.0);
}

TEST(TimeGrid, NonIntegerRatio) {
  // cmax/tmin = 10 -> K = 3, t_0 = 10/8 = 1.25.
  TimeGrid grid(10.0, 1.0);
  EXPECT_EQ(grid.K(), 3);
  EXPECT_DOUBLE_EQ(grid.t(0), 1.25);
  EXPECT_DOUBLE_EQ(grid.t(3), 10.0);
}

TEST(TimeGrid, Validation) {
  EXPECT_THROW(TimeGrid(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(TimeGrid(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(TimeGrid(-1.0, 1.0), std::invalid_argument);
  TimeGrid grid(4.0, 1.0);
  EXPECT_THROW((void)grid.t(-1), std::invalid_argument);
}

TEST(TimeGrid, NonFiniteRatioThrows) {
  // cmax / tmin overflowing to +inf used to reach a float-to-int cast of
  // floor(log2(inf)); it is rejected instead.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(TimeGrid(1e300, 1e-300), std::invalid_argument);
  EXPECT_THROW(TimeGrid(std::numeric_limits<double>::max(),
                        std::numeric_limits<double>::min()),
               std::invalid_argument);
  EXPECT_THROW(TimeGrid(inf, 1.0), std::invalid_argument);
  EXPECT_THROW(TimeGrid(inf, inf), std::invalid_argument);
  // The widest finite ratios stay well formed at both ends.
  EXPECT_EQ(TimeGrid(1e300, 1e-7).K(),
            static_cast<int>(std::floor(std::log2(1e307))));
  const TimeGrid underflow(1e-300, 1e300);  // ratio underflows to 0
  EXPECT_EQ(underflow.K(), 0);
  EXPECT_EQ(underflow.t(0), 1e-300);
}

TEST(TimeGrid, DemtRejectsOverflowingTimeRatio) {
  // DEMT sizes its batch loop from the grid built on (C*max estimate,
  // tmin); a ratio past the double range now stops it at the grid.
  Instance instance(2);
  instance.add_task(MoldableTask({1e-300}, 1.0, 1));
  instance.add_task(MoldableTask({1e300, 1e299}, 1.0, 1));
  EXPECT_THROW((void)demt_schedule(instance), std::invalid_argument);
}

}  // namespace
}  // namespace moldsched
