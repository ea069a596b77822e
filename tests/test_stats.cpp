#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace moldsched {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.sum(), 4.5);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  // Sample variance with n-1 = 7: sum of squared deviations is 32.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(5);
  RunningStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.gaussian(3.0, 2.0);
    all.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RatioOfSums, JainAggregation) {
  // ratio-of-sums is NOT the mean of ratios: (10+30)/(10+10) = 2, while the
  // mean of per-run ratios is (1 + 3)/2 = 2 here, but with uneven
  // references they differ.
  RatioOfSums r;
  r.add(10.0, 10.0);  // ratio 1
  r.add(30.0, 10.0);  // ratio 3
  EXPECT_DOUBLE_EQ(r.ratio(), 2.0);
  EXPECT_DOUBLE_EQ(r.min_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(r.max_ratio(), 3.0);

  RatioOfSums uneven;
  uneven.add(2.0, 1.0);    // ratio 2
  uneven.add(100.0, 100.0);  // ratio 1
  EXPECT_NEAR(uneven.ratio(), 102.0 / 101.0, 1e-12);
  EXPECT_NE(uneven.ratio(), 1.5);  // mean of ratios would be 1.5
}

TEST(RatioOfSums, RejectsNonPositiveReference) {
  RatioOfSums r;
  EXPECT_THROW(r.add(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(r.add(1.0, -2.0), std::invalid_argument);
}

TEST(RatioOfSums, MergeAccumulates) {
  RatioOfSums a, b;
  a.add(10.0, 5.0);
  b.add(20.0, 5.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.ratio(), 3.0);
  EXPECT_EQ(a.count(), 2u);
}

}  // namespace
}  // namespace moldsched
