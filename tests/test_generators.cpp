#include "workloads/generators.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace moldsched {
namespace {

class GeneratorsAllFamilies : public ::testing::TestWithParam<WorkloadFamily> {};

INSTANTIATE_TEST_SUITE_P(
    Families, GeneratorsAllFamilies,
    ::testing::Values(WorkloadFamily::WeaklyParallel,
                      WorkloadFamily::HighlyParallel, WorkloadFamily::Mixed,
                      WorkloadFamily::Cirne),
    [](const auto& info) { return std::string(family_name(info.param)); });

TEST_P(GeneratorsAllFamilies, ShapeAndBasicInvariants) {
  Rng rng(100);
  const Instance instance = generate_instance(GetParam(), 30, 16, rng);
  EXPECT_EQ(instance.num_tasks(), 30);
  EXPECT_EQ(instance.procs(), 16);
  for (const auto& task : instance.tasks()) {
    EXPECT_EQ(task.max_procs(), 16);
    EXPECT_GE(task.weight(), 1.0);
    EXPECT_LE(task.weight(), 10.0);
    EXPECT_GT(task.time(1), 0.0);
  }
}

TEST_P(GeneratorsAllFamilies, TasksAreMonotone) {
  Rng rng(101);
  const Instance instance = generate_instance(GetParam(), 50, 32, rng);
  EXPECT_TRUE(instance.is_monotone(1e-6));
}

TEST_P(GeneratorsAllFamilies, DeterministicGivenSeed) {
  Rng a(555), b(555);
  const Instance x = generate_instance(GetParam(), 20, 8, a);
  const Instance y = generate_instance(GetParam(), 20, 8, b);
  for (int i = 0; i < x.num_tasks(); ++i) {
    EXPECT_DOUBLE_EQ(x.task(i).weight(), y.task(i).weight());
    for (int k = 1; k <= 8; ++k) {
      EXPECT_DOUBLE_EQ(x.task(i).time(k), y.task(i).time(k));
    }
  }
}

TEST_P(GeneratorsAllFamilies, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  const Instance x = generate_instance(GetParam(), 20, 8, a);
  const Instance y = generate_instance(GetParam(), 20, 8, b);
  bool any_different = false;
  for (int i = 0; i < x.num_tasks() && !any_different; ++i) {
    if (x.task(i).time(1) != y.task(i).time(1)) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(Generators, UniformSequentialTimesInRange) {
  Rng rng(7);
  const Instance instance =
      generate_instance(WorkloadFamily::HighlyParallel, 200, 4, rng);
  for (const auto& task : instance.tasks()) {
    EXPECT_GE(task.time(1), 1.0);
    EXPECT_LE(task.time(1), 10.0);
  }
}

TEST(Generators, MixedHasSmallAndLargeClasses) {
  Rng rng(8);
  const Instance instance =
      generate_instance(WorkloadFamily::Mixed, 400, 8, rng);
  int small = 0, large = 0;
  for (const auto& task : instance.tasks()) {
    (task.time(1) < 4.0 ? small : large) += 1;
  }
  // 70% small N(1,0.5) vs 30% large N(10,5): the 4.0 split is crude but the
  // small class must clearly dominate.
  EXPECT_GT(small, large);
  EXPECT_GT(large, 400 / 20);  // large class is present
}

TEST(Generators, WeaklyParallelBarelySpeedsUp) {
  Rng rng(9);
  const Instance instance =
      generate_instance(WorkloadFamily::WeaklyParallel, 100, 64, rng);
  double speedup_sum = 0.0;
  for (const auto& task : instance.tasks()) {
    speedup_sum += task.time(1) / task.time(64);
  }
  EXPECT_LT(speedup_sum / 100.0, 4.0);  // weak: far from linear (64x)
}

TEST(Generators, HighlyParallelSpeedsUpALot) {
  Rng rng(10);
  const Instance instance =
      generate_instance(WorkloadFamily::HighlyParallel, 100, 64, rng);
  double speedup_sum = 0.0;
  for (const auto& task : instance.tasks()) {
    speedup_sum += task.time(1) / task.time(64);
  }
  // Speedup ~ 64^X with X ~ N(0.9, 0.2) truncated to [0,1] averages around
  // 15 on 64 processors (the low-X tail drags the mean down).
  EXPECT_GT(speedup_sum / 100.0, 10.0);
}

TEST(Generators, CirneTasksSaturate) {
  Rng rng(11);
  const Instance instance =
      generate_instance(WorkloadFamily::Cirne, 200, 128, rng);
  // Downey curves saturate at A <= m; the time on the full machine must
  // stop improving for at least some tasks well before m.
  int saturated = 0;
  for (const auto& task : instance.tasks()) {
    if (task.time(128) > 0.99 * task.time(64)) ++saturated;
  }
  EXPECT_GT(saturated, 20);
}

TEST(Generators, FamilyNamesRoundTrip) {
  for (const auto family : all_families()) {
    EXPECT_EQ(parse_family(family_name(family)), family);
  }
  EXPECT_THROW((void)parse_family("bogus"), std::invalid_argument);
}

TEST(Generators, Validation) {
  Rng rng(12);
  EXPECT_THROW(generate_instance(WorkloadFamily::Mixed, 0, 4, rng),
               std::invalid_argument);
  EXPECT_THROW(generate_instance(WorkloadFamily::Mixed, 4, 0, rng),
               std::invalid_argument);
}

TEST(Generators, ConfigOverrides) {
  Rng rng(13);
  GeneratorConfig config;
  config.weight_lo = 5.0;
  config.weight_hi = 5.0;  // degenerate: all weights 5
  config.seq_lo = 2.0;
  config.seq_hi = 3.0;
  const Instance instance =
      generate_instance(WorkloadFamily::HighlyParallel, 50, 4, rng, config);
  for (const auto& task : instance.tasks()) {
    EXPECT_DOUBLE_EQ(task.weight(), 5.0);
    EXPECT_GE(task.time(1), 2.0);
    EXPECT_LE(task.time(1), 3.0);
  }
}

}  // namespace
}  // namespace moldsched
