/// Cross-module property tests: every algorithm, on every workload family,
/// must produce feasible schedules whose metrics dominate both lower
/// bounds. These sweeps are the strongest correctness net in the suite —
/// any unsound bound or infeasible schedule trips them.

#include <gtest/gtest.h>

#include <tuple>

#include "dualapprox/cmax_estimator.hpp"
#include "exp/algorithms.hpp"
#include "lp/minsum_bound.hpp"
#include "reference/event_sim.hpp"
#include "sched/validator.hpp"
#include "workloads/generators.hpp"

namespace moldsched {
namespace {

using Param = std::tuple<WorkloadFamily, int>;  // family, n

class AllAlgorithmsSweep : public ::testing::TestWithParam<Param> {};

INSTANTIATE_TEST_SUITE_P(
    FamilySizeGrid, AllAlgorithmsSweep,
    ::testing::Combine(::testing::Values(WorkloadFamily::WeaklyParallel,
                                         WorkloadFamily::HighlyParallel,
                                         WorkloadFamily::Mixed,
                                         WorkloadFamily::Cirne),
                       ::testing::Values(5, 20, 45)),
    [](const auto& info) {
      return std::string(family_name(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST_P(AllAlgorithmsSweep, SchedulesAreFeasibleAndDominateBounds) {
  const auto [family, n] = GetParam();
  const int m = 16;
  Rng rng(static_cast<std::uint64_t>(n) * 131 + 7);
  const Instance instance = generate_instance(family, n, m, rng);

  const auto estimate = estimate_cmax(instance);
  const auto minsum_lb = minsum_lower_bound(instance);
  ASSERT_GT(estimate.lower_bound, 0.0);
  ASSERT_GT(minsum_lb.bound, 0.0);

  for (const auto& algorithm : standard_algorithms()) {
    const FlatPlacements schedule = algorithm.run(instance);
    // Static feasibility.
    const auto report = validate_schedule(schedule, instance);
    ASSERT_TRUE(report.ok) << algorithm.name << ": " << report.errors[0];
    // Dynamic feasibility (independent event replay).
    const auto sim = simulate_execution(schedule, instance);
    ASSERT_TRUE(sim.ok) << algorithm.name << ": " << sim.errors[0];
    // Both criteria dominate their lower bounds.
    EXPECT_GE(schedule.cmax(), estimate.lower_bound * (1.0 - 1e-9))
        << algorithm.name;
    EXPECT_GE(schedule.weighted_completion_sum(instance),
              minsum_lb.bound * (1.0 - 1e-9))
        << algorithm.name;
    // Simulated metrics equal schedule metrics.
    EXPECT_NEAR(sim.cmax, schedule.cmax(), 1e-9) << algorithm.name;
  }
}

TEST_P(AllAlgorithmsSweep, SquashedAreaNeverExceedsLpBound) {
  // Not a theorem in general, but with the LP taking the max with the
  // squashed bound, the reported bound must dominate it.
  const auto [family, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 977 + 3);
  const Instance instance = generate_instance(family, n, 16, rng);
  const auto lb = minsum_lower_bound(instance);
  EXPECT_GE(lb.bound, squashed_area_bound(instance) * (1.0 - 1e-12));
}

class DemtOptionSweep
    : public ::testing::TestWithParam<std::tuple<bool, bool, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Options, DemtOptionSweep,
    ::testing::Combine(::testing::Bool(),       // merge_small_tasks
                       ::testing::Bool(),       // shuffle_batch_order
                       ::testing::Values(0, 4)  // shuffles
                       ),
    [](const auto& info) {
      return std::string("merge") +
             (std::get<0>(info.param) ? "1" : "0") + "_batchshuf" +
             (std::get<1>(info.param) ? "1" : "0") + "_shuf" +
             std::to_string(std::get<2>(info.param));
    });

TEST_P(DemtOptionSweep, EveryConfigurationIsFeasible) {
  const auto [merge, batch_shuffle, shuffles] = GetParam();
  DemtOptions options;
  options.merge_small_tasks = merge;
  options.shuffle_batch_order = batch_shuffle;
  options.shuffles = shuffles;
  Rng rng(808);
  for (auto family : all_families()) {
    const Instance instance = generate_instance(family, 25, 12, rng);
    const auto result = demt_schedule(instance, options);
    const auto report = validate_schedule(result.schedule, instance);
    ASSERT_TRUE(report.ok)
        << family_name(family) << ": " << report.errors[0];
  }
}

TEST(Properties, LowerBoundsHoldUnderWeightScaling) {
  // Scaling all weights by c scales both the LP bound and every schedule's
  // minsum by c; ratios are invariant.
  Rng rng(17);
  const Instance base =
      generate_instance(WorkloadFamily::HighlyParallel, 20, 8, rng);
  Instance scaled(8);
  for (const auto& task : base.tasks()) {
    scaled.add_task(MoldableTask(task.times(), task.weight() * 4.0));
  }
  const auto lb_base = minsum_lower_bound(base);
  const auto lb_scaled = minsum_lower_bound(scaled);
  EXPECT_NEAR(lb_scaled.bound, 4.0 * lb_base.bound,
              1e-5 * lb_scaled.bound + 1e-9);
}

TEST(Properties, CmaxLowerBoundHoldsUnderTimeScaling) {
  Rng rng(19);
  const Instance base =
      generate_instance(WorkloadFamily::Mixed, 20, 8, rng);
  Instance scaled(8);
  for (const auto& task : base.tasks()) {
    std::vector<double> times = task.times();
    for (auto& t : times) t *= 3.0;
    scaled.add_task(MoldableTask(std::move(times), task.weight()));
  }
  const auto est_base = estimate_cmax(base);
  const auto est_scaled = estimate_cmax(scaled);
  EXPECT_NEAR(est_scaled.lower_bound, 3.0 * est_base.lower_bound,
              1e-3 * est_scaled.lower_bound);
}

}  // namespace
}  // namespace moldsched
