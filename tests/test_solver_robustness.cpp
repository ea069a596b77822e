/// Failure-path and robustness tests: iteration limits, solver fallbacks,
/// and metric-consistency invariants that the happy-path suites skip.

#include <gtest/gtest.h>

#include "baselines/baselines.hpp"
#include "core/demt.hpp"
#include "gate_workloads.hpp"
#include "lp/minsum_bound.hpp"
#include "lp/simplex.hpp"
#include "sched/validator.hpp"
#include "sim/online.hpp"
#include "workloads/generators.hpp"

namespace moldsched {
namespace {

TEST(SolverRobustness, SimplexIterationLimitReported) {
  LpProblem lp;
  lp.num_vars = 6;
  lp.objective.assign(6, -1.0);
  lp.upper.assign(6, 5.0);
  for (int r = 0; r < 4; ++r) {
    LpProblem::Row row;
    for (int j = 0; j < 6; ++j) row.coeffs.emplace_back(j, 1.0 + j * 0.1 + r);
    row.rel = Relation::LessEq;
    row.rhs = 10.0;
    lp.rows.push_back(std::move(row));
  }
  SimplexOptions options;
  options.max_iterations = 1;  // cannot possibly finish
  const auto solution = solve_lp(lp, options);
  EXPECT_EQ(solution.status, LpStatus::IterationLimit);
}

TEST(SolverRobustness, MinsumBoundFallsBackToSquashedArea) {
  Rng rng(5);
  const Instance instance =
      generate_instance(WorkloadFamily::Mixed, 20, 8, rng);
  SimplexOptions options;
  options.max_iterations = 1;  // force the LP to fail
  const auto est_grid = TimeGrid(10.0, instance.tmin());
  const auto result = minsum_lower_bound(instance, est_grid, options);
  EXPECT_EQ(result.status, LpStatus::IterationLimit);
  EXPECT_DOUBLE_EQ(result.bound, squashed_area_bound(instance));
}

TEST(SolverRobustness, SimplexBlandModeStillSolves) {
  // Force Bland pricing from the first iteration; optimum must not change.
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {-1.0, -1.0};
  lp.rows.push_back({{{0, 1.0}, {1, 2.0}}, Relation::LessEq, 4.0});
  lp.rows.push_back({{{0, 3.0}, {1, 1.0}}, Relation::LessEq, 6.0});
  SimplexOptions options;
  options.bland_after = 0;
  const auto solution = solve_lp(lp, options);
  ASSERT_EQ(solution.status, LpStatus::Optimal);
  EXPECT_NEAR(solution.objective, -14.0 / 5.0, 1e-9);
}

TEST(SolverRobustness, SimplexManyRedundantRows) {
  // 30 copies of the same constraint: heavy degeneracy.
  LpProblem lp;
  lp.num_vars = 3;
  lp.objective = {-2.0, -3.0, -1.0};
  for (int r = 0; r < 30; ++r) {
    lp.rows.push_back(
        {{{0, 1.0}, {1, 1.0}, {2, 1.0}}, Relation::LessEq, 6.0});
  }
  const auto solution = solve_lp(lp);
  ASSERT_EQ(solution.status, LpStatus::Optimal);
  EXPECT_NEAR(solution.objective, -18.0, 1e-8);  // all budget on x1
}

TEST(SolverRobustness, DemtTightDualEps) {
  Rng rng(6);
  const Instance instance =
      generate_instance(WorkloadFamily::Cirne, 20, 8, rng);
  DemtOptions coarse, fine;
  coarse.dual_eps = 0.2;
  fine.dual_eps = 1e-7;
  const auto a = demt_schedule(instance, coarse);
  const auto b = demt_schedule(instance, fine);
  // Both valid; the fine estimate is never larger than the coarse one.
  EXPECT_LE(b.diag.cmax_estimate, a.diag.cmax_estimate * (1.0 + 1e-9));
}

TEST(SolverRobustness, OnlineMetricSumsAreConsistent) {
  Rng rng(7);
  std::vector<OnlineJob> jobs;
  double release = 0.0;
  for (int i = 0; i < 15; ++i) {
    Instance tmp = generate_instance(WorkloadFamily::Mixed, 1, 8, rng);
    jobs.push_back({tmp.task(0), release});
    release += rng.uniform(0.0, 1.5);
  }
  const auto result = gate::run_online(8, jobs, DemtPolicy());
  double wc = 0.0, wf = 0.0, cmax = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    wc += jobs[j].task.weight() * result.completion[j];
    wf += jobs[j].task.weight() * result.flow[j];
    cmax = std::max(cmax, result.completion[j]);
    EXPECT_NEAR(result.completion[j],
                result.schedule.finish(static_cast<int>(j)), 1e-9);
    EXPECT_GE(result.flow[j], 0.0);
  }
  EXPECT_NEAR(result.weighted_completion_sum, wc, 1e-6);
  EXPECT_NEAR(result.weighted_flow_sum, wf, 1e-6);
  EXPECT_NEAR(result.cmax, cmax, 1e-9);
}

TEST(SolverRobustness, ListGrahamCustomEps) {
  Rng rng(8);
  const Instance instance =
      generate_instance(WorkloadFamily::HighlyParallel, 20, 8, rng);
  // A very coarse dual search still yields a valid schedule.
  const FlatPlacements schedule =
      list_graham_schedule(instance, ListOrder::ShelfOrder, /*dual_eps=*/0.5);
  require_valid(schedule, instance);
}

TEST(SolverRobustness, LpBoundScalesLinearlyWithMachineSize) {
  // Doubling m at fixed workload cannot increase the minsum lower bound.
  Rng rng(9);
  const Instance small = generate_instance(WorkloadFamily::Mixed, 16, 8, rng);
  Instance large(16);
  for (const auto& task : small.tasks()) {
    std::vector<double> times = task.times();
    times.resize(16, times.back());  // flat extension: no extra speedup
    large.add_task(MoldableTask(std::move(times), task.weight()));
  }
  const auto lb_small = minsum_lower_bound(small);
  const auto lb_large = minsum_lower_bound(large);
  EXPECT_LE(lb_large.bound, lb_small.bound * (1.0 + 1e-6));
}

}  // namespace
}  // namespace moldsched
