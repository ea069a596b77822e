/// Determinism contracts of the shuffle engine and the allotment-table
/// precompute: the same seed must give the same schedule whether the
/// workspace is fresh or reused, and the table-backed dual-approximation
/// search must follow exactly the trajectory of the scan-based one.

#include <gtest/gtest.h>

#include "core/demt.hpp"
#include "dualapprox/cmax_estimator.hpp"
#include "gate_workloads.hpp"
#include "reference/allotment_table_reference.hpp"
#include "reference/dual_test_reference.hpp"
#include "sched/validator.hpp"
#include "tasks/allotment_table.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace moldsched {
namespace {

TEST(ParallelDeterminism, ShuffleBatchOrderModeIsAlsoDeterministic) {
  // Shuffled batch order under a loose makespan budget: a workspace warmed
  // on a larger instance must reproduce the fresh call bit for bit.
  Rng rng(7);
  const Instance instance =
      generate_instance(WorkloadFamily::HighlyParallel, 50, 16, rng);
  const Instance warmup =
      generate_instance(WorkloadFamily::Cirne, 80, 32, rng);
  DemtOptions options;
  options.shuffles = 12;
  options.shuffle_batch_order = true;
  options.cmax_budget_factor = 1.2;
  const auto base = demt_schedule(instance, options);
  require_valid(base.schedule, instance);

  DemtWorkspace ws;
  FlatPlacements out;
  DemtDiagnostics diag;
  demt_schedule_into(warmup, options, ws, out, diag);
  demt_schedule_into(instance, options, ws, out, diag);
  gate::expect_identical_placements(out, base.schedule);
  EXPECT_EQ(diag.shuffle_improvements, base.diag.shuffle_improvements);
}

/// Reference bisection: the exact arithmetic of estimate_cmax, but calling
/// the scan-based dual_test_reference directly. The table-backed search
/// must perform the same number of dual_test calls with the same
/// accept/reject answers.
int reference_search_calls(const Instance& instance, double rel_eps,
                           double* out_estimate) {
  int calls = 0;
  double lb = instance.total_min_work() / instance.procs();
  for (const auto& task : instance.tasks()) {
    lb = std::max(lb, task.min_time());
  }
  ++calls;
  if (dual_test_reference(instance, lb).feasible) {
    *out_estimate = lb;
    return calls;
  }
  double lo = lb;
  double hi = lb * 2.0;
  ++calls;
  bool hi_ok = dual_test_reference(instance, hi).feasible;
  while (!hi_ok) {
    lo = hi;
    hi *= 2.0;
    ++calls;
    hi_ok = dual_test_reference(instance, hi).feasible;
  }
  while (hi - lo > rel_eps * hi) {
    const double mid = 0.5 * (lo + hi);
    ++calls;
    if (dual_test_reference(instance, mid).feasible) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  *out_estimate = hi;
  return calls;
}

TEST(AllotmentTables, SearchTrajectoryUnchangedByPrecompute) {
  Rng rng(42);
  for (auto family :
       {WorkloadFamily::WeaklyParallel, WorkloadFamily::HighlyParallel,
        WorkloadFamily::Cirne, WorkloadFamily::Mixed}) {
    const Instance instance = generate_instance(family, 40, 32, rng);
    const double rel_eps = 1e-4;
    const CmaxEstimate estimate = estimate_cmax(instance, rel_eps);
    double reference_estimate = 0.0;
    const int reference_calls =
        reference_search_calls(instance, rel_eps, &reference_estimate);
    EXPECT_EQ(estimate.dual_tests, reference_calls);
    EXPECT_EQ(estimate.estimate, reference_estimate);
  }
}

TEST(AllotmentTables, MatchTaskQueriesExactly) {
  Rng rng(99);
  const Instance instance =
      generate_instance(WorkloadFamily::Mixed, 30, 48, rng);
  const InstanceAllotments tables(instance);
  for (int t = 0; t < instance.num_tasks(); ++t) {
    const MoldableTask& task = instance.task(t);
    // Probe deadlines around every breakpoint (the exact times, just below,
    // just above) plus extremes.
    std::vector<double> deadlines{0.0, task.min_time() * 0.5, 1e9};
    for (int k = 1; k <= task.max_procs(); ++k) {
      const double p = task.time(k);
      deadlines.push_back(p);
      deadlines.push_back(p * (1.0 - 1e-12));
      deadlines.push_back(p * (1.0 + 1e-12));
    }
    for (double d : deadlines) {
      EXPECT_EQ(tables.table(t).canonical(d),
                canonical_allotment_reference(task, d))
          << "task " << t << " deadline " << d;
      EXPECT_EQ(tables.table(t).min_work(d), task.min_work_allotment(d))
          << "task " << t << " deadline " << d;
    }
  }
}

TEST(AllotmentTables, TableBackedDualTestMatchesScanBased) {
  Rng rng(123);
  const Instance instance =
      generate_instance(WorkloadFamily::WeaklyParallel, 35, 24, rng);
  const InstanceAllotments tables(instance);
  const double lb = instance.total_min_work() / instance.procs();
  for (double factor : {0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 4.0}) {
    const double lambda = lb * factor;
    const DualTestResult scan = dual_test_reference(instance, lambda);
    DualTestWorkspace ws;
    DualTestResult table;
    dual_test_into(instance, lambda, tables, ws, table);
    EXPECT_EQ(scan.feasible, table.feasible) << "lambda " << lambda;
    EXPECT_EQ(scan.total_work, table.total_work) << "lambda " << lambda;
    if (scan.feasible) {
      ASSERT_EQ(scan.assignment.size(), table.assignment.size());
      for (std::size_t i = 0; i < scan.assignment.size(); ++i) {
        EXPECT_EQ(scan.assignment[i].shelf, table.assignment[i].shelf);
        EXPECT_EQ(scan.assignment[i].allotment, table.assignment[i].allotment);
      }
    }
  }
}

}  // namespace
}  // namespace moldsched
