/// \file dual_test.hpp
/// Two-shelf dual-approximation test for the moldable makespan problem
/// (Mounié–Rapine–Trystram; the paper's references [7]/[17]).
///
/// Given a makespan guess `lambda`, every task is assigned its canonical
/// allotment for either shelf 1 (deadline lambda) or shelf 2 (deadline
/// lambda/2). A knapsack chooses the partition minimising total work under
/// the constraint that shelf-1 allotments sum to at most m processors
/// (tasks that cannot run within lambda/2 on any allotment are forced to
/// shelf 1). The guess is REJECTED — proving OPT > lambda — when
///
///  * some task cannot run within lambda at all, or
///  * shelf-1 demand cannot fit in m processors, or
///  * the minimised total work exceeds m * lambda.
///
/// Rejection is a certificate (any schedule of length lambda induces a
/// partition satisfying all three conditions), so the largest rejected
/// lambda is a valid makespan lower bound. The verdict alone drives the
/// C*max search (cmax_estimator.hpp) and so the batch sizes of the
/// bi-criteria algorithm; the partition at the accepted estimate gives the
/// List-Graham baselines their allotments.

#pragma once

#include <cstdint>
#include <vector>

#include "tasks/allotment_table.hpp"
#include "tasks/instance.hpp"

namespace moldsched {

enum class Shelf { Large = 1, Small = 2 };

struct ShelfAssignment {
  Shelf shelf = Shelf::Large;
  int allotment = 0;  ///< processors; 0 = infeasible marker
};

struct DualTestResult {
  bool feasible = false;     ///< guess accepted (not refuted)
  double total_work = 0.0;   ///< minimised total work of the partition
  /// Per-task shelf and allotment; meaningful only when feasible.
  std::vector<ShelfAssignment> assignment;
};

/// Reusable buffers for repeated dual tests: the per-task shelf choice
/// pools, the DP rows, and the flat (task x budget) pick matrix all keep
/// their capacity across calls, so the bisection in estimate_cmax — which
/// runs dozens of tests per schedule — performs no heap allocation after
/// its first test at a given problem size. Only dual_test_into reads or
/// sizes the pick matrix; dual_test_accepts never touches it. Reuse never
/// changes results: the workspace carries capacity, not state, between
/// calls.
struct DualTestWorkspace {
  /// Shelf-1 Pareto options pooled across tasks: task i's options are
  /// opt_procs/opt_work[opt_begin[i] .. opt_begin[i+1]).
  std::vector<int> opt_procs;
  std::vector<double> opt_work;
  std::vector<int> opt_begin;
  std::vector<double> shelf2_work;  ///< per task; +inf when infeasible
  std::vector<int> shelf2_procs;    ///< per task
  std::vector<double> dp;           ///< DP row over the processor budget
  std::vector<double> next;         ///< DP row being built
  /// n x (m+1) option picks, row-major; dual_test_into only.
  std::vector<std::int16_t> pick;
};

/// Run the dual test for guess `lambda` (> 0, else std::invalid_argument)
/// entirely inside `ws`, writing into `out` (whose assignment buffer reuses
/// its capacity). The precomputed allotment `tables` make canonical /
/// min-work lookups cost O(log max_procs) instead of O(max_procs), and for
/// strictly monotone tasks the shelf-1 Pareto set collapses to the single
/// canonical allotment without a scan. The scan-based scalar DP it is
/// locked to lives in the test-only reference library
/// (tests/reference/dual_test_reference.hpp).
void dual_test_into(const Instance& instance, double lambda,
                    const InstanceAllotments& tables, DualTestWorkspace& ws,
                    DualTestResult& out);

/// The verdict of dual_test_into — its `feasible` — from the same shelf
/// options inside `ws`, without the partition. After the options are
/// built, two exact O(n) screens over each task's cheapest choice decide
/// most guesses: their in-order work sum S is a bit-exact lower bound on
/// the DP's minimised work (reject when it is infinite or over budget),
/// and equals it when the cheapest choices' shelf-1 processors fit in m
/// (accept). The guesses left run the same DP without recording picks.
/// This is what estimate_cmax's bisection calls per guess, with tables
/// built once for the whole search; the workspace is its only buffer.
[[nodiscard]] bool dual_test_accepts(const Instance& instance, double lambda,
                                     const InstanceAllotments& tables,
                                     DualTestWorkspace& ws);

}  // namespace moldsched
