/// \file cmax_estimator.hpp
/// Binary search over the dual test: produces the C*max estimate that
/// drives the bi-criteria algorithm's batch sizes, the makespan lower bound
/// used to normalise every Cmax measurement in the experiments, and the
/// shelf partition/allotments consumed by the List-Graham baselines.

#pragma once

#include "dualapprox/dual_test.hpp"
#include "tasks/instance.hpp"

namespace moldsched {

struct CmaxEstimate {
  /// Smallest accepted guess — the paper's "approximate C*max".
  double estimate = 0.0;
  /// Valid lower bound on the optimal makespan: the larger of the classic
  /// bounds (total min-work / m, max over tasks of min time) and the
  /// largest refuted guess.
  double lower_bound = 0.0;
  /// Dual-test partition at `estimate` (shelf + allotment per task).
  DualTestResult partition;
  /// Number of dual_test invocations the search performed (regression
  /// anchor: the allotment-table precompute must not change the search
  /// trajectory).
  int dual_tests = 0;
};

/// Runs the search to relative precision `rel_eps` (the interval
/// [lower_bound, estimate] shrinks until estimate - lower_bound <=
/// rel_eps * estimate). Throws std::invalid_argument on an empty instance
/// or non-positive rel_eps.
[[nodiscard]] CmaxEstimate estimate_cmax(const Instance& instance,
                                         double rel_eps = 1e-4);

/// The same search with caller-provided allotment tables (built once,
/// shared with the DEMT batch loop) and a caller-owned dual-test
/// workspace; the result lands in `out`, whose partition buffer is reused
/// across calls (it doubles as the accepted-guess rotation buffer together
/// with ws.scratch). Identical results and search trajectory to the
/// wrapper above — dual_tests is the regression anchor. Zero heap
/// allocation once `ws` and `out` are warm — this is what
/// demt_schedule_into calls per request.
void estimate_cmax_into(const Instance& instance, double rel_eps,
                        const InstanceAllotments& tables,
                        DualTestWorkspace& ws, CmaxEstimate& out);

/// Reference search: same trajectory driven entirely by the scalar
/// dual_test_reference (scan-based lookups, budget-outer DP). The
/// differential suite asserts estimate/lower_bound/partition/dual_tests all
/// match the vectorized search bit-for-bit. Allocates freely; test use
/// only.
[[nodiscard]] CmaxEstimate estimate_cmax_reference(const Instance& instance,
                                                   double rel_eps = 1e-4);

}  // namespace moldsched
