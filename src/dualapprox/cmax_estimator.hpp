/// \file cmax_estimator.hpp
/// Binary search over the dual test: produces the C*max estimate that
/// drives the bi-criteria algorithm's batch sizes and the makespan lower
/// bound used to normalise every Cmax measurement in the experiments. The
/// search reads only each probe's verdict from dual_test_accepts, which
/// settles most guesses with O(n) cheapest-choice screens and runs the DP
/// without its pick matrix on the rest. A caller that needs the shelf
/// partition (the List-Graham baselines) runs dual_test_into once at
/// `estimate`, the last accepted guess, and gets the search's partition.

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
  /// Number of dual_test invocations the search performed (regression
  /// anchor: the allotment-table precompute must not change the search
  /// trajectory).
  int dual_tests = 0;
};

/// Runs the search to relative precision `rel_eps` (the interval
/// [lower_bound, estimate] shrinks until estimate - lower_bound <=
/// rel_eps * estimate, or until no double lies strictly between the two,
/// whichever comes first). Throws std::invalid_argument on an empty
/// instance or non-positive rel_eps.
[[nodiscard]] CmaxEstimate estimate_cmax(const Instance& instance,
                                         double rel_eps = 1e-4);

/// The same search with caller-provided allotment tables (built once,
/// shared with the DEMT batch loop) and a caller-owned dual-test
/// workspace; the result lands in `out`. Every probe runs
/// dual_test_accepts inside `ws`, its only buffer (the search never sizes
/// `ws.pick`). Identical results and search trajectory to the wrapper
/// above — dual_tests is the regression anchor. Zero heap allocation once
/// `ws` is warm — this is what demt_schedule_into calls per request. The differential suite locks the
/// search to the scalar one in tests/reference/cmax_estimator_reference.hpp.
void estimate_cmax_into(const Instance& instance, double rel_eps,
                        const InstanceAllotments& tables,
                        DualTestWorkspace& ws, CmaxEstimate& out);

}  // namespace moldsched
