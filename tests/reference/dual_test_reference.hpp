/// \file dual_test_reference.hpp
/// Test-only oracle for the two-shelf dual test (dualapprox/dual_test.hpp):
/// the original scalar DP (budget-outer loop, per-cell option scan with
/// early break and conditional updates) over the O(max_procs) scan-based
/// allotment lookups of MoldableTask. The differential suite locks the
/// library's table-backed row-sweep kernel, dual_test_into, to it.

#pragma once

#include "dualapprox/dual_test.hpp"
#include "tasks/instance.hpp"

namespace moldsched {

/// Run the dual test for guess `lambda` (> 0, else std::invalid_argument)
/// in fresh buffers. Same result fields and semantics as dual_test_into.
[[nodiscard]] DualTestResult dual_test_reference(const Instance& instance,
                                                 double lambda);

}  // namespace moldsched
