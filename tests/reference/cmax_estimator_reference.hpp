/// \file cmax_estimator_reference.hpp
/// Test-only oracle for the C*max search (dualapprox/cmax_estimator.hpp):
/// the same exponential search and bisection, driven by the scalar
/// dual_test_reference, with the combinatorial lower bound scanned off the
/// tasks. The differential suite asserts that estimate, lower_bound,
/// partition and dual_tests all match the library search bit-for-bit.

#pragma once

#include "dualapprox/cmax_estimator.hpp"
#include "tasks/instance.hpp"

namespace moldsched {

/// Runs the search to relative precision `rel_eps`, or until no double
/// lies strictly between the bounds. Throws std::invalid_argument on an
/// empty instance or non-positive rel_eps. Allocates freely.
[[nodiscard]] CmaxEstimate estimate_cmax_reference(const Instance& instance,
                                                   double rel_eps = 1e-4);

}  // namespace moldsched
