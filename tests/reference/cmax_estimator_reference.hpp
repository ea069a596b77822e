/// \file cmax_estimator_reference.hpp
/// Test-only oracle for the C*max search (dualapprox/cmax_estimator.hpp):
/// the same exponential search and bisection, driven by the scalar
/// dual_test_reference, with the combinatorial lower bound scanned off the
/// tasks. It also keeps the partition of every accepted probe. The
/// differential suite asserts that estimate, lower_bound and dual_tests
/// match the library search bit-for-bit, and that dual_test_into at the
/// library's estimate rebuilds the partition kept here.

#pragma once

#include "dualapprox/cmax_estimator.hpp"
#include "dualapprox/dual_test.hpp"
#include "tasks/instance.hpp"

namespace moldsched {

/// The library's CmaxEstimate fields plus the dual-test partition of the
/// last accepted guess (shelf + allotment per task).
struct CmaxSearchReference {
  double estimate = 0.0;
  double lower_bound = 0.0;
  DualTestResult partition;
  int dual_tests = 0;
};

/// Runs the search to relative precision `rel_eps`, or until no double
/// lies strictly between the bounds. Throws std::invalid_argument on an
/// empty instance or non-positive rel_eps. Allocates freely.
[[nodiscard]] CmaxSearchReference estimate_cmax_reference(
    const Instance& instance, double rel_eps = 1e-4);

}  // namespace moldsched
