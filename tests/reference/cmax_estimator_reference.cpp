#include "reference/cmax_estimator_reference.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "reference/dual_test_reference.hpp"

namespace moldsched {

namespace {

void validate_search_args(const Instance& instance, double rel_eps) {
  if (instance.empty()) {
    throw std::invalid_argument("estimate_cmax: empty instance");
  }
  if (!(rel_eps > 0.0)) {
    throw std::invalid_argument("estimate_cmax: rel_eps must be positive");
  }
}

double combinatorial_lower_bound(const Instance& instance) {
  // The machine must absorb the minimal total work, and every task needs at
  // least its fastest execution time.
  double lb = instance.total_min_work() / instance.procs();
  for (const auto& task : instance.tasks()) {
    lb = std::max(lb, task.min_time());
  }
  return lb;
}

}  // namespace

CmaxSearchReference estimate_cmax_reference(const Instance& instance,
                                            double rel_eps) {
  validate_search_args(instance, rel_eps);

  CmaxSearchReference out;
  DualTestResult trial;
  const auto test = [&](double lambda) -> DualTestResult& {
    ++out.dual_tests;
    trial = dual_test_reference(instance, lambda);
    return trial;
  };

  const double lb = combinatorial_lower_bound(instance);
  out.lower_bound = lb;

  if (test(lb).feasible) {
    out.estimate = lb;
    out.partition = std::move(trial);
    return out;
  }

  double lo = lb;
  double hi = lb * 2.0;
  while (!test(hi).feasible) {
    lo = hi;
    hi *= 2.0;
    if (hi > lb * 1e9 * 2.0) {
      throw std::logic_error("estimate_cmax: dual test never accepts");
    }
  }
  out.partition = trial;

  while (hi - lo > rel_eps * hi) {
    const double mid = 0.5 * (lo + hi);
    // Adjacent doubles: neither bound can move again.
    if (!(lo < mid && mid < hi)) break;
    if (test(mid).feasible) {
      hi = mid;
      out.partition = trial;
    } else {
      lo = mid;
    }
  }

  out.estimate = hi;
  out.lower_bound = std::max(lb, lo);
  return out;
}

}  // namespace moldsched
