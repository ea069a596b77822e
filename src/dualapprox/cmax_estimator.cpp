#include "dualapprox/cmax_estimator.hpp"

#include <algorithm>
#include <stdexcept>

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

/// The classic makespan bounds — the machine must absorb the minimal total
/// work, and every task needs at least its fastest execution time — read
/// off the tables instead of rescanning every time vector: a row's first
/// time is the task's min_time(), and the min-work k of its last row gives
/// min_work() as the same k * time(k). Same doubles, summed in the same
/// task order as Instance::total_min_work.
double combinatorial_lower_bound(const Instance& instance,
                                 const InstanceAllotments& tables) {
  double total_min_work = 0.0;
  double longest = 0.0;
  for (int t = 0; t < instance.num_tasks(); ++t) {
    const InstanceAllotments::View row = tables.table(t);
    const int k = row.min_work_k_at(row.size() - 1);
    total_min_work += k * instance.task(t).times().data()[k - 1];
    longest = std::max(longest, row.time_at(0));
  }
  return std::max(total_min_work / instance.procs(), longest);
}

}  // namespace

void estimate_cmax_into(const Instance& instance, double rel_eps,
                        const InstanceAllotments& tables,
                        DualTestWorkspace& ws, CmaxEstimate& out) {
  validate_search_args(instance, rel_eps);

  out.estimate = 0.0;
  out.lower_bound = 0.0;
  out.dual_tests = 0;

  const auto accepts = [&](double lambda) {
    ++out.dual_tests;
    return dual_test_accepts(instance, lambda, tables, ws);
  };

  const double lb = combinatorial_lower_bound(instance, tables);
  out.lower_bound = lb;

  // If the dual test already accepts the combinatorial bound, it is also
  // the estimate — no schedule can beat it.
  if (accepts(lb)) {
    out.estimate = lb;
    return;
  }

  // Exponential search for an accepted guess, then bisection. `lo` is
  // always rejected, `hi` always accepted.
  double lo = lb;
  double hi = lb * 2.0;
  while (!accepts(hi)) {
    lo = hi;
    hi *= 2.0;
    if (hi > lb * 1e9 * 2.0) {
      throw std::logic_error("estimate_cmax: dual test never accepts");
    }
  }

  while (hi - lo > rel_eps * hi) {
    const double mid = 0.5 * (lo + hi);
    // Adjacent doubles (a rel_eps below the spacing of doubles near hi):
    // mid equals a bound, so neither bound can move again.
    if (!(lo < mid && mid < hi)) break;
    if (accepts(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }

  out.estimate = hi;
  out.lower_bound = std::max(lb, lo);
}

CmaxEstimate estimate_cmax(const Instance& instance, double rel_eps) {
  if (instance.empty()) {
    throw std::invalid_argument("estimate_cmax: empty instance");
  }
  const InstanceAllotments tables(instance);
  DualTestWorkspace ws;
  CmaxEstimate out;
  estimate_cmax_into(instance, rel_eps, tables, ws, out);
  return out;
}

}  // namespace moldsched
