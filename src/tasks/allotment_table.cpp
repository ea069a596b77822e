#include "tasks/allotment_table.hpp"

#include <algorithm>
#include <limits>

namespace moldsched {

int InstanceAllotments::View::canonical(double deadline) const noexcept {
  const double* end = times_ + count_;
  const double* it = std::upper_bound(times_, end, deadline);
  if (it == times_) return 0;
  return min_k_[(it - times_) - 1];
}

int InstanceAllotments::View::min_work(double deadline) const noexcept {
  const double* end = times_ + count_;
  const double* it = std::upper_bound(times_, end, deadline);
  if (it == times_) return 0;
  return min_work_k_[(it - times_) - 1];
}

void InstanceAllotments::build(const Instance& instance) {
  const int n = instance.num_tasks();
  begin_.resize(static_cast<std::size_t>(n) + 1);
  monotone_.resize(static_cast<std::size_t>(n));

  int total = 0;
  begin_[0] = 0;
  for (int t = 0; t < n; ++t) {
    const MoldableTask& task = instance.task(t);
    total += task.max_procs() - task.min_procs() + 1;
    begin_[static_cast<std::size_t>(t) + 1] = total;
  }
  times_.resize(static_cast<std::size_t>(total));
  min_k_.resize(static_cast<std::size_t>(total));
  min_work_k_.resize(static_cast<std::size_t>(total));

  for (int t = 0; t < n; ++t) {
    const MoldableTask& task = instance.task(t);
    // tv[k - 1] is time(k); k >= 1 throughout, so no index goes below 0.
    const double* tv = task.times().data();
    const int lo = task.min_procs();
    const int hi = task.max_procs();
    const int base = begin_[static_cast<std::size_t>(t)];
    const int count = begin_[static_cast<std::size_t>(t) + 1] - base;

    // One pass for both flags: the comparisons of is_time_monotone(0.0)
    // and is_work_monotone(0.0) (a zero tolerance adds nothing).
    bool time_monotone = true;
    bool work_monotone = true;
    for (int k = lo + 1; k <= hi; ++k) {
      if (tv[k - 1] > tv[k - 2]) time_monotone = false;
      if (k * tv[k - 1] < (k - 1) * tv[k - 2]) work_monotone = false;
    }
    monotone_[static_cast<std::size_t>(t)] =
        (time_monotone && work_monotone) ? 1 : 0;

    // Allotments in (time asc, k asc) order; order_ is reused scratch.
    order_.resize(static_cast<std::size_t>(count));
    if (time_monotone) {
      // Times never rise with k, so descending k is already ascending time
      // and ties form contiguous plateaus: emit each plateau in ascending
      // k, highest plateau (smallest time) first.
      int i = 0;
      for (int k = hi; k >= lo;) {
        int first = k;
        while (first > lo && tv[first - 2] == tv[k - 1]) --first;
        for (int j = first; j <= k; ++j) {
          order_[static_cast<std::size_t>(i++)] = j;
        }
        k = first - 1;
      }
    } else {
      for (int i = 0; i < count; ++i) {
        order_[static_cast<std::size_t>(i)] = lo + i;
      }
      std::sort(order_.begin(), order_.end(), [tv](int a, int b) {
        const double ta = tv[a - 1];
        const double tb = tv[b - 1];
        if (ta != tb) return ta < tb;
        return a < b;
      });
    }

    // Prefix argmins over that order, written into the shared pools. Equal
    // work keeps the smaller allotment, as MoldableTask::min_work_allotment's
    // ascending-k scan with a strict `<` does.
    double* times = times_.data() + base;
    int* min_k = min_k_.data() + base;
    int* min_work_k = min_work_k_.data() + base;
    int best_k = order_[0];
    int best_work_k = order_[0];
    double best_work = best_work_k * tv[best_work_k - 1];
    for (int i = 0; i < count; ++i) {
      const int k = order_[static_cast<std::size_t>(i)];
      times[i] = tv[k - 1];
      best_k = std::min(best_k, k);
      const double w = k * tv[k - 1];
      if (w < best_work || (w == best_work && k < best_work_k)) {
        best_work = w;
        best_work_k = k;
      }
      min_k[i] = best_k;
      min_work_k[i] = best_work_k;
    }
  }
}

double InstanceAllotments::tmin() const noexcept {
  // Each row's first entry is its task's fastest allowed time.
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < monotone_.size(); ++t) {
    best = std::min(best, times_[static_cast<std::size_t>(begin_[t])]);
  }
  return best;
}

}  // namespace moldsched
