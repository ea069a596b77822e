#include "reference/allotment_table_reference.hpp"

#include <algorithm>

namespace moldsched {

int canonical_allotment_reference(const MoldableTask& task,
                                  double deadline) noexcept {
  for (int k = task.min_procs(); k <= task.max_procs(); ++k) {
    if (task.times()[static_cast<std::size_t>(k) - 1] <= deadline) return k;
  }
  return 0;
}

AllotmentTable::AllotmentTable(const MoldableTask& task) {
  const int lo = task.min_procs();
  const int hi = task.max_procs();
  const auto count = static_cast<std::size_t>(hi - lo + 1);

  std::vector<int> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = lo + static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double ta = task.time(a);
    const double tb = task.time(b);
    if (ta != tb) return ta < tb;
    return a < b;
  });

  sorted_times_.resize(count);
  prefix_min_k_.resize(count);
  prefix_min_work_k_.resize(count);
  int best_k = order[0];
  int best_work_k = order[0];
  double best_work = best_work_k * task.time(best_work_k);
  for (std::size_t i = 0; i < count; ++i) {
    const int k = order[i];
    sorted_times_[i] = task.time(k);
    best_k = std::min(best_k, k);
    const double w = k * task.time(k);
    // Same tie-break as MoldableTask::min_work_allotment's ascending-k scan
    // with a strict `<`: equal work keeps the smaller allotment.
    if (w < best_work || (w == best_work && k < best_work_k)) {
      best_work = w;
      best_work_k = k;
    }
    prefix_min_k_[i] = best_k;
    prefix_min_work_k_[i] = best_work_k;
  }

  monotone_ = task.is_time_monotone(0.0) && task.is_work_monotone(0.0);
}

int AllotmentTable::canonical(double deadline) const noexcept {
  const auto it =
      std::upper_bound(sorted_times_.begin(), sorted_times_.end(), deadline);
  if (it == sorted_times_.begin()) return 0;
  return prefix_min_k_[static_cast<std::size_t>(it - sorted_times_.begin()) -
                       1];
}

int AllotmentTable::min_work(double deadline) const noexcept {
  const auto it =
      std::upper_bound(sorted_times_.begin(), sorted_times_.end(), deadline);
  if (it == sorted_times_.begin()) return 0;
  return prefix_min_work_k_
      [static_cast<std::size_t>(it - sorted_times_.begin()) - 1];
}

}  // namespace moldsched
