#include "tasks/moldable_task.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace moldsched {

MoldableTask::MoldableTask(std::vector<double> times, double weight,
                           int min_procs)
    : times_(std::move(times)), weight_(weight), min_procs_(min_procs) {
  if (times_.empty()) {
    throw std::invalid_argument("MoldableTask: empty time vector");
  }
  for (double t : times_) {
    if (!(t > 0.0) || !std::isfinite(t)) {
      throw std::invalid_argument("MoldableTask: times must be positive");
    }
  }
  if (!(weight_ > 0.0) || !std::isfinite(weight_)) {
    throw std::invalid_argument("MoldableTask: weight must be positive");
  }
  if (min_procs_ < 1 || min_procs_ > max_procs()) {
    throw std::invalid_argument("MoldableTask: min_procs out of range");
  }
}

double MoldableTask::time(int k) const {
  if (k < 1 || k > max_procs()) {
    throw std::out_of_range("MoldableTask::time: k out of range");
  }
  return times_[static_cast<std::size_t>(k) - 1];
}

double MoldableTask::min_time() const noexcept {
  double best = std::numeric_limits<double>::infinity();
  for (int k = min_procs_; k <= max_procs(); ++k) {
    best = std::min(best, times_[static_cast<std::size_t>(k) - 1]);
  }
  return best;
}

double MoldableTask::min_work() const noexcept {
  double best = std::numeric_limits<double>::infinity();
  for (int k = min_procs_; k <= max_procs(); ++k) {
    best = std::min(best, k * times_[static_cast<std::size_t>(k) - 1]);
  }
  return best;
}

int MoldableTask::min_work_procs() const noexcept {
  double best = std::numeric_limits<double>::infinity();
  int best_k = min_procs_;
  for (int k = min_procs_; k <= max_procs(); ++k) {
    const double w = k * times_[static_cast<std::size_t>(k) - 1];
    if (w < best) {
      best = w;
      best_k = k;
    }
  }
  return best_k;
}

int MoldableTask::min_work_allotment(double deadline) const noexcept {
  int best_k = 0;
  double best = std::numeric_limits<double>::infinity();
  for (int k = min_procs_; k <= max_procs(); ++k) {
    const double t = times_[static_cast<std::size_t>(k) - 1];
    if (t > deadline) continue;
    if (k * t < best) {
      best = k * t;
      best_k = k;
    }
  }
  return best_k;
}

bool MoldableTask::is_time_monotone(double tol) const noexcept {
  for (int k = min_procs_ + 1; k <= max_procs(); ++k) {
    if (time(k) > time(k - 1) + tol) return false;
  }
  return true;
}

bool MoldableTask::is_work_monotone(double tol) const noexcept {
  for (int k = min_procs_ + 1; k <= max_procs(); ++k) {
    if (work(k) + tol < work(k - 1)) return false;
  }
  return true;
}

void MoldableTask::enforce_monotonicity() {
  for (std::size_t k = 1; k < times_.size(); ++k) {
    const double prev = times_[k - 1];
    // Upper clamp keeps time non-increasing; lower clamp keeps work
    // (k+1)*t_{k+1} >= k*t_k non-decreasing. The interval is non-empty
    // because (k)/(k+1) * prev <= prev.
    const double lo = prev * static_cast<double>(k) / static_cast<double>(k + 1);
    times_[k] = std::clamp(times_[k], lo, prev);
  }
}

void MoldableTask::assign_truncated(const MoldableTask& src, int procs) {
  const int count = std::min(src.max_procs(), procs);
  if (count < src.min_procs_) {
    throw std::invalid_argument(
        "MoldableTask::assign_truncated: fewer processors than min_procs");
  }
  times_.assign(src.times_.begin(), src.times_.begin() + count);
  weight_ = src.weight_;
  min_procs_ = src.min_procs_;
}

MoldableTask MoldableTask::from_speedup(
    double seq_time, int max_procs, double weight,
    const std::function<double(int)>& speedup) {
  if (max_procs < 1) {
    throw std::invalid_argument("from_speedup: max_procs must be >= 1");
  }
  if (!(seq_time > 0.0)) {
    throw std::invalid_argument("from_speedup: seq_time must be positive");
  }
  std::vector<double> times(static_cast<std::size_t>(max_procs));
  for (int k = 1; k <= max_procs; ++k) {
    const double s = speedup(k);
    if (!(s > 0.0)) {
      throw std::invalid_argument("from_speedup: speedup must be positive");
    }
    times[static_cast<std::size_t>(k) - 1] = seq_time / s;
  }
  MoldableTask task(std::move(times), weight);
  task.enforce_monotonicity();
  return task;
}

}  // namespace moldsched
