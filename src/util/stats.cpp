#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace moldsched {

void RunningStats::add(double x) noexcept {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RatioOfSums::add(double value, double reference) {
  if (reference <= 0.0) {
    throw std::invalid_argument("RatioOfSums: reference must be positive");
  }
  numerator_ += value;
  denominator_ += reference;
  per_run_.add(value / reference);
}

void RatioOfSums::merge(const RatioOfSums& other) noexcept {
  numerator_ += other.numerator_;
  denominator_ += other.denominator_;
  per_run_.merge(other.per_run_);
}

}  // namespace moldsched
