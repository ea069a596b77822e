/// \file stats.hpp
/// Streaming statistics and the ratio-of-sums aggregate used throughout the
/// experimental evaluation.

#pragma once

#include <cstddef>
#include <limits>
#include <string>

namespace moldsched {

/// Numerically-stable streaming moments (Welford) plus min/max.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double sum() const noexcept { return sum_; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Ratio-of-sums performance aggregate, following Jain ("The Art of Computer
/// Systems Performance Analysis", the paper's reference [15]): the average
/// competitive ratio over a set of runs is sum(values) / sum(lower bounds),
/// not the mean of per-run ratios. Per-run ratios are still tracked to
/// report the min/max envelope the paper plots.
class RatioOfSums {
 public:
  void add(double value, double reference);

  [[nodiscard]] double ratio() const noexcept {
    return denominator_ > 0.0 ? numerator_ / denominator_ : 0.0;
  }
  [[nodiscard]] double min_ratio() const noexcept { return per_run_.min(); }
  [[nodiscard]] double max_ratio() const noexcept { return per_run_.max(); }
  [[nodiscard]] std::size_t count() const noexcept { return per_run_.count(); }

  void merge(const RatioOfSums& other) noexcept;

 private:
  double numerator_ = 0.0;
  double denominator_ = 0.0;
  RunningStats per_run_;
};

}  // namespace moldsched
