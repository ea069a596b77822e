/// \file time_grid.hpp
/// The geometric time grid shared by the bi-criteria algorithm (batch
/// boundaries, §3.2) and the minsum LP lower bound (interval boundaries,
/// §3.3):
///
///   K = floor(log2(C*max / tmin)),   t_j = C*max / 2^(K-j)
///
/// so t_0 is the smallest batch in which at least one task fits
/// (tmin <= t_0 < 2*tmin) and t_{K+1} = 2*C*max. The grid extends past K
/// (doubling forever) because the knapsack selection may leave tasks for
/// extra batches.

#pragma once

namespace moldsched {

class TimeGrid {
 public:
  /// Throws std::invalid_argument unless 0 < tmin, 0 < cmax_estimate and
  /// cmax_estimate / tmin is finite.
  TimeGrid(double cmax_estimate, double tmin);

  /// Number of paper batches minus one: batches run j = 0..K (and beyond).
  [[nodiscard]] int K() const noexcept { return k_; }

  /// Boundary t_j = C*max * 2^(j-K), defined for every j >= 0.
  [[nodiscard]] double t(int j) const;

  /// Batch j occupies [t(j), t(j+1)), so its length equals t(j).
  [[nodiscard]] double batch_start(int j) const { return t(j); }
  [[nodiscard]] double batch_end(int j) const { return t(j + 1); }
  [[nodiscard]] double batch_length(int j) const { return t(j); }

  [[nodiscard]] double cmax_estimate() const noexcept { return cmax_; }
  [[nodiscard]] double tmin() const noexcept { return tmin_; }

 private:
  double cmax_;
  double tmin_;
  int k_;
};

}  // namespace moldsched
