#include "tasks/time_grid.hpp"

#include <cmath>
#include <stdexcept>

namespace moldsched {

TimeGrid::TimeGrid(double cmax_estimate, double tmin)
    : cmax_(cmax_estimate), tmin_(tmin) {
  if (!(cmax_ > 0.0) || !(tmin_ > 0.0)) {
    throw std::invalid_argument("TimeGrid: cmax and tmin must be positive");
  }
  // An overflowing ratio would make K an out-of-range float-to-int cast.
  const double ratio = cmax_ / tmin_;
  if (!std::isfinite(ratio)) {
    throw std::invalid_argument("TimeGrid: cmax / tmin is not finite");
  }
  // tmin can exceed the estimate only through rounding slack in the dual
  // search; clamp K at zero so the grid stays well formed (tested before
  // the log, so an underflowed ratio of 0 never reaches the cast either).
  k_ = ratio < 1.0 ? 0 : static_cast<int>(std::floor(std::log2(ratio)));
}

double TimeGrid::t(int j) const {
  if (j < 0) throw std::invalid_argument("TimeGrid::t: negative index");
  return cmax_ * std::exp2(static_cast<double>(j - k_));
}

}  // namespace moldsched
