#include "trace/slo.hpp"

#include <algorithm>
#include <stdexcept>

namespace moldsched {

SloPercentiles percentiles_of(std::vector<double>& samples) {
  SloPercentiles out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const auto last = samples.size() - 1;
  const auto at = [&](double q) {
    const auto index = static_cast<std::size_t>(q * static_cast<double>(last));
    return samples[std::min(index, last)];
  };
  out.p50 = at(0.50);
  out.p90 = at(0.90);
  out.p99 = at(0.99);
  out.max = samples.back();
  return out;
}

void SloAccumulator::open(int lanes, std::size_t expected_jobs) {
  if (lanes < 1) {
    throw std::invalid_argument("SloAccumulator: lanes must be >= 1");
  }
  const auto count = static_cast<std::size_t>(lanes);
  latency_.resize(count);
  stretch_.resize(count);
  for (std::size_t lane = 0; lane < count; ++lane) {
    latency_[lane].clear();
    latency_[lane].reserve(expected_jobs);
    stretch_[lane].clear();
    stretch_[lane].reserve(expected_jobs);
  }
  total_ = 0;
}

void SloAccumulator::record(int lane, double release, double min_time,
                            double completion) {
  if (latency_.empty()) {
    throw std::logic_error("SloAccumulator: record before open");
  }
  const auto index = static_cast<std::size_t>(
      std::clamp(lane, 0, static_cast<int>(latency_.size()) - 1));
  const double latency = completion - release;
  latency_[index].push_back(latency);
  stretch_[index].push_back(min_time > 0.0 ? latency / min_time : 0.0);
  ++total_;
}

void SloAccumulator::report(double target_stretch, SloReport& out) {
  if (!(target_stretch > 0.0)) {
    throw std::invalid_argument(
        "SloAccumulator: target_stretch must be > 0");
  }
  out.lanes.clear();
  out.total_jobs = total_;
  out.target_stretch = target_stretch;
  std::int64_t attained_total = 0;
  for (std::size_t lane = 0; lane < latency_.size(); ++lane) {
    SloLaneReport row;
    row.lane = static_cast<int>(lane);
    row.jobs = static_cast<std::int64_t>(latency_[lane].size());
    double latency_sum = 0.0;
    for (const double l : latency_[lane]) latency_sum += l;
    std::int64_t attained = 0;
    for (const double s : stretch_[lane]) {
      if (s <= target_stretch) ++attained;
    }
    attained_total += attained;
    row.mean_latency =
        row.jobs > 0 ? latency_sum / static_cast<double>(row.jobs) : 0.0;
    row.attainment = row.jobs > 0
                         ? static_cast<double>(attained) /
                               static_cast<double>(row.jobs)
                         : 1.0;
    row.latency = percentiles_of(latency_[lane]);
    row.stretch = percentiles_of(stretch_[lane]);
    out.lanes.push_back(row);
  }
  out.attainment = total_ > 0 ? static_cast<double>(attained_total) /
                                    static_cast<double>(total_)
                              : 1.0;
}

}  // namespace moldsched
