/// \file slo.hpp
/// Per-lane SLO accounting for trace replay: latency (flow time),
/// stretch (flow over fastest possible runtime), and deadline attainment
/// (fraction of jobs whose completion meets release + target_stretch *
/// min_time), aggregated per lane (trace/tape.hpp assigns lanes from SWF
/// queue ids) with p50/p90/p99/max percentiles.
///
/// Allocation contract: `open` sizes every per-lane buffer once from the
/// tape's job count; `record` then appends within capacity — the replay
/// loop adds one sample per decided job without any heap allocation
/// (gated by the Alloc.TraceArrivalsWithSlo test, which replays with an
/// accumulator active). `report` sorts the pooled buffers in
/// place — call it after the replay, not inside it. Percentiles use the
/// benches' shared convention (percentiles_of).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace moldsched {

/// Percentile row of one metric.
struct SloPercentiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// The benches' one percentile convention: sort `samples` in place and
/// read index q * (n - 1) for q in {0.50, 0.90, 0.99}, plus the maximum.
/// An empty sample set yields all zeros.
[[nodiscard]] SloPercentiles percentiles_of(std::vector<double>& samples);

/// Aggregated SLO numbers of one lane.
struct SloLaneReport {
  int lane = 0;
  std::int64_t jobs = 0;
  SloPercentiles latency;      ///< completion - release
  SloPercentiles stretch;      ///< latency / min_time
  double mean_latency = 0.0;
  double attainment = 1.0;     ///< fraction with stretch <= target
};

/// Whole-replay SLO report: one row per lane plus machine-wide totals.
struct SloReport {
  std::vector<SloLaneReport> lanes;
  std::int64_t total_jobs = 0;
  double target_stretch = 0.0;  ///< the deadline rule the report used
  double attainment = 1.0;      ///< job-weighted across lanes
};

/// Accumulates (latency, stretch) samples per lane during a replay and
/// reduces them to an SloReport afterwards. Reusable: open() resets
/// counts and keeps capacity.
class SloAccumulator {
 public:
  /// Start a run over `lanes` lanes, reserving room for `expected_jobs`
  /// samples per lane so record() never allocates during the replay.
  /// Throws std::invalid_argument on lanes < 1.
  void open(int lanes, std::size_t expected_jobs);

  /// Add one decided job: lane (clamped into range), its release, its
  /// fastest possible runtime (> 0; the stretch denominator), and its
  /// completion time. Allocation-free within the open() reservation.
  void record(int lane, double release, double min_time, double completion);

  [[nodiscard]] int lanes() const noexcept {
    return static_cast<int>(latency_.size());
  }
  [[nodiscard]] std::int64_t total_recorded() const noexcept {
    return total_;
  }

  /// Reduce the accumulated samples into `out` using the deadline rule
  /// completion <= release + target_stretch * min_time. Sorts the pooled
  /// sample buffers in place (record() must not run after report() in the
  /// same run). Throws std::invalid_argument on target_stretch <= 0.
  void report(double target_stretch, SloReport& out);

 private:
  std::vector<std::vector<double>> latency_;  ///< per lane
  std::vector<std::vector<double>> stretch_;  ///< per lane, parallel
  std::int64_t total_ = 0;
};

}  // namespace moldsched
