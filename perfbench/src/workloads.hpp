/// \file workloads.hpp
/// The system under test and the three traffic mixes that drive it.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/decision_cache.hpp"
#include "core/policy.hpp"
#include "harness.hpp"
#include "serve/async_scheduler.hpp"

namespace perfbench {

/// The one configuration every workload runs: one metrics-only
/// AsyncScheduler shard with a DecisionCache attached and DemtPolicy at
/// library defaults. The flush deadline is set so far out that it never
/// fires: batches form only by the size trigger or an explicit flush, so
/// batch composition is the same in every run.
struct System {
  moldsched::DemtPolicy policy;
  moldsched::DecisionCache cache;
  moldsched::AsyncScheduler async;
  System();
};

/// Operations attempted and failed (rejected, Failed, or mismatched).
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  void fail(std::string why);
};

/// Sums of achieved objectives and of the benchmark's lower bounds.
struct Quality {
  double cmax = 0.0;
  double cmax_bound = 0.0;
  double minsum = 0.0;
  double minsum_bound = 0.0;
  [[nodiscard]] double cmax_ratio() const {
    return cmax_bound > 0.0 ? cmax / cmax_bound : 0.0;
  }
  [[nodiscard]] double minsum_ratio() const {
    return minsum_bound > 0.0 ? minsum / minsum_bound : 0.0;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything after input generation that set-up time covers
  /// (trace_stream also parses and compiles its log here), through the
  /// fixed warm-up.
  virtual void setup(System& system, Tally& tally) = 0;
  /// Generate round `round`'s inputs (untimed, deterministic in the seed).
  virtual void prepare_round(int round) = 0;
  /// Rounds in the timed phase for a run of about `seconds`: a fixed count
  /// of work, so every run of a seed does the same work whatever its speed.
  [[nodiscard]] virtual int timed_rounds(double seconds) const = 0;
  /// The timed closed loop over the prepared round; returns the tasks or
  /// arrivals placed. Call and generation times go to `samples` when
  /// non-null.
  virtual std::int64_t serve_round(System& system, RoundSamples* samples,
                                   Tally& tally, Tracer* tracer) = 0;
  /// Check the round's outputs against their references (untimed).
  virtual void check_round(int round, Tally& tally) = 0;
  /// Quality over a fixed, seed-determined set of rounds.
  [[nodiscard]] virtual Quality quality() const = 0;
  /// The traced run: per-layer metrics for about `seconds` of rounds.
  virtual std::vector<Metric> trace_layers(System& system, Tracer& tracer,
                                           double seconds, Tally& tally) = 0;
};

/// Throws std::invalid_argument on an unknown workload name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace perfbench
