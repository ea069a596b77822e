/// \file harness.hpp
/// Measurement plumbing shared by the benchmark's workloads: a steady
/// clock, an in-memory span tracer, sample statistics, a forwarding policy
/// that times each batch decision, the benchmark's own lower bounds, and
/// the result line. Nothing here changes what the library decides.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "sim/stream.hpp"
#include "tasks/instance.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One timed interval of the traced run: `parent` indexes the span that
/// was open when this one began (-1 at top level).
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;
};

/// Per-name totals over recorded spans; self time is a span's duration
/// minus the durations of its direct children.
struct SpanTotals {
  std::int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::vector<double> durations_ms;
  [[nodiscard]] double mean_ms() const {
    return count > 0 ? total_ms / static_cast<double>(count) : 0.0;
  }
};

/// Records spans on one thread (the benchmark's client thread). A null
/// Tracer* means "untraced": Scope then costs one branch.
class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }
  int open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now_ns(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  /// Totals for every span named `name`.
  [[nodiscard]] SpanTotals totals(const std::string& name) const;
  /// Write every span as one JSON object per line. Returns false when the
  /// file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->open(name) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// What an untraced round records, in serving order. Every round of a run
/// has the same slots: call i (and generation g) does the same kind of work
/// in every round, so each slot can be compared with itself across rounds.
struct RoundSamples {
  std::vector<double> latency_ms;  ///< per call
  std::vector<double> group_ms;    ///< per generation, first submit to last take
  void clear() {
    latency_ms.clear();
    group_ms.clear();
  }
};

/// Linear-interpolated quantile of `values` (q in [0, 1]); sorts a copy.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set size of this process, in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Forwards every call to `inner`, timing each batch decision as a span
/// (none when `tracer` is null) and counting decisions and batch jobs.
/// cache_key() and workspace_key() pass through, so caches and pooled
/// workspaces treat it as `inner`. Used only on the client thread (direct
/// engine and stream replays).
class TimedPolicy final : public moldsched::SchedulingPolicy {
 public:
  TimedPolicy(const moldsched::SchedulingPolicy& inner, Tracer* tracer,
              const char* span)
      : inner_(inner), tracer_(tracer), span_(span) {}

  [[nodiscard]] const char* name() const noexcept override {
    return inner_.name();
  }
  [[nodiscard]] std::unique_ptr<moldsched::PolicyWorkspace> make_workspace()
      const override {
    return inner_.make_workspace();
  }
  void schedule_into(const moldsched::Instance& batch,
                     moldsched::PolicyWorkspace& ws,
                     moldsched::FlatPlacements& out) const override;
  [[nodiscard]] const void* workspace_key() const noexcept override {
    return inner_.workspace_key();
  }
  [[nodiscard]] std::uint64_t cache_key() const noexcept override {
    return inner_.cache_key();
  }

  /// When set, every decided batch instance is copied here (outside the
  /// timed span) for a later per-layer decomposition.
  void capture_into(std::vector<moldsched::Instance>* sink) { sink_ = sink; }
  [[nodiscard]] std::int64_t decisions() const noexcept { return decisions_; }
  [[nodiscard]] std::int64_t batch_jobs() const noexcept { return jobs_; }

 private:
  const moldsched::SchedulingPolicy& inner_;
  Tracer* tracer_;
  const char* span_;
  std::vector<moldsched::Instance>* sink_ = nullptr;
  mutable std::int64_t decisions_ = 0;
  mutable std::int64_t jobs_ = 0;
};

/// Lower bounds computed by the benchmark itself, never from a value the
/// scheduler returns: Cmax >= max(longest min time, min work / m), and
/// sum wC >= the lp/ interval relaxation on a grid anchored at that Cmax
/// bound.
struct Bounds {
  double cmax = 0.0;
  double minsum = 0.0;
};
[[nodiscard]] Bounds offline_bounds(const moldsched::Instance& instance);
/// The Cmax half of offline_bounds alone (no LP solve).
[[nodiscard]] double cmax_bound(const moldsched::Instance& instance);

/// Bounds for one stream of released jobs on m processors: Cmax >= every
/// release plus the min work released from then on over m, and >= every
/// release plus min time; sum wC >= max(sum w (r + min time), the lp/
/// squashed-area bound of the job set).
[[nodiscard]] Bounds stream_bounds(
    int m, const std::vector<moldsched::StreamArrival>& arrivals);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The benchmark's last output line.
[[nodiscard]] std::string result_json(bool correct, std::int64_t attempted,
                                      std::int64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace perfbench
