#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "lp/minsum_bound.hpp"
#include "tasks/time_grid.hpp"

namespace perfbench {

using namespace moldsched;

SpanTotals Tracer::totals(const std::string& name) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  SpanTotals out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name != s.name) continue;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    ++out.count;
    out.total_ms += ms;
    out.self_ms += ms - static_cast<double>(child_ns[i]) * 1e-6;
    out.durations_ms.push_back(ms);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << "}\n";
  }
  return static_cast<bool>(out);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void TimedPolicy::schedule_into(const Instance& batch, PolicyWorkspace& ws,
                                FlatPlacements& out) const {
  {
    const Scope span(tracer_, span_);
    inner_.schedule_into(batch, ws, out);
  }
  ++decisions_;
  jobs_ += batch.num_tasks();
  if (sink_ != nullptr) sink_->push_back(batch);
}

double cmax_bound(const Instance& instance) {
  double longest = 0.0;
  for (const MoldableTask& task : instance.tasks()) {
    longest = std::max(longest, task.min_time());
  }
  return std::max(longest, instance.total_min_work() /
                               static_cast<double>(instance.procs()));
}

Bounds offline_bounds(const Instance& instance) {
  Bounds b;
  b.cmax = cmax_bound(instance);
  const TimeGrid grid(b.cmax, instance.tmin());
  b.minsum = minsum_lower_bound(instance, grid).bound;
  return b;
}

Bounds stream_bounds(int m, const std::vector<StreamArrival>& arrivals) {
  Bounds b;
  Instance jobs(m);
  double release_bound = 0.0;
  for (const StreamArrival& a : arrivals) {
    b.cmax = std::max(b.cmax, a.release + a.task.min_time());
    release_bound += a.task.weight() * (a.release + a.task.min_time());
    jobs.add_task(a.task);
  }
  // Arrivals are release-ordered: every job from index i on is released at
  // or after arrivals[i].release, so its min work runs after it.
  double suffix_work = 0.0;
  for (std::size_t i = arrivals.size(); i-- > 0;) {
    suffix_work += arrivals[i].task.min_work();
    b.cmax = std::max(b.cmax, arrivals[i].release +
                                  suffix_work / static_cast<double>(m));
  }
  b.minsum = std::max(release_bound, squashed_area_bound(jobs));
  return b;
}

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
