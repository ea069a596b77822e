#include "sched/flat_schedule.hpp"

#include <algorithm>

namespace moldsched {

void FlatPlacements::reset(int num_entries) {
  const auto n = static_cast<std::size_t>(num_entries);
  start.assign(n, 0.0);
  duration.assign(n, 0.0);
  proc_begin.assign(n, 0);
  proc_count.assign(n, 0);
  proc_ids.clear();
}

double FlatPlacements::cmax() const noexcept {
  double best = 0.0;
  for (std::size_t e = 0; e < start.size(); ++e) {
    if (duration[e] > 0.0) best = std::max(best, start[e] + duration[e]);
  }
  return best;
}

double FlatPlacements::weighted_completion_sum(
    const Instance& instance) const noexcept {
  double sum = 0.0;
  for (std::size_t e = 0; e < start.size(); ++e) {
    sum += instance.task(static_cast<int>(e)).weight() *
           (start[e] + duration[e]);
  }
  return sum;
}

FlatMetrics FlatPlacements::metrics(const Instance& instance) const noexcept {
  FlatMetrics out;
  const double* s = start.data();
  const double* d = duration.data();
  for (std::size_t e = 0; e < start.size(); ++e) {
    const double finish = s[e] + d[e];
    out.weighted_completion_sum +=
        instance.task(static_cast<int>(e)).weight() * finish;
    // Same guard as cmax(): unassigned entries never raise the max.
    out.cmax = (d[e] > 0.0 && finish > out.cmax) ? finish : out.cmax;
  }
  return out;
}

void FlatPlacements::copy_from(const FlatPlacements& other) {
  start = other.start;
  duration = other.duration;
  proc_begin = other.proc_begin;
  proc_count = other.proc_count;
  proc_ids = other.proc_ids;
}

}  // namespace moldsched
