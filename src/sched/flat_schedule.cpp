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

void FlatPlacements::assign_from(const Schedule& schedule) {
  reset(schedule.num_tasks());
  for (int t = 0; t < schedule.num_tasks(); ++t) {
    if (!schedule.assigned(t)) continue;
    const Placement& p = schedule.placement(t);
    const auto e = static_cast<std::size_t>(t);
    start[e] = p.start;
    duration[e] = p.duration;
    proc_begin[e] = static_cast<int>(proc_ids.size());
    proc_count[e] = p.nprocs();
    proc_ids.insert(proc_ids.end(), p.procs.begin(), p.procs.end());
  }
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

Schedule FlatPlacements::to_schedule(int m) const {
  Schedule schedule(m, size());
  std::vector<int> procs;
  for (int e = 0; e < size(); ++e) {
    if (!assigned(e)) continue;
    const auto begin = static_cast<std::size_t>(
        proc_begin[static_cast<std::size_t>(e)]);
    const auto count = static_cast<std::size_t>(
        proc_count[static_cast<std::size_t>(e)]);
    procs.assign(proc_ids.begin() + static_cast<std::ptrdiff_t>(begin),
                 proc_ids.begin() + static_cast<std::ptrdiff_t>(begin + count));
    schedule.place(e, start[static_cast<std::size_t>(e)],
                   duration[static_cast<std::size_t>(e)], procs);
  }
  return schedule;
}

}  // namespace moldsched
