#include "sched/validator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/strfmt.hpp"

namespace moldsched {

ValidationReport validate_schedule(const FlatPlacements& schedule,
                                   const Instance& instance,
                                   const ValidationOptions& options) {
  ValidationReport report;
  const int n = instance.num_tasks();
  const int m = instance.procs();
  const std::size_t size = schedule.start.size();
  if (schedule.duration.size() != size || schedule.proc_begin.size() != size ||
      schedule.proc_count.size() != size) {
    report.fail("schedule arrays have unequal lengths");
    return report;
  }
  if (schedule.size() != n) {
    report.fail(strfmt("schedule has %d tasks, instance has %d",
                       schedule.size(), n));
    return report;
  }
  if (!options.releases.empty() &&
      options.releases.size() != static_cast<std::size_t>(n)) {
    report.fail("releases vector size mismatch");
    return report;
  }

  // Per-processor interval lists for the overlap check.
  struct Interval {
    double start, finish;
    int task;
  };
  std::vector<std::vector<Interval>> per_proc(static_cast<std::size_t>(m));
  // last_task[p] == i while task i's ids are read: a duplicate inside it.
  std::vector<int> last_task(static_cast<std::size_t>(m), -1);
  const auto pool = static_cast<long long>(schedule.proc_ids.size());

  for (int i = 0; i < n; ++i) {
    const auto e = static_cast<std::size_t>(i);
    const double start = schedule.start[e];
    const double duration = schedule.duration[e];
    if (!schedule.assigned(i)) {
      report.fail(strfmt("task %d is not assigned", i));
      continue;
    }
    if (!std::isfinite(start) || !(start >= 0.0)) {
      report.fail(strfmt("task %d has bad start time %.12g", i, start));
      continue;
    }
    if (!std::isfinite(duration)) {
      report.fail(strfmt("task %d has bad duration %.12g", i, duration));
      continue;
    }
    const long long begin = schedule.proc_begin[e];
    const int k = schedule.proc_count[e];
    if (k < 1 || begin < 0 || begin + k > pool) {
      report.fail(strfmt("task %d processor range [%lld, +%d) outside the "
                         "id pool of %lld",
                         i, begin, k, pool));
      continue;
    }
    const int* ids = schedule.proc_ids.data() + begin;
    bool ids_ok = true;
    for (int j = 0; j < k && ids_ok; ++j) {
      const int proc = ids[j];
      if (proc < 0 || proc >= m) {
        report.fail(strfmt("task %d uses processor %d outside [0, %d)", i,
                           proc, m));
        ids_ok = false;
      } else if (last_task[static_cast<std::size_t>(proc)] == i) {
        report.fail(strfmt("task %d lists processor %d twice", i, proc));
        ids_ok = false;
      } else {
        last_task[static_cast<std::size_t>(proc)] = i;
      }
    }
    if (!ids_ok) continue;
    const MoldableTask& task = instance.task(i);
    if (k < task.min_procs() || k > task.max_procs()) {
      report.fail(strfmt("task %d allotment %d outside allowed [%d, %d]", i, k,
                         task.min_procs(), task.max_procs()));
      continue;
    }
    if (options.check_durations &&
        std::abs(duration - task.time(k)) > options.tol) {
      report.fail(strfmt("task %d duration %.12g != p(%d) = %.12g", i,
                         duration, k, task.time(k)));
    }
    if (!options.releases.empty() &&
        start + options.tol < options.releases[e]) {
      report.fail(strfmt("task %d starts at %.12g before release %.12g", i,
                         start, options.releases[e]));
    }
    for (int j = 0; j < k; ++j) {
      per_proc[static_cast<std::size_t>(ids[j])].push_back(
          Interval{start, schedule.finish(i), i});
    }
  }

  for (int proc = 0; proc < m; ++proc) {
    auto& intervals = per_proc[static_cast<std::size_t>(proc)];
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                return a.start < b.start;
              });
    for (std::size_t j = 1; j < intervals.size(); ++j) {
      if (intervals[j].start + options.tol < intervals[j - 1].finish) {
        report.fail(strfmt(
            "processor %d: task %d [%.12g, %.12g) overlaps task %d [%.12g, %.12g)",
            proc, intervals[j - 1].task, intervals[j - 1].start,
            intervals[j - 1].finish, intervals[j].task, intervals[j].start,
            intervals[j].finish));
      }
    }
  }
  return report;
}

void require_valid(const FlatPlacements& schedule, const Instance& instance,
                   const ValidationOptions& options) {
  const auto report = validate_schedule(schedule, instance, options);
  if (report.ok) return;
  std::string message = "invalid schedule:";
  for (const auto& e : report.errors) {
    message += "\n  " + e;
  }
  throw std::runtime_error(message);
}

}  // namespace moldsched
