#include "reference/compaction_reference.hpp"

#include <algorithm>
#include <vector>

namespace moldsched {

namespace {

/// One sweep in increasing start order; returns how many tasks moved.
int pull_forward_pass(Schedule& schedule) {
  const int n = schedule.num_tasks();
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (schedule.assigned(i)) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return schedule.placement(a).start < schedule.placement(b).start;
  });

  int moved = 0;
  for (int task : order) {
    const Placement p = schedule.placement(task);
    // Earliest legal start on the same processors: the latest finish among
    // other placements on those processors that currently end at or before
    // this task's start. (Disjointness means every other interval on these
    // processors either ends <= p.start or begins >= p.finish; the latter
    // are unaffected by moving earlier.)
    double earliest = 0.0;
    for (int other = 0; other < n; ++other) {
      if (other == task || !schedule.assigned(other)) continue;
      const Placement& q = schedule.placement(other);
      if (q.finish() > p.start + 1e-12) continue;  // runs after; irrelevant
      const bool shares_proc = std::any_of(
          q.procs.begin(), q.procs.end(), [&](int proc) {
            return std::binary_search(p.procs.begin(), p.procs.end(), proc);
          });
      if (shares_proc) earliest = std::max(earliest, q.finish());
    }
    if (earliest + 1e-12 < p.start) {
      schedule.place(task, earliest, p.duration, p.procs);
      ++moved;
    }
  }
  return moved;
}

}  // namespace

int pull_forward(Schedule& schedule) {
  int total = 0;
  // Each pass strictly decreases some start time; the loop terminates
  // because starts snap onto finish times of predecessors. Bound the pass
  // count defensively anyway.
  for (int pass = 0; pass < schedule.num_tasks() + 1; ++pass) {
    const int moved = pull_forward_pass(schedule);
    total += moved;
    if (moved == 0) break;
  }
  return total;
}

}  // namespace moldsched
