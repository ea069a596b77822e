#include "baselines/baselines.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "dualapprox/cmax_estimator.hpp"
#include "sched/list_scheduler.hpp"

namespace moldsched {

FlatPlacements gang_schedule(const Instance& instance) {
  if (instance.empty()) throw std::invalid_argument("gang_schedule: empty");
  const int n = instance.num_tasks();
  const int m = instance.procs();

  // Each task runs on every processor it can use (all m for the paper's
  // generators; capped at the task's own width for narrower tasks).
  auto gang_procs = [&](int i) {
    return std::min(m, instance.task(i).max_procs());
  };

  // Sort by weight / execution time on the full machine, decreasing —
  // Smith's rule on the gang profile (optimal for linear speedup).
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double ra =
        instance.task(a).weight() / instance.task(a).time(gang_procs(a));
    const double rb =
        instance.task(b).weight() / instance.task(b).time(gang_procs(b));
    if (ra != rb) return ra > rb;
    return a < b;
  });

  // Every task takes processors 0..k-1: one shared range of the id pool.
  FlatPlacements schedule;
  schedule.reset(n);
  schedule.proc_ids.resize(static_cast<std::size_t>(m));
  std::iota(schedule.proc_ids.begin(), schedule.proc_ids.end(), 0);
  double now = 0.0;
  for (int task_id : order) {
    const auto e = static_cast<std::size_t>(task_id);
    const int k = gang_procs(task_id);
    const double d = instance.task(task_id).time(k);
    schedule.start[e] = now;
    schedule.duration[e] = d;
    schedule.proc_count[e] = k;
    now += d;
  }
  return schedule;
}

FlatPlacements sequential_lptf_schedule(const Instance& instance) {
  if (instance.empty()) {
    throw std::invalid_argument("sequential_lptf_schedule: empty");
  }
  const int n = instance.num_tasks();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (int i = 0; i < n; ++i) {
    if (instance.task(i).min_procs() > 1) {
      throw std::invalid_argument(
          "sequential_lptf_schedule: task cannot run on one processor");
    }
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double ta = instance.task(a).time(1);
    const double tb = instance.task(b).time(1);
    if (ta != tb) return ta > tb;  // largest processing time first
    return a < b;
  });
  std::vector<ListJob> jobs;
  jobs.reserve(static_cast<std::size_t>(n));
  for (int task_id : order) {
    jobs.push_back(ListJob{task_id, 1, instance.task(task_id).time(1)});
  }
  return list_schedule(instance.procs(), n, jobs);
}

FlatPlacements list_graham_schedule(const Instance& instance,
                                    ListOrder order, double dual_eps) {
  if (instance.empty()) {
    throw std::invalid_argument("list_graham_schedule: empty");
  }
  const int n = instance.num_tasks();
  // The shelf partition at the estimate, the search's last accepted guess.
  const InstanceAllotments tables(instance);
  DualTestWorkspace ws;
  CmaxEstimate estimate;
  estimate_cmax_into(instance, dual_eps, tables, ws, estimate);
  const double lambda = estimate.estimate;
  DualTestResult partition;
  dual_test_into(instance, lambda, tables, ws, partition);

  struct Entry {
    int task;
    int alloc;
    double duration;
  };
  std::vector<Entry> entries;
  entries.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int alloc =
        partition.assignment[static_cast<std::size_t>(i)].allotment;
    entries.push_back(Entry{i, alloc, instance.task(i).time(alloc)});
  }

  // Weighted LPTF: largest processing time per unit weight first. The
  // paper's phrasing ("ratio between weight and their execution time") is
  // ambiguous about the direction; p/w descending is the reading that
  // matches both the LPTF name ("very good behavior for Cmax" = long tasks
  // first) and the published Figure 5 curve, where LPTF's minsum ratio
  // grows with n. See DESIGN.md §3.
  auto lptf_key = [&](const Entry& e) {
    return e.duration / instance.task(e.task).weight();
  };
  auto area = [](const Entry& e) { return e.alloc * e.duration; };

  switch (order) {
    case ListOrder::ShelfOrder: {
      // The order of [7]: large shelf, then the small shelf, then the small
      // sequential tasks (the MRT transformation stacks those last).
      // Category first, longest first inside each category.
      auto category = [&](const Entry& e) {
        const auto shelf =
            partition.assignment[static_cast<std::size_t>(e.task)].shelf;
        if (shelf == Shelf::Large) return 0;
        const MoldableTask& task = instance.task(e.task);
        const bool small_seq =
            task.min_procs() == 1 && task.time(1) <= lambda / 2.0;
        return small_seq ? 2 : 1;
      };
      std::sort(entries.begin(), entries.end(),
                [&](const Entry& a, const Entry& b) {
                  const int ca = category(a), cb = category(b);
                  if (ca != cb) return ca < cb;
                  if (a.duration != b.duration) return a.duration > b.duration;
                  return a.task < b.task;
                });
      break;
    }
    case ListOrder::WeightedLptf:
      std::sort(entries.begin(), entries.end(),
                [&](const Entry& a, const Entry& b) {
                  const double ra = lptf_key(a), rb = lptf_key(b);
                  if (ra != rb) return ra > rb;
                  return a.task < b.task;
                });
      break;
    case ListOrder::SmallestAreaFirst:
      std::sort(entries.begin(), entries.end(),
                [&](const Entry& a, const Entry& b) {
                  const double aa = area(a), ab = area(b);
                  if (aa != ab) return aa < ab;
                  return a.task < b.task;
                });
      break;
  }

  std::vector<ListJob> jobs;
  jobs.reserve(entries.size());
  for (const auto& e : entries) {
    jobs.push_back(ListJob{e.task, e.alloc, e.duration});
  }
  return list_schedule(instance.procs(), n, jobs);
}

}  // namespace moldsched
