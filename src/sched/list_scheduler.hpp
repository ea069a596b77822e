/// \file list_scheduler.hpp
/// Event-driven Graham list scheduling for rigid-allotment jobs (the paper's
/// reference [11]): whenever processors become idle, the pending list is
/// scanned in order and every job that fits is started on the
/// lowest-numbered idle processors. Used by
///
/// * the Sequential and List-Graham baselines and the rigid policies,
/// * DEMT's final compaction pass ("a list algorithm with the batch
///   ordering"), which re-chooses the processor sets.
///
/// Every job is available at time 0 and every processor is free of
/// reservations (the on-line simulator handles node reservations itself).
/// A pass costs O(n log n + n m / 64): the next fitting job is one descent
/// of a min-tree over list positions, and processors are taken from an
/// idle bitset.
///
/// Two entry points share one implementation: `list_schedule` (validates
/// its inputs, allocates the result), and the allocation-free
/// `list_schedule_into`, which runs entirely inside a caller-owned
/// ListPassWorkspace — the form DEMT's shuffle loop calls thousands of
/// times per instance. Both write flat placements whose processor ids
/// ascend within each entry.

#pragma once

#include <cstdint>
#include <vector>

#include "sched/flat_schedule.hpp"

namespace moldsched {

/// One entry of the priority list. `task` indexes the instance / schedule;
/// `nprocs` is the fixed allotment; `duration` its processing time.
struct ListJob {
  int task = -1;
  int nprocs = 1;
  double duration = 0.0;
};

/// Reusable buffers for repeated list passes. One workspace per thread;
/// every buffer is cleared (capacity kept) at the start of a pass, so after
/// the first pass at a given problem size no further heap allocation
/// happens. Fill `jobs` with the priority list, then call
/// `list_schedule_into`.
struct ListPassWorkspace {
  /// The priority list for the next pass (caller-filled).
  std::vector<ListJob> jobs;

  // -- internal scheduler state (sized by list_schedule_into) --
  /// Min-heap of finish events; `entry` is the finished job's task.
  struct FinishEvent {
    double time = 0.0;
    int entry = 0;
  };
  std::vector<FinishEvent> events;
  /// Min-tree over list positions: leaf j holds jobs[j].nprocs while the
  /// job is pending and INT_MAX once it has started.
  std::vector<int> pending;
  std::vector<std::uint64_t> idle;  ///< idle-processor bitset
};

/// Schedule `jobs` on m processors into `num_tasks` entries (jobs may
/// cover only a subset of tasks; the rest stay unassigned). Throws
/// std::invalid_argument when m < 1, num_tasks < 0, or a job needs more
/// than m processors, has a non-positive duration, or duplicates a task.
[[nodiscard]] FlatPlacements list_schedule(int m, int num_tasks,
                                           const std::vector<ListJob>& jobs);

/// Allocation-free core: run the list pass for `ws.jobs` on m processors,
/// writing each job's placement into `out` at index `job.task` (entries in
/// [0, num_entries)). Skips input validation — callers own the invariants
/// (in-range tasks and allotments, positive durations, no duplicates).
void list_schedule_into(int m, int num_entries, ListPassWorkspace& ws,
                        FlatPlacements& out);

}  // namespace moldsched
