/// \file schedule.hpp
/// Test-only object form of a schedule: one placement per task (start
/// time, duration, its own processor vector), checked as it is placed.
/// The library's one schedule type is FlatPlacements
/// (sched/flat_schedule.hpp); this form survives as the private
/// representation of the Schedule-based oracles (demt_schedule_reference,
/// the multipass pull_forward, online_batch_schedule_reference), and the
/// two converters at the end bridge it to the flat form.

#pragma once

#include <vector>

#include "sched/flat_schedule.hpp"
#include "tasks/instance.hpp"

namespace moldsched {

/// One task's execution: starts at `start`, runs for `duration` on the
/// processors listed in `procs` (ids in [0, m)).
struct Placement {
  double start = 0.0;
  double duration = 0.0;
  std::vector<int> procs;

  [[nodiscard]] int nprocs() const noexcept {
    return static_cast<int>(procs.size());
  }
  [[nodiscard]] double finish() const noexcept { return start + duration; }
};

class Schedule {
 public:
  /// A schedule for `num_tasks` tasks on `m` processors; all tasks start
  /// unassigned.
  Schedule(int m, int num_tasks);

  /// Assign task `task`. Throws std::invalid_argument on malformed
  /// placements (bad task index, empty/duplicate/out-of-range processors,
  /// negative start, non-positive duration).
  void place(int task, double start, double duration, std::vector<int> procs);

  [[nodiscard]] bool assigned(int task) const {
    return placed_.at(static_cast<std::size_t>(task));
  }
  [[nodiscard]] bool complete() const noexcept;

  [[nodiscard]] const Placement& placement(int task) const;
  [[nodiscard]] int procs() const noexcept { return m_; }
  [[nodiscard]] int num_tasks() const noexcept {
    return static_cast<int>(placements_.size());
  }

  /// Completion time of a task. Throws std::logic_error if unassigned.
  [[nodiscard]] double completion(int task) const;

  /// Makespan: max completion over assigned tasks (0 for an empty schedule).
  /// Throws std::logic_error when some task is unassigned.
  [[nodiscard]] double cmax() const;

  /// Weighted sum of completion times with the instance's weights.
  /// Throws std::logic_error when incomplete or size-mismatched.
  [[nodiscard]] double weighted_completion_sum(const Instance& instance) const;

 private:
  void check_task(int task) const;

  int m_;
  std::vector<Placement> placements_;
  std::vector<bool> placed_;
};

/// Materialise flat placements into a Schedule on m processors (assigned
/// entries only). Throws like Schedule::place on a malformed entry.
[[nodiscard]] Schedule to_schedule(const FlatPlacements& flat, int m);

/// Copy a Schedule into the flat form: unassigned tasks stay unassigned
/// entries, and every double is copied verbatim, so metrics computed on
/// the copy are bit-identical to the Schedule's own.
[[nodiscard]] FlatPlacements to_flat(const Schedule& schedule);

}  // namespace moldsched
