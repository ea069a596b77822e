/// \file flat_schedule.hpp
/// The library's schedule type: a non-preemptive schedule of moldable
/// tasks on m identical processors, one entry per task (start time,
/// duration, processor set). Every algorithm, the on-line simulator, the
/// engine and the streams write it, and the validator, the gantt renderer
/// and the metrics read it as emitted. It is plain parallel arrays plus
/// one processor-id pool into which entries point, so repeated passes
/// (DEMT's shuffle candidates, the list pass) reuse the same capacity and
/// the metrics (`cmax`, `weighted_completion_sum`) are branch-light linear
/// scans with no copies. The arrays carry no invariants of their own:
/// validate_schedule (sched/validator.hpp) checks a schedule from outside.

#pragma once

#include <vector>

#include "tasks/instance.hpp"

namespace moldsched {

/// Both schedule metrics from one fused scan (see
/// FlatPlacements::metrics).
struct FlatMetrics {
  double weighted_completion_sum = 0.0;
  double cmax = 0.0;
};

struct FlatPlacements {
  /// Per-entry placement; an entry with duration <= 0 is unassigned. The
  /// processor set of entry e is proc_ids[proc_begin[e] .. +proc_count[e]),
  /// always in ascending processor order. Ranges may be shared (every task
  /// of a merged stack aliases its item's range).
  std::vector<double> start;
  std::vector<double> duration;
  std::vector<int> proc_begin;
  std::vector<int> proc_count;
  std::vector<int> proc_ids;

  /// Clear to `num_entries` unassigned entries; keeps buffer capacity.
  void reset(int num_entries);

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(start.size());
  }
  [[nodiscard]] bool assigned(int e) const noexcept {
    return duration[static_cast<std::size_t>(e)] > 0.0;
  }
  [[nodiscard]] double finish(int e) const noexcept {
    return start[static_cast<std::size_t>(e)] +
           duration[static_cast<std::size_t>(e)];
  }

  /// Max finish over assigned entries (0 when none).
  [[nodiscard]] double cmax() const noexcept;

  /// Sum of weight * finish over all entries; every entry must be assigned
  /// and sizes must match (callers in the hot path guarantee both).
  [[nodiscard]] double weighted_completion_sum(
      const Instance& instance) const noexcept;

  /// Fused min/argmin-style scan: one entry-order pass accumulates the
  /// weighted completion sum and the running max finish together. Per
  /// element it performs the same adds and the same max comparisons in the
  /// same order as the two separate scans above, so both results are
  /// bit-identical to cmax() / weighted_completion_sum() — it just touches
  /// each cache line once. This is the candidate-metric scan of the DEMT
  /// shuffle loop.
  [[nodiscard]] FlatMetrics metrics(const Instance& instance) const noexcept;

  /// Deep-copy `other`, reusing this object's buffer capacity (vector
  /// copy-assign never reallocates when capacity suffices). The winner
  /// bookkeeping of demt_schedule_into and the engine's keep_schedules
  /// results use this.
  void copy_from(const FlatPlacements& other);
};

}  // namespace moldsched
