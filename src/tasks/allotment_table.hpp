/// \file allotment_table.hpp
/// Binary-searchable per-task allotment tables. The dual-approximation
/// bisection and the DEMT batch loop both keep asking the same two
/// questions for varying deadlines — "smallest allowed k with
/// time(k) <= d" (the canonical allotment) and "work-minimising allowed k
/// with time(k) <= d" — and the task's answers depend only on its fixed
/// time vector. Ordering the allotments once by execution time and
/// attaching prefix argmins turns both queries into O(log max_procs)
/// lookups, replacing the O(max_procs) scans that used to run inside every
/// dual_test call and every batch construction.
///
/// InstanceAllotments::build is one O(max_procs) pass per time-monotone
/// task (every generator family's tasks are): descending k is already
/// ascending time, so the order is read off the time vector plateau by
/// plateau. Only a task whose time rises somewhere falls through to a
/// comparison sort.
///
/// The tables reproduce the ascending-k scans canonical_allotment_reference
/// (tests/reference/allotment_table_reference.hpp) and
/// MoldableTask::min_work_allotment bit-for-bit (same comparisons, same
/// tie-breaks), so swapping them in cannot change any schedule.
///
/// InstanceAllotments packs all tasks' rows into contiguous parallel arrays
/// (structure-of-arrays) with a pooled build(), so a warm DemtWorkspace
/// rebuilds the tables for a new Instance without touching the allocator.
/// table(t) hands out a lightweight View over the rows. The original
/// one-vector-per-task form, AllotmentTable, is a test-only oracle
/// (tests/reference/allotment_table_reference.hpp) the differential suite
/// checks every row against.

#pragma once

#include <cstdint>
#include <vector>

#include "tasks/instance.hpp"
#include "tasks/moldable_task.hpp"

namespace moldsched {

/// All tasks' tables, built once per Instance traversal (one DEMT call, one
/// dual-approximation search) and shared by every stage. Rows for all tasks
/// live in four flat parallel arrays indexed through begin_[task]; build()
/// reuses the buffers, so a pooled InstanceAllotments allocates only until
/// its capacity high-water mark is reached.
class InstanceAllotments {
 public:
  /// Non-owning window onto one task's rows: allowed allotments sorted by
  /// (time asc, k asc) with parallel prefix argmins, so canonical() and
  /// min_work() are one upper_bound on the time each.
  class View {
   public:
    View(const double* times, const int* min_k, const int* min_work_k,
         int count, bool monotone) noexcept
        : times_(times),
          min_k_(min_k),
          min_work_k_(min_work_k),
          count_(count),
          monotone_(monotone) {}

    /// Smallest allowed k with time(k) <= deadline, or 0 when none exists.
    /// Matches the scan canonical_allotment_reference exactly.
    [[nodiscard]] int canonical(double deadline) const noexcept;
    /// Work-minimising allowed k with time(k) <= deadline (smallest such k
    /// on work ties), or 0. Matches MoldableTask::min_work_allotment
    /// exactly.
    [[nodiscard]] int min_work(double deadline) const noexcept;
    /// True when the task is strictly time- and work-monotone (no
    /// tolerance): time(k) non-increasing and work(k) non-decreasing over
    /// the allowed range. For such tasks the shelf-1 Pareto set of the dual
    /// test collapses to the single canonical allotment.
    [[nodiscard]] bool strictly_monotone() const noexcept { return monotone_; }

    [[nodiscard]] int size() const noexcept { return count_; }
    /// Row access for property tests: the i-th (time asc, k asc) entry.
    [[nodiscard]] double time_at(int i) const noexcept { return times_[i]; }
    [[nodiscard]] int min_k_at(int i) const noexcept { return min_k_[i]; }
    [[nodiscard]] int min_work_k_at(int i) const noexcept {
      return min_work_k_[i];
    }

   private:
    const double* times_;
    const int* min_k_;
    const int* min_work_k_;
    int count_;
    bool monotone_;
  };

  InstanceAllotments() = default;
  explicit InstanceAllotments(const Instance& instance) { build(instance); }

  /// Rebuild all rows for `instance`, reusing the flat buffers. Allocation
  /// free once the buffers have grown to the workload's high-water mark.
  void build(const Instance& instance);

  /// Instance::tmin() of the built instance, read off the rows' first
  /// entries (same doubles, same min). Requires at least one task.
  [[nodiscard]] double tmin() const noexcept;

  [[nodiscard]] View table(int task) const noexcept {
    const auto t = static_cast<std::size_t>(task);
    const int b = begin_[t];
    return View(times_.data() + b, min_k_.data() + b, min_work_k_.data() + b,
                begin_[t + 1] - b, monotone_[t] != 0);
  }
  [[nodiscard]] int num_tasks() const noexcept {
    return static_cast<int>(monotone_.size());
  }

 private:
  std::vector<int> begin_;         ///< row offsets, size num_tasks + 1
  std::vector<double> times_;      ///< all tasks' sorted times, concatenated
  std::vector<int> min_k_;         ///< prefix argmin-k per row
  std::vector<int> min_work_k_;    ///< prefix min-work-k per row
  std::vector<std::uint8_t> monotone_;
  std::vector<int> order_;         ///< build scratch: (time, k) order
};

}  // namespace moldsched
