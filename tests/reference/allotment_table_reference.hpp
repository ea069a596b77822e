/// \file allotment_table_reference.hpp
/// Test-only oracles for the allotment tables (tasks/allotment_table.hpp):
/// the canonical-allotment scan, and the original one-vector-per-task
/// form, built by a comparison sort. The differential suite checks every
/// InstanceAllotments row against them.

#pragma once

#include <vector>

#include "tasks/moldable_task.hpp"

namespace moldsched {

/// Canonical allotment by an ascending-k scan: the smallest allowed k with
/// task.time(k) <= deadline, or 0 when no allotment meets the deadline.
/// For monotone tasks this is also the work-minimising deadline-feasible
/// allotment.
[[nodiscard]] int canonical_allotment_reference(const MoldableTask& task,
                                                double deadline) noexcept;

/// One task, its own vectors. Construction and both queries define the
/// semantics the structure-of-arrays form must reproduce bit-for-bit.
class AllotmentTable {
 public:
  AllotmentTable() = default;
  explicit AllotmentTable(const MoldableTask& task);

  /// Smallest allowed k with time(k) <= deadline, or 0 when none exists.
  /// Matches canonical_allotment_reference exactly.
  [[nodiscard]] int canonical(double deadline) const noexcept;

  /// Work-minimising allowed k with time(k) <= deadline (smallest such k on
  /// work ties), or 0. Matches MoldableTask::min_work_allotment exactly.
  [[nodiscard]] int min_work(double deadline) const noexcept;

  /// True when the task is strictly time- and work-monotone (no tolerance):
  /// time(k) non-increasing and work(k) non-decreasing over the allowed
  /// range.
  [[nodiscard]] bool strictly_monotone() const noexcept { return monotone_; }

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(sorted_times_.size());
  }
  /// Row access for property tests: the i-th (time asc, k asc) entry.
  [[nodiscard]] double time_at(int i) const noexcept {
    return sorted_times_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] int min_k_at(int i) const noexcept {
    return prefix_min_k_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] int min_work_k_at(int i) const noexcept {
    return prefix_min_work_k_[static_cast<std::size_t>(i)];
  }

 private:
  /// Allowed allotments sorted by (time asc, k asc); parallel prefix
  /// argmins answer both queries after an upper_bound on the time.
  std::vector<double> sorted_times_;
  std::vector<int> prefix_min_k_;
  std::vector<int> prefix_min_work_k_;
  bool monotone_ = false;
};

}  // namespace moldsched
