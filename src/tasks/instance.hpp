/// \file instance.hpp
/// A scheduling instance: m identical processors plus a set of moldable
/// tasks, with a plain-text serialization for archiving experiment inputs.

#pragma once

#include <iosfwd>
#include <vector>

#include "tasks/moldable_task.hpp"

namespace moldsched {

class Instance {
 public:
  /// Create an instance for an m-processor cluster. Throws on m < 1.
  explicit Instance(int m);

  /// Append a task. The task's max_procs must not exceed m (every task must
  /// be describable on the whole machine; generators always produce full
  /// vectors). Returns the task's index, which is its identity everywhere
  /// (schedules, LP columns, ...).
  int add_task(MoldableTask task);

  /// Rebuild support for pooled batch instances (the online simulator and
  /// the streaming engine re-fill one Instance per batch decision): drop
  /// every task, moving its heap storage into an internal shell pool, and
  /// re-target the machine size. Throws on m < 1.
  void reset(int m);

  /// Append a copy of `src` with its time vector truncated to at most
  /// `max_procs` (and at most m) entries, drawing storage from the shell
  /// pool when one is available — a warm reset/add_task_truncated cycle
  /// performs no heap allocation. Returns the task's index. Throws
  /// std::invalid_argument when src cannot run on that few processors.
  int add_task_truncated(const MoldableTask& src, int max_procs);

  [[nodiscard]] int procs() const noexcept { return m_; }
  [[nodiscard]] int num_tasks() const noexcept {
    return static_cast<int>(tasks_.size());
  }
  [[nodiscard]] bool empty() const noexcept { return tasks_.empty(); }

  [[nodiscard]] const MoldableTask& task(int i) const {
    return tasks_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] const std::vector<MoldableTask>& tasks() const noexcept {
    return tasks_;
  }

  /// Smallest processing time over all tasks and allotments — the paper's
  /// `tmin`, which fixes the smallest batch size.
  [[nodiscard]] double tmin() const;

  /// Sum over tasks of their cheapest work; `total_min_work() / m` is a
  /// classic makespan lower bound.
  [[nodiscard]] double total_min_work() const noexcept;

  /// Sum of task weights.
  [[nodiscard]] double total_weight() const noexcept;

  /// True when every task is time- and work-monotone.
  [[nodiscard]] bool is_monotone(double tol = 1e-9) const noexcept;

  /// Plain-text round-trip serialization (format documented in instance.cpp).
  /// load throws std::runtime_error on malformed input, including m < 1,
  /// max_procs outside [1, m] and min_procs outside [1, max_procs].
  void save(std::ostream& out) const;
  [[nodiscard]] static Instance load(std::istream& in);

 private:
  int m_;
  std::vector<MoldableTask> tasks_;
  /// Retired task shells (capacity donors for add_task_truncated).
  std::vector<MoldableTask> pool_;
};

}  // namespace moldsched
