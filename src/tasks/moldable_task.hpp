/// \file moldable_task.hpp
/// The moldable parallel-task model (Feitelson's classification): the
/// scheduler picks the number of processors before execution and it stays
/// fixed until completion. A task is described by a vector of processing
/// times p(k), k = 1..max_procs, plus a weight (priority).
///
/// Rigid tasks are the degenerate case min_procs == max allowed procs; they
/// are supported so the simulator can mix job types (paper §5 future work).

#pragma once

#include <functional>
#include <vector>

namespace moldsched {

class MoldableTask {
 public:
  MoldableTask() = default;

  /// Build from explicit processing times: `times[k-1]` is the execution
  /// time on k processors. `min_procs` restricts the allowed allotments to
  /// [min_procs, times.size()] (1 for fully moldable tasks).
  /// Throws std::invalid_argument on empty/non-positive times, non-positive
  /// weight, or min_procs out of range.
  MoldableTask(std::vector<double> times, double weight, int min_procs = 1);

  /// Processing time on k processors (1-based). Throws std::out_of_range
  /// for k outside [1, max_procs()]; note k < min_procs() is still a valid
  /// *query* (the model knows the value) but not a valid allotment.
  [[nodiscard]] double time(int k) const;

  /// Work (processor-time area) on k processors: k * time(k).
  [[nodiscard]] double work(int k) const { return k * time(k); }

  [[nodiscard]] double weight() const noexcept { return weight_; }
  [[nodiscard]] int max_procs() const noexcept {
    return static_cast<int>(times_.size());
  }
  [[nodiscard]] int min_procs() const noexcept { return min_procs_; }
  [[nodiscard]] bool rigid() const noexcept {
    return min_procs_ == max_procs();
  }

  /// Fastest achievable execution time over allowed allotments.
  [[nodiscard]] double min_time() const noexcept;
  /// Cheapest achievable work over allowed allotments.
  [[nodiscard]] double min_work() const noexcept;
  /// Allotment achieving min_work().
  [[nodiscard]] int min_work_procs() const noexcept;

  /// Allotment minimising work among allowed k with time(k) <= deadline,
  /// or 0 when none exists. Equals the canonical allotment (the smallest
  /// such k, InstanceAllotments::View::canonical) for monotone tasks;
  /// differs only on non-monotone inputs, where it is the sound choice for
  /// the lower-bound machinery (the paper's S_{i,j} in §3.3 is exactly
  /// min work subject to the deadline).
  [[nodiscard]] int min_work_allotment(double deadline) const noexcept;

  /// True when time(k) is non-increasing in k over the allowed range.
  [[nodiscard]] bool is_time_monotone(double tol = 1e-9) const noexcept;
  /// True when work(k) is non-decreasing in k over the allowed range.
  [[nodiscard]] bool is_work_monotone(double tol = 1e-9) const noexcept;

  /// Repair tiny monotonicity violations (numerical noise from generator
  /// models): clamps each time(k) into
  /// [ (k-1)/k * time(k-1), time(k-1) ], which enforces both monotonicity
  /// properties simultaneously.
  void enforce_monotonicity();

  /// In-place rebuild reusing this task's time-vector capacity: become a
  /// copy of `src` with the time vector truncated to at most `procs`
  /// entries (the reduced-machine form the online batch builder needs).
  /// The streaming hot path re-fills pooled tasks through this instead of
  /// constructing fresh ones, so a warm pool rebuilds without heap
  /// allocation. Throws std::invalid_argument when src.min_procs() > procs
  /// (the task cannot run on that few processors).
  void assign_truncated(const MoldableTask& src, int procs);

  /// Construct from a sequential time and a speedup function S(k)
  /// (S(1) must be 1): time(k) = seq_time / S(k).
  [[nodiscard]] static MoldableTask from_speedup(
      double seq_time, int max_procs, double weight,
      const std::function<double(int)>& speedup);

  /// Access to the raw time vector (read-only).
  [[nodiscard]] const std::vector<double>& times() const noexcept {
    return times_;
  }

 private:
  std::vector<double> times_;
  double weight_ = 1.0;
  int min_procs_ = 1;
};

}  // namespace moldsched
