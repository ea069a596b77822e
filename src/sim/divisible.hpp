/// \file divisible.hpp
/// Divisible-load extension (paper §5: "the mix of different types of jobs
/// (moldable jobs, rigid jobs, and divisible load jobs)"). A divisible job
/// is a bag of work that can be split into arbitrarily many independent
/// chunks — the classic grid filler workload. Given a finished moldable
/// schedule, the filler pours divisible work into the idle holes without
/// disturbing a single placed task: per-processor idle intervals are
/// collected up to a horizon and filled earliest-first, job by job in
/// Smith order (weight / work decreasing), which minimises the weighted
/// completion sum among sequential-greedy fills.
///
/// Two entry points share one core: `fill_idle_with_divisible` (validates,
/// allocates) wraps `fill_idle_with_divisible_into`, which runs entirely
/// inside a caller-owned DivisibleFillWorkspace — the form the streaming
/// §5 job-mix path (sim/stream.hpp) calls once per batch decision,
/// allocation-free after warm-up. Both read the schedule as FlatPlacements
/// on m processors.

#pragma once

#include <cstddef>
#include <vector>

#include "sched/flat_schedule.hpp"

namespace moldsched {

struct DivisibleJob {
  double work = 0.0;    ///< total processor-time to deliver
  double weight = 1.0;  ///< priority for the fill order / metrics
};

/// One contiguous piece of a divisible job on one processor.
struct DivisibleChunk {
  int job = -1;
  int proc = 0;
  double start = 0.0;
  double duration = 0.0;

  [[nodiscard]] double finish() const noexcept { return start + duration; }
};

struct DivisibleFillResult {
  std::vector<DivisibleChunk> chunks;
  std::vector<double> completion;      ///< per job; 0 if nothing placed
  std::vector<double> placed_work;     ///< per job, <= job.work
  double weighted_completion_sum = 0.0;///< over fully placed jobs
  bool all_placed = true;              ///< every job fully inside horizon
  double idle_capacity = 0.0;          ///< total idle area in [0, horizon)
};

/// Reusable buffers for repeated flat fills. One workspace per
/// thread/stream; every buffer is cleared (capacity kept) per call, so
/// after warm-up a fill performs no heap allocation. Carries capacity
/// only, never state, between calls.
struct DivisibleFillWorkspace {
  /// One busy stretch of a placed task on one processor.
  struct Busy {
    int proc = 0;
    double start = 0.0;
    double finish = 0.0;
  };
  /// One idle hole; shrinks from the front as jobs consume it.
  struct Hole {
    int proc = 0;
    double start = 0.0;
    double finish = 0.0;
    [[nodiscard]] double length() const noexcept { return finish - start; }
  };
  /// Capacity breakpoint of the water-filling sweep.
  struct Event {
    double time = 0.0;
    int delta = 0;  ///< +1 hole opens, -1 hole closes
  };
  std::vector<Busy> busy;
  std::vector<Hole> idle;
  std::vector<Event> events;
  std::vector<std::size_t> order;  ///< jobs in Smith order
};

/// Fill the idle holes of `schedule` (on m processors, well formed)
/// with the divisible jobs, never pushing past `horizon`. Holes are the
/// complement of the busy intervals of the assigned entries on each of
/// the m processors, clipped to [0, horizon). Throws
/// std::invalid_argument on m < 1, a negative horizon, non-positive work,
/// or non-positive weight.
[[nodiscard]] DivisibleFillResult fill_idle_with_divisible(
    const FlatPlacements& schedule, int m,
    const std::vector<DivisibleJob>& jobs, double horizon);

/// Allocation-free core with identical results: runs inside `ws` and
/// re-fills `out` (buffers keep capacity). Skips input validation —
/// callers own the invariants (m >= 1, non-negative horizon, positive
/// work and weight).
void fill_idle_with_divisible_into(const FlatPlacements& placements, int m,
                                   const DivisibleJob* jobs,
                                   std::size_t count, double horizon,
                                   DivisibleFillWorkspace& ws,
                                   DivisibleFillResult& out);

}  // namespace moldsched
