/// \file demt.hpp
/// The paper's contribution: the bi-criteria batch algorithm for moldable
/// jobs, optimising makespan and weighted sum of completion times together.
/// (The evaluation labels it DEMT after the authors — Dutot, Eyraud,
/// Mounié, Trystram; we keep the name.)
///
/// Pipeline (§3.2):
///  1. estimate C*max with the dual-approximation engine;
///  2. geometric batches t_j = C*max / 2^(K-j), K = floor(log2(C*max/tmin));
///  3. per batch: candidate filtering, merging of small sequential tasks,
///     weight-maximising knapsack under the m-processor budget, placement
///     in [t_j, t_{j+1});
///  4. compaction: pull tasks earlier on their own processors, then a full
///     list-scheduling pass in batch order (processor sets re-chosen);
///  5. several randomised shuffles of the batch content ordering; the best
///     compact schedule under the acceptance rule is kept.
///
/// Every stage is switchable through DemtOptions so the ablation bench can
/// measure each design choice. Each stage has one implementation here, on
/// structure-of-arrays kernels, and both entry points emit FlatPlacements,
/// the library's one schedule type. The scalar, Schedule-based pipeline
/// the differential suite locks it to is the test-only
/// demt_schedule_reference (tests/reference/demt_reference.hpp).

#pragma once

#include <memory>

#include "sched/flat_schedule.hpp"
#include "tasks/instance.hpp"

namespace moldsched {

struct DemtOptions {
  /// Relative precision of the dual-approximation binary search.
  double dual_eps = 1e-4;

  /// §3.2 "merge the small sequential tasks".
  bool merge_small_tasks = true;
  /// Order within merged stacks: Smith's rule (true) or the paper's literal
  /// decreasing weight (false).
  bool smith_order_stacks = true;

  enum class Compaction {
    None,         ///< tasks start at their batch boundary
    PullForward,  ///< keep processor sets, pull starts earlier
    List,         ///< full list-scheduling pass in batch order (paper final)
  };
  Compaction compaction = Compaction::List;

  /// Number of randomised batch-content shuffles ("shuffled several
  /// times"); 0 disables the stage, a negative count is rejected. Only
  /// meaningful with Compaction::List.
  /// Candidates draw from RNG streams forked off one fixed seed, so every
  /// call is deterministic. Items inside a batch are listed by Smith's
  /// ratio (weight / duration decreasing) before the first list pass.
  int shuffles = 8;
  /// Also permute the batch order itself, not just task order inside each
  /// batch (off by default: batch order is the algorithm's backbone).
  bool shuffle_batch_order = false;
  /// A shuffled schedule is accepted only when it improves the weighted
  /// minsum AND its makespan stays within this factor of the unshuffled
  /// compact schedule's makespan. NaN or negative is rejected; +inf lifts
  /// the makespan bound.
  double cmax_budget_factor = 1.0;
};

struct DemtDiagnostics {
  double cmax_estimate = 0.0;    ///< dual-approximation C*max
  double cmax_lower_bound = 0.0; ///< certified makespan lower bound
  int grid_k = 0;                ///< K of the geometric grid
  int num_batches = 0;           ///< batches actually used (>= K+1 possible)
  int merged_stacks = 0;         ///< stacks with at least two tasks
  int shuffle_improvements = 0;  ///< accepted shuffle candidates
  int dual_tests = 0;            ///< dual_test calls inside estimate_cmax
};

struct DemtResult {
  /// One entry per task; a merged stack's tasks share one processor range.
  FlatPlacements schedule;
  DemtDiagnostics diag;
};

/// Reusable buffers for repeated demt_schedule_into calls: the list-pass and
/// compaction workspaces of the shuffle loop plus every per-call scratch
/// vector of the driver (pending sets, batch ranges, ...).
/// One workspace per thread/strand — the engine pools one per strand so a
/// server-style request stream stops re-warming buffers on every request.
/// Reuse never changes results: a workspace only carries capacity, not
/// state, between calls.
class DemtWorkspace {
 public:
  DemtWorkspace();
  ~DemtWorkspace();
  DemtWorkspace(DemtWorkspace&&) noexcept;
  DemtWorkspace& operator=(DemtWorkspace&&) noexcept;

 private:
  friend void demt_schedule_into(const Instance& instance,
                                 const DemtOptions& options,
                                 DemtWorkspace& workspace,
                                 FlatPlacements& out_placements,
                                 DemtDiagnostics& out_diag);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Schedule the instance with a fresh workspace (demt_schedule_into into
/// the result). Throws std::invalid_argument on an empty instance, a
/// negative `shuffles` or a NaN or negative `cmax_budget_factor`. The
/// returned schedule is always complete and feasible.
[[nodiscard]] DemtResult demt_schedule(const Instance& instance,
                                       const DemtOptions& options = {});

/// The serving-path entry point: the whole pipeline — allotment tables,
/// dual-approximation search, batch construction, knapsack selection,
/// placement, compaction and the shuffle stage — runs on the
/// structure-of-arrays kernels inside `workspace`, and the winning per-task
/// placements land in `out_placements` (buffers reused). Zero heap
/// allocation once the workspace is warm; demt_schedule wraps this.
void demt_schedule_into(const Instance& instance, const DemtOptions& options,
                        DemtWorkspace& workspace,
                        FlatPlacements& out_placements,
                        DemtDiagnostics& out_diag);

}  // namespace moldsched
