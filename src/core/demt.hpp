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
/// measure each design choice.

#pragma once

#include <cstdint>
#include <memory>

#include "sched/flat_schedule.hpp"
#include "sched/schedule.hpp"
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

  /// Local ordering of items inside a batch for the list pass.
  enum class LocalOrder {
    AsSelected,   ///< knapsack output order
    SmithRatio,   ///< weight / duration decreasing
    LongestFirst, ///< duration decreasing (classic LPT)
  };
  LocalOrder local_order = LocalOrder::SmithRatio;

  /// Number of randomised batch-content shuffles ("shuffled several
  /// times"); 0 disables the stage. Only meaningful with Compaction::List.
  int shuffles = 8;
  /// Also permute the batch order itself, not just task order inside each
  /// batch (off by default: batch order is the algorithm's backbone).
  bool shuffle_batch_order = false;
  /// A shuffled schedule is accepted only when it improves the weighted
  /// minsum AND its makespan stays within this factor of the unshuffled
  /// compact schedule's makespan.
  double cmax_budget_factor = 1.0;
  std::uint64_t shuffle_seed = 0x5EEDF00DULL;

  /// Worker threads for the shuffle stage: 1 (default) evaluates candidates
  /// sequentially on the calling thread; 0 uses every worker of the
  /// process-wide shared pool; k > 1 caps the shared-pool strands at k.
  /// The schedule is bit-identical for every setting — candidates draw from
  /// RNG streams pre-forked in candidate order and are accepted by a
  /// sequential replay of the results, so parallelism changes only the
  /// wall-clock. Calls arriving on a pool worker thread (e.g. from the
  /// experiment harness's parallel replicates) always run sequentially to
  /// avoid nested-pool deadlock.
  int shuffle_workers = 1;

  /// Warm-start the Cmax bisection from the previous call's accepted dual
  /// bounds, kept in the workspace's DualTestWorkspace (consecutive online
  /// batches are near-identical, so most probes of the cold search are
  /// proven by monotonicity instead of run). The schedule is bit-identical
  /// to the cold search — only DemtDiagnostics::dual_tests drops — so like
  /// shuffle_workers this flag stays out of DemtPolicy::cache_key(). Off
  /// by default: the first call on a workspace is always a cold start.
  bool warm_dual_start = false;
};

struct DemtDiagnostics {
  double cmax_estimate = 0.0;    ///< dual-approximation C*max
  double cmax_lower_bound = 0.0; ///< certified makespan lower bound
  int grid_k = 0;                ///< K of the geometric grid
  int num_batches = 0;           ///< batches actually used (>= K+1 possible)
  int merged_stacks = 0;         ///< stacks with at least two tasks
  int shuffle_improvements = 0;  ///< accepted shuffle candidates
  int dual_tests = 0;            ///< dual_test calls inside estimate_cmax
  int shuffle_strands = 1;       ///< concurrent strands the shuffle stage used
};

struct DemtResult {
  Schedule schedule;
  DemtDiagnostics diag;
};

/// Reusable buffers for repeated demt_schedule_into calls: the shuffle/list/
/// compaction workspaces of the hot path plus every per-call scratch vector
/// of the driver (pending sets, batch ranges, candidate RNG streams, ...).
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

/// Schedule the instance. Throws std::invalid_argument on an empty
/// instance. The returned schedule is always complete and feasible.
[[nodiscard]] DemtResult demt_schedule(const Instance& instance,
                                       const DemtOptions& options = {});

/// The serving-path entry point: the whole pipeline — allotment tables,
/// dual-approximation search, batch construction, knapsack selection,
/// placement, compaction and the shuffle stage — runs on the
/// structure-of-arrays kernels inside `workspace`, and the winning per-task
/// placements land in `out_placements` (buffers reused). Zero heap
/// allocation once the workspace is warm; results are bit-identical to
/// demt_schedule (which wraps this) and to demt_schedule_reference.
void demt_schedule_into(const Instance& instance, const DemtOptions& options,
                        DemtWorkspace& workspace,
                        FlatPlacements& out_placements,
                        DemtDiagnostics& out_diag);

/// The retained scalar pipeline: array-of-structs batch items, scan-based
/// allotment lookups, the budget-outer dual-test DP, the backward in-place
/// knapsack and Schedule-based placement/compaction, exactly as the driver
/// ran before the SoA rewrite. Allocates freely and always evaluates
/// shuffle candidates sequentially (the replay rule makes worker count
/// irrelevant to the result). The differential suite (test_demt_kernel)
/// locks demt_schedule bit-identical to this.
[[nodiscard]] DemtResult demt_schedule_reference(
    const Instance& instance, const DemtOptions& options = {});

}  // namespace moldsched
