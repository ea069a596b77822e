#include "core/demt.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/batching.hpp"
#include "dualapprox/cmax_estimator.hpp"
#include "sched/compaction.hpp"
#include "sched/flat_schedule.hpp"
#include "sched/list_scheduler.hpp"
#include "tasks/allotment_table.hpp"
#include "tasks/time_grid.hpp"
#include "util/rng.hpp"

namespace moldsched {

namespace {

/// Root of the shuffle stage's RNG streams: candidate s draws from
/// Rng(kShuffleSeed).fork(s), so every DEMT call is deterministic.
constexpr std::uint64_t kShuffleSeed = 0x5EEDF00DULL;

/// Write item `item`'s tasks into `out` from `start` on the processor range
/// proc_ids[base .. base + count): a single task runs for the item's
/// duration, a stack runs its tasks back to back at their sequential times.
void expand_item(const Instance& instance, const FlatBatchItems& items,
                 int item, double start, int base, int count,
                 FlatPlacements& out) {
  const int tb = items.tasks_begin(item);
  const int tc = items.tasks_count(item);
  const bool stack = tc > 1;
  double offset = 0.0;
  for (int ti = tb; ti < tb + tc; ++ti) {
    const auto t =
        static_cast<std::size_t>(items.task_ids[static_cast<std::size_t>(ti)]);
    const double d = stack ? instance.task(static_cast<int>(t)).time(1)
                           : items.duration[static_cast<std::size_t>(item)];
    out.start[t] = start + offset;
    out.duration[t] = d;
    out.proc_begin[t] = base;
    out.proc_count[t] = count;
    offset += d;
  }
}

/// Run the list pass for the items in `order` (per-item placements into
/// `listed`) and expand into per-task placements in `tasks`.
void list_pass_flat(const Instance& instance, const FlatBatchItems& items,
                    const std::vector<int>& order, ListPassWorkspace& list,
                    FlatPlacements& listed, FlatPlacements& tasks) {
  list.jobs.clear();
  for (int idx : order) {
    const auto i = static_cast<std::size_t>(idx);
    list.jobs.push_back(ListJob{idx, items.procs[i], items.duration[i]});
  }
  list_schedule_into(instance.procs(), items.size(), list, listed);

  tasks.reset(instance.num_tasks());
  for (int idx = 0; idx < items.size(); ++idx) {
    const auto i = static_cast<std::size_t>(idx);
    const int base = static_cast<int>(tasks.proc_ids.size());
    const auto first = listed.proc_ids.begin() + listed.proc_begin[i];
    tasks.proc_ids.insert(tasks.proc_ids.end(), first,
                          first + listed.proc_count[i]);
    expand_item(instance, items, idx, listed.start[i], base,
                listed.proc_count[i], tasks);
  }
}

/// Draw a shuffle candidate's item order from `rng` into `order`; `ranges`
/// is scratch for the (optionally shuffled) batch order.
void draw_candidate_order(const std::vector<std::pair<int, int>>& batch_ranges,
                          bool shuffle_batch_order, Rng& rng,
                          std::vector<std::pair<int, int>>& ranges,
                          std::vector<int>& order) {
  ranges.assign(batch_ranges.begin(), batch_ranges.end());
  if (shuffle_batch_order) rng.shuffle(ranges);
  order.clear();
  for (const auto& [first, last] : ranges) {
    const auto segment_begin = order.size();
    for (int i = first; i < last; ++i) order.push_back(i);
    // Fisher-Yates on the segment in place (same draws as shuffling a
    // per-batch id vector, without one).
    const std::size_t len = order.size() - segment_begin;
    for (std::size_t i = len; i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(order[segment_begin + i - 1], order[segment_begin + j]);
    }
  }
}

/// Stable Smith-ratio ordering of the selected item indices. `order`
/// arrives in knapsack output order (ascending candidate index); sorting
/// with the original index as the tie-break is a stable sort by Smith's
/// ratio (weight / duration decreasing) without stable_sort's temporary
/// merge buffer.
void apply_local_order(const FlatBatchItems& items, std::vector<int>& order) {
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double ra = items.weight[static_cast<std::size_t>(a)] /
                      items.duration[static_cast<std::size_t>(a)];
    const double rb = items.weight[static_cast<std::size_t>(b)] /
                      items.duration[static_cast<std::size_t>(b)];
    if (ra != rb) return ra > rb;
    return a < b;
  });
}

/// Naive placement (§3.2 "the first schedule is simple") straight into flat
/// per-task placements: every item of batch j starts at t_j; stacks run
/// their tasks back to back on one processor; processors are packed from
/// id 0 upward within the batch.
void naive_placement(const Instance& instance, const FlatBatchItems& items,
                     const std::vector<std::pair<int, int>>& batch_ranges,
                     const std::vector<int>& range_grid, const TimeGrid& grid,
                     FlatPlacements& out) {
  out.reset(instance.num_tasks());
  for (std::size_t r = 0; r < batch_ranges.size(); ++r) {
    const double start = grid.batch_start(range_grid[r]);
    int next_proc = 0;
    for (int item = batch_ranges[r].first; item < batch_ranges[r].second;
         ++item) {
      const int np = items.procs[static_cast<std::size_t>(item)];
      const int base = static_cast<int>(out.proc_ids.size());
      for (int p = 0; p < np; ++p) out.proc_ids.push_back(next_proc + p);
      next_proc += np;
      expand_item(instance, items, item, start, base, np, out);
    }
  }
}

}  // namespace

/// Every per-call buffer of the driver and the hot path. Reuse carries only
/// capacity between calls — each field is cleared/re-filled before use, so
/// after the first shuffle candidate warms them the loop allocates nothing.
struct DemtWorkspace::Impl {
  std::vector<int> pending;
  std::vector<bool> remove;
  std::vector<std::pair<int, int>> batch_ranges;
  std::vector<int> range_grid;  ///< grid index per batch range
  DualTestWorkspace dual;     ///< bisection DP/pick buffers (allocation-free)
  InstanceAllotments tables;  ///< SoA allotment rows, rebuilt per call
  CmaxEstimate estimate;      ///< search result: estimate, bound, test count
  BatchBuildWorkspace batch_build;
  KnapsackWorkspace knap;
  FlatBatchItems cand_items;  ///< candidate items of the current batch
  FlatBatchItems flat_soa;    ///< selected items of all batches, flat
  std::vector<int> chosen;
  std::vector<int> order_scratch;
  // The list pass and the shuffle candidates.
  ListPassWorkspace list;
  FlatPlacements listed;      ///< per-item placements from the list pass
  FlatPlacements tasks;       ///< the pass expanded to per-task placements
  CompactionBuffers compact;
  std::vector<int> order;     ///< item order of the list pass
  std::vector<std::pair<int, int>> ranges;  ///< batch-order scratch
};

DemtWorkspace::DemtWorkspace() : impl_(std::make_unique<Impl>()) {}
DemtWorkspace::~DemtWorkspace() = default;
DemtWorkspace::DemtWorkspace(DemtWorkspace&&) noexcept = default;
DemtWorkspace& DemtWorkspace::operator=(DemtWorkspace&&) noexcept = default;

DemtResult demt_schedule(const Instance& instance, const DemtOptions& options) {
  DemtWorkspace workspace;
  DemtResult result;
  demt_schedule_into(instance, options, workspace, result.schedule,
                     result.diag);
  return result;
}

void demt_schedule_into(const Instance& instance, const DemtOptions& options,
                        DemtWorkspace& workspace,
                        FlatPlacements& out_placements,
                        DemtDiagnostics& out_diag) {
  if (instance.empty()) {
    throw std::invalid_argument("demt_schedule: empty instance");
  }
  if (options.shuffles < 0) {
    throw std::invalid_argument("demt_schedule: shuffles must be >= 0");
  }
  if (!(options.cmax_budget_factor >= 0.0)) {
    throw std::invalid_argument(
        "demt_schedule: cmax_budget_factor must be >= 0 (not NaN)");
  }
  DemtWorkspace::Impl& ws = *workspace.impl_;
  out_diag = DemtDiagnostics{};

  // Per-task allotment tables (SoA rows rebuilt in place), shared by the
  // dual-approximation search and every batch construction below.
  ws.tables.build(instance);

  // 1. Dual-approximation makespan estimate and the geometric grid.
  estimate_cmax_into(instance, options.dual_eps, ws.tables, ws.dual,
                     ws.estimate);
  const TimeGrid grid(ws.estimate.estimate, ws.tables.tmin());

  out_diag.cmax_estimate = ws.estimate.estimate;
  out_diag.cmax_lower_bound = ws.estimate.lower_bound;
  out_diag.grid_k = grid.K();
  out_diag.dual_tests = ws.estimate.dual_tests;

  // 2./3. Batch loop: select content for batches 0, 1, ... until every task
  // is placed. The paper iterates to K; the knapsack may leave tasks over,
  // so we keep opening (doubling) batches — by j >= K every task is a
  // candidate, and each further batch selects at least one task.
  std::vector<int>& pending = ws.pending;
  pending.resize(static_cast<std::size_t>(instance.num_tasks()));
  for (int i = 0; i < instance.num_tasks(); ++i) {
    pending[static_cast<std::size_t>(i)] = i;
  }
  BatchBuildOptions build_options;
  build_options.merge_small_tasks = options.merge_small_tasks;
  build_options.smith_order_stacks = options.smith_order_stacks;

  std::vector<bool>& remove = ws.remove;
  remove.assign(static_cast<std::size_t>(instance.num_tasks()), false);
  ws.flat_soa.clear();
  ws.batch_ranges.clear();
  ws.range_grid.clear();
  const int max_batches = grid.K() + 128;  // defensive cap; never reached
  for (int j = 0; !pending.empty(); ++j) {
    if (j > max_batches) {
      throw std::logic_error("demt_schedule: batch loop failed to drain");
    }
    build_batch_items_into(instance, pending, grid.batch_length(j),
                           build_options, ws.tables, ws.batch_build,
                           ws.cand_items);
    if (ws.cand_items.size() == 0) continue;  // nothing fits yet; sizes double
    select_batch_into(ws.cand_items, instance.procs(), ws.knap, ws.chosen);
    if (ws.chosen.empty()) continue;

    ws.order_scratch = ws.chosen;
    apply_local_order(ws.cand_items, ws.order_scratch);

    const int first = ws.flat_soa.size();
    std::fill(remove.begin(), remove.end(), false);
    for (int idx : ws.order_scratch) {
      if (ws.cand_items.is_stack(idx)) ++out_diag.merged_stacks;
      const int tb = ws.cand_items.tasks_begin(idx);
      const int tc = ws.cand_items.tasks_count(idx);
      for (int ti = tb; ti < tb + tc; ++ti) {
        remove[static_cast<std::size_t>(
            ws.cand_items.task_ids[static_cast<std::size_t>(ti)])] = true;
      }
      ws.flat_soa.append_from(ws.cand_items, idx);
    }
    ws.batch_ranges.emplace_back(first, ws.flat_soa.size());
    ws.range_grid.push_back(j);
    std::erase_if(pending,
                  [&](int t) { return remove[static_cast<std::size_t>(t)]; });
  }
  out_diag.num_batches = static_cast<int>(ws.batch_ranges.size());

  // 4. Compaction. The naive schedule is built in `out_placements`, which
  // keeps whichever schedule is current best from here on.
  naive_placement(instance, ws.flat_soa, ws.batch_ranges, ws.range_grid,
                  grid, out_placements);
  if (options.compaction == DemtOptions::Compaction::None) return;
  pull_forward(out_placements, instance.procs(), ws.compact);
  if (options.compaction == DemtOptions::Compaction::PullForward) return;

  // List pass over the items in ws.order, pulled forward into ws.tasks;
  // returns both metrics from the fused scan.
  const auto list_and_compact = [&] {
    list_pass_flat(instance, ws.flat_soa, ws.order, ws.list, ws.listed,
                   ws.tasks);
    pull_forward(ws.tasks, instance.procs(), ws.compact);
    return ws.tasks.metrics(instance);
  };

  // Full list pass in batch order; batch boundaries survive as index
  // ranges over the flat SoA item array.
  ws.order.resize(static_cast<std::size_t>(ws.flat_soa.size()));
  std::iota(ws.order.begin(), ws.order.end(), 0);
  const FlatMetrics listed = list_and_compact();

  // The list pass is the paper's preferred compaction, but it is a
  // heuristic: keep whichever of {pulled naive, listed} dominates on the
  // acceptance rule (minsum first, makespan budget).
  const FlatMetrics naive_metrics = out_placements.metrics(instance);
  double best_wc = naive_metrics.weighted_completion_sum;
  double base_cmax = naive_metrics.cmax;
  if (listed.weighted_completion_sum < best_wc || listed.cmax < base_cmax) {
    out_placements.copy_from(ws.tasks);
    best_wc = listed.weighted_completion_sum;
    base_cmax = listed.cmax;
  }

  // 5. Shuffle optimisation, one candidate at a time: randomise the order
  // within batches (optionally the batch order too), rerun the list pass
  // and the pull-forward, and keep the candidate at once if it lowers the
  // minsum within the makespan budget; the last accepted one wins.
  // Candidate s draws from the s-th fork of one seeded stream, so every
  // call is deterministic.
  const double cmax_budget = base_cmax * options.cmax_budget_factor;
  Rng rng(kShuffleSeed);
  for (int s = 0; s < options.shuffles; ++s) {
    Rng stream = rng.fork(static_cast<std::uint64_t>(s));
    draw_candidate_order(ws.batch_ranges, options.shuffle_batch_order, stream,
                         ws.ranges, ws.order);
    const FlatMetrics candidate = list_and_compact();
    if (candidate.weighted_completion_sum < best_wc - 1e-12 &&
        candidate.cmax <= cmax_budget + 1e-12) {
      best_wc = candidate.weighted_completion_sum;
      out_placements.copy_from(ws.tasks);
      ++out_diag.shuffle_improvements;
    }
  }
}

}  // namespace moldsched
