#include "core/demt.hpp"

#include <algorithm>
#include <memory>
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
#include "util/thread_pool.hpp"

namespace moldsched {

namespace {

// ---------------------------------------------------------------------
// Scalar reference pipeline pieces (array-of-structs batches, Schedule
// placement). These are what the driver ran before the SoA rewrite; they
// now back demt_schedule_reference, the bit-identity anchor of the
// differential suite.

/// A selected batch: its grid index plus the items chosen by the knapsack.
struct SelectedBatch {
  int grid_index = 0;
  std::vector<BatchItem> items;
};

/// Naive placement (§3.2 "the first schedule is simple"): every item of
/// batch j starts at t_j; stacks run their tasks back to back on one
/// processor; processors are packed from id 0 upward within the batch.
Schedule naive_placement(const Instance& instance,
                         const std::vector<SelectedBatch>& batches,
                         const TimeGrid& grid) {
  Schedule schedule(instance.procs(), instance.num_tasks());
  for (const auto& batch : batches) {
    const double start = grid.batch_start(batch.grid_index);
    int next_proc = 0;
    for (const auto& item : batch.items) {
      std::vector<int> procs(static_cast<std::size_t>(item.procs));
      for (int p = 0; p < item.procs; ++p) procs[static_cast<std::size_t>(p)] = next_proc + p;
      next_proc += item.procs;
      if (item.is_stack()) {
        double offset = 0.0;
        for (int task_id : item.tasks) {
          const double d = instance.task(task_id).time(1);
          schedule.place(task_id, start + offset, d, procs);
          offset += d;
        }
      } else {
        const int task_id = item.tasks.front();
        schedule.place(task_id, start, item.duration, procs);
      }
    }
  }
  return schedule;
}

void apply_local_order(const Instance&, std::vector<BatchItem>& items,
                       DemtOptions::LocalOrder order) {
  switch (order) {
    case DemtOptions::LocalOrder::AsSelected:
      return;
    case DemtOptions::LocalOrder::SmithRatio:
      std::stable_sort(items.begin(), items.end(),
                       [](const BatchItem& a, const BatchItem& b) {
                         return a.weight / a.duration > b.weight / b.duration;
                       });
      return;
    case DemtOptions::LocalOrder::LongestFirst:
      std::stable_sort(items.begin(), items.end(),
                       [](const BatchItem& a, const BatchItem& b) {
                         return a.duration > b.duration;
                       });
      return;
  }
}

// ---------------------------------------------------------------------
// The shuffle-compaction hot path. Every candidate evaluation runs inside
// one ShuffleWorkspace: the list pass, the item->task expansion, the
// pull-forward compaction and the fused metric scan touch only flat
// buffers that are cleared (capacity kept) per candidate, so after the
// first candidate warms a workspace the loop performs no heap allocation
// at all.
struct ShuffleWorkspace {
  ListPassWorkspace list;
  FlatPlacements items;             ///< per-item placements from the list pass
  FlatPlacements tasks;             ///< expanded per-task placements
  CompactionBuffers compact;
  std::vector<int> order;           ///< shuffled item order
  std::vector<std::pair<int, int>> ranges;  ///< batch-range scratch
};

/// Run the list pass for the items in `order` and expand into per-task
/// flat placements (stacks share their item's processor range).
/// AoS-item form, reference pipeline only.
void list_pass_flat(const Instance& instance,
                    const std::vector<BatchItem>& flat_items,
                    const std::vector<int>& order, ShuffleWorkspace& ws) {
  ws.list.jobs.clear();
  for (int idx : order) {
    const auto& item = flat_items[static_cast<std::size_t>(idx)];
    ws.list.jobs.push_back(ListJob{idx, item.procs, item.duration, 0.0});
  }
  static const std::vector<BusyInterval> kNoReservations;
  list_schedule_into(instance.procs(),
                     static_cast<int>(flat_items.size()), kNoReservations,
                     ws.list, ws.items);

  ws.tasks.reset(instance.num_tasks());
  for (std::size_t idx = 0; idx < flat_items.size(); ++idx) {
    const auto& item = flat_items[idx];
    const double item_start = ws.items.start[idx];
    const int base = static_cast<int>(ws.tasks.proc_ids.size());
    const auto begin = static_cast<std::size_t>(ws.items.proc_begin[idx]);
    const auto count = static_cast<std::size_t>(ws.items.proc_count[idx]);
    for (std::size_t i = begin; i < begin + count; ++i) {
      ws.tasks.proc_ids.push_back(ws.items.proc_ids[i]);
    }
    double offset = 0.0;
    for (int task_id : item.tasks) {
      const auto t = static_cast<std::size_t>(task_id);
      const double d = item.is_stack() ? instance.task(task_id).time(1)
                                       : item.duration;
      ws.tasks.start[t] = item_start + offset;
      ws.tasks.duration[t] = d;
      ws.tasks.proc_begin[t] = base;
      ws.tasks.proc_count[t] = static_cast<int>(count);
      offset += d;
    }
  }
}

/// Same list pass + expansion over SoA items — the serving path. Identical
/// values in identical order; only the item storage differs.
void list_pass_flat_soa(const Instance& instance, const FlatBatchItems& items,
                        const std::vector<int>& order, ShuffleWorkspace& ws) {
  ws.list.jobs.clear();
  for (int idx : order) {
    const auto i = static_cast<std::size_t>(idx);
    ws.list.jobs.push_back(ListJob{idx, items.procs[i], items.duration[i], 0.0});
  }
  static const std::vector<BusyInterval> kNoReservations;
  list_schedule_into(instance.procs(), items.size(), kNoReservations, ws.list,
                     ws.items);

  ws.tasks.reset(instance.num_tasks());
  for (int idx = 0; idx < items.size(); ++idx) {
    const auto i = static_cast<std::size_t>(idx);
    const double item_start = ws.items.start[i];
    const int base = static_cast<int>(ws.tasks.proc_ids.size());
    const auto begin = static_cast<std::size_t>(ws.items.proc_begin[i]);
    const auto count = static_cast<std::size_t>(ws.items.proc_count[i]);
    for (std::size_t p = begin; p < begin + count; ++p) {
      ws.tasks.proc_ids.push_back(ws.items.proc_ids[p]);
    }
    const int tb = items.tasks_begin(idx);
    const int tc = items.tasks_count(idx);
    const bool stack = tc > 1;
    double offset = 0.0;
    for (int ti = tb; ti < tb + tc; ++ti) {
      const auto t =
          static_cast<std::size_t>(items.task_ids[static_cast<std::size_t>(ti)]);
      const double d = stack ? instance.task(static_cast<int>(t)).time(1)
                             : items.duration[i];
      ws.tasks.start[t] = item_start + offset;
      ws.tasks.duration[t] = d;
      ws.tasks.proc_begin[t] = base;
      ws.tasks.proc_count[t] = static_cast<int>(count);
      offset += d;
    }
  }
}

/// Generate the candidate's item order from `rng` into ws.order. Shared by
/// both pipelines — the draws, and hence the orders, are identical.
void draw_candidate_order(const std::vector<std::pair<int, int>>& batch_ranges,
                          bool shuffle_batch_order, Rng& rng,
                          ShuffleWorkspace& ws) {
  ws.ranges.assign(batch_ranges.begin(), batch_ranges.end());
  if (shuffle_batch_order) rng.shuffle(ws.ranges);
  ws.order.clear();
  for (const auto& [first, last] : ws.ranges) {
    const auto segment_begin = ws.order.size();
    for (int i = first; i < last; ++i) ws.order.push_back(i);
    // Fisher-Yates on the segment in place (same draws as shuffling a
    // per-batch id vector, without one).
    const std::size_t len = ws.order.size() - segment_begin;
    for (std::size_t i = len; i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(ws.order[segment_begin + i - 1], ws.order[segment_begin + j]);
    }
  }
}

/// Evaluate one shuffle candidate (reference AoS pipeline): generate its
/// order from `rng` (taken by value — each candidate owns a pre-forked
/// stream), run the flat list pass + compaction, return (weighted
/// completion sum, cmax). The final task placements stay in `ws.tasks` for
/// the winner's materialisation.
std::pair<double, double> evaluate_shuffle_candidate(
    const Instance& instance, const std::vector<BatchItem>& flat_items,
    const std::vector<std::pair<int, int>>& batch_ranges,
    bool shuffle_batch_order, Rng rng, ShuffleWorkspace& ws) {
  draw_candidate_order(batch_ranges, shuffle_batch_order, rng, ws);
  list_pass_flat(instance, flat_items, ws.order, ws);
  pull_forward(ws.tasks, instance.procs(), ws.compact);
  return {ws.tasks.weighted_completion_sum(instance), ws.tasks.cmax()};
}

/// SoA-item candidate evaluation with the fused metric scan. Same draws,
/// same list pass values, same compaction, same metric accumulation order.
FlatMetrics evaluate_shuffle_candidate_soa(
    const Instance& instance, const FlatBatchItems& items,
    const std::vector<std::pair<int, int>>& batch_ranges,
    bool shuffle_batch_order, Rng rng, ShuffleWorkspace& ws) {
  draw_candidate_order(batch_ranges, shuffle_batch_order, rng, ws);
  list_pass_flat_soa(instance, items, ws.order, ws);
  return pull_forward_metrics(ws.tasks, instance.procs(), ws.compact,
                              instance);
}

/// Stable local ordering of the selected item indices. `order` arrives in
/// knapsack output order (ascending candidate index); sorting with the
/// original index as the tie-break reproduces exactly the permutation
/// std::stable_sort produces on the materialised items — without
/// stable_sort's temporary merge buffer.
void apply_local_order_soa(const FlatBatchItems& items, std::vector<int>& order,
                           DemtOptions::LocalOrder local_order) {
  switch (local_order) {
    case DemtOptions::LocalOrder::AsSelected:
      return;
    case DemtOptions::LocalOrder::SmithRatio:
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        const double ra = items.weight[static_cast<std::size_t>(a)] /
                          items.duration[static_cast<std::size_t>(a)];
        const double rb = items.weight[static_cast<std::size_t>(b)] /
                          items.duration[static_cast<std::size_t>(b)];
        if (ra != rb) return ra > rb;
        return a < b;
      });
      return;
    case DemtOptions::LocalOrder::LongestFirst:
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        const double da = items.duration[static_cast<std::size_t>(a)];
        const double db = items.duration[static_cast<std::size_t>(b)];
        if (da != db) return da > db;
        return a < b;
      });
      return;
  }
}

/// Naive placement straight into flat per-task placements: same starts,
/// durations and ascending packed processor ids as the Schedule-based
/// reference, batch by batch.
void naive_placement_flat(const Instance& instance, const FlatBatchItems& items,
                          const std::vector<std::pair<int, int>>& batch_ranges,
                          const std::vector<int>& range_grid,
                          const TimeGrid& grid, FlatPlacements& out) {
  out.reset(instance.num_tasks());
  for (std::size_t r = 0; r < batch_ranges.size(); ++r) {
    const double start = grid.batch_start(range_grid[r]);
    int next_proc = 0;
    for (int item = batch_ranges[r].first; item < batch_ranges[r].second;
         ++item) {
      const auto i = static_cast<std::size_t>(item);
      const int np = items.procs[i];
      const int base = static_cast<int>(out.proc_ids.size());
      for (int p = 0; p < np; ++p) out.proc_ids.push_back(next_proc + p);
      next_proc += np;
      const int tb = items.tasks_begin(item);
      const int tc = items.tasks_count(item);
      const bool stack = tc > 1;
      double offset = 0.0;
      for (int ti = tb; ti < tb + tc; ++ti) {
        const auto t = static_cast<std::size_t>(
            items.task_ids[static_cast<std::size_t>(ti)]);
        const double d = stack ? instance.task(static_cast<int>(t)).time(1)
                               : items.duration[i];
        out.start[t] = start + offset;
        out.duration[t] = d;
        out.proc_begin[t] = base;
        out.proc_count[t] = np;
        offset += d;
      }
    }
  }
}

}  // namespace

/// Every per-call buffer of the driver and the hot path. Reuse carries only
/// capacity between calls — each field is cleared/re-filled before use.
struct DemtWorkspace::Impl {
  std::vector<int> pending;
  std::vector<bool> remove;
  std::vector<std::pair<int, int>> batch_ranges;
  std::vector<int> range_grid;      ///< grid index per batch range
  std::vector<int> identity_order;
  std::vector<Rng> candidate_rngs;
  std::vector<double> cand_wc;
  std::vector<double> cand_cm;
  ShuffleWorkspace main_ws;
  std::vector<ShuffleWorkspace> strand_ws;
  DualTestWorkspace dual;     ///< bisection DP/pick buffers (allocation-free)
  InstanceAllotments tables;  ///< SoA allotment rows, rebuilt per call
  CmaxEstimate estimate;      ///< pooled search result (partition reused)
  BatchBuildWorkspace batch_build;
  KnapsackWorkspace knap;
  FlatBatchItems cand_items;  ///< candidate items of the current batch
  FlatBatchItems flat_soa;    ///< selected items of all batches, flat
  std::vector<int> chosen;
  std::vector<int> order_scratch;
  FlatPlacements naive;
  CompactionBuffers naive_compact;
};

DemtWorkspace::DemtWorkspace() : impl_(std::make_unique<Impl>()) {}
DemtWorkspace::~DemtWorkspace() = default;
DemtWorkspace::DemtWorkspace(DemtWorkspace&&) noexcept = default;
DemtWorkspace& DemtWorkspace::operator=(DemtWorkspace&&) noexcept = default;

DemtResult demt_schedule(const Instance& instance, const DemtOptions& options) {
  DemtWorkspace workspace;
  FlatPlacements flat;
  DemtDiagnostics diag;
  demt_schedule_into(instance, options, workspace, flat, diag);
  return DemtResult{flat.to_schedule(instance.procs()), diag};
}

void demt_schedule_into(const Instance& instance, const DemtOptions& options,
                        DemtWorkspace& workspace,
                        FlatPlacements& out_placements,
                        DemtDiagnostics& out_diag) {
  if (instance.empty()) {
    throw std::invalid_argument("demt_schedule: empty instance");
  }
  DemtWorkspace::Impl& ws = *workspace.impl_;
  out_diag = DemtDiagnostics{};

  // Per-task allotment tables (SoA rows rebuilt in place), shared by the
  // dual-approximation search and every batch construction below.
  ws.tables.build(instance);

  // 1. Dual-approximation makespan estimate and the geometric grid.
  ws.dual.warm.enabled = options.warm_dual_start;
  estimate_cmax_into(instance, options.dual_eps, ws.tables, ws.dual,
                     ws.estimate);
  const TimeGrid grid(ws.estimate.estimate, instance.tmin());

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
    apply_local_order_soa(ws.cand_items, ws.order_scratch, options.local_order);

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

  // 4. Compaction.
  naive_placement_flat(instance, ws.flat_soa, ws.batch_ranges, ws.range_grid,
                       grid, ws.naive);
  if (options.compaction == DemtOptions::Compaction::None) {
    out_placements.copy_from(ws.naive);
    return;
  }
  pull_forward(ws.naive, instance.procs(), ws.naive_compact);
  if (options.compaction == DemtOptions::Compaction::PullForward) {
    out_placements.copy_from(ws.naive);
    return;
  }

  // Full list pass in batch order; batch boundaries survive as index
  // ranges over the flat SoA item array.
  ShuffleWorkspace& main_ws = ws.main_ws;
  std::vector<int>& identity_order = ws.identity_order;
  identity_order.resize(static_cast<std::size_t>(ws.flat_soa.size()));
  for (std::size_t i = 0; i < identity_order.size(); ++i) {
    identity_order[i] = static_cast<int>(i);
  }
  list_pass_flat_soa(instance, ws.flat_soa, identity_order, main_ws);
  const FlatMetrics listed = pull_forward_metrics(
      main_ws.tasks, instance.procs(), main_ws.compact, instance);

  // The list pass is the paper's preferred compaction, but it is a
  // heuristic: keep whichever of {pulled naive, listed} dominates on the
  // acceptance rule (minsum first, makespan budget).
  const FlatMetrics naive_metrics = ws.naive.metrics(instance);
  double best_wc = naive_metrics.weighted_completion_sum;
  double base_cmax = naive_metrics.cmax;
  if (listed.weighted_completion_sum < best_wc || listed.cmax < base_cmax) {
    out_placements.copy_from(main_ws.tasks);
    best_wc = listed.weighted_completion_sum;
    base_cmax = listed.cmax;
  } else {
    out_placements.copy_from(ws.naive);
  }

  // 5. Shuffle optimisation: randomise the order within batches (optionally
  // the batch order too), rerun the list pass, keep improvements within the
  // makespan budget. Candidates are independent: each owns a stream forked
  // in candidate order from the seed, all of them are evaluated (possibly
  // concurrently, each strand inside its own reusable workspace), and a
  // sequential replay of the (minsum, cmax) pairs applies the paper's
  // acceptance rule — so the result is identical for any worker count.
  const int shuffles = options.shuffles;
  if (shuffles <= 0) return;

  Rng rng(options.shuffle_seed);
  std::vector<Rng>& candidate_rngs = ws.candidate_rngs;
  candidate_rngs.clear();
  candidate_rngs.reserve(static_cast<std::size_t>(shuffles));
  for (int s = 0; s < shuffles; ++s) {
    candidate_rngs.push_back(rng.fork(static_cast<std::uint64_t>(s)));
  }
  std::vector<double>& cand_wc = ws.cand_wc;
  cand_wc.assign(static_cast<std::size_t>(shuffles), 0.0);
  std::vector<double>& cand_cm = ws.cand_cm;
  cand_cm.assign(static_cast<std::size_t>(shuffles), 0.0);

  int max_strands = options.shuffle_workers;
  if (max_strands <= 0) {
    max_strands = static_cast<int>(shared_thread_pool().size());
  }
  max_strands = std::min(max_strands, shuffles);
  // Never block on the shared pool from one of its own workers (the
  // experiment harness runs whole replicates on pool threads).
  if (ThreadPool::this_thread_is_worker()) max_strands = 1;

  if (max_strands > 1) {
    ThreadPool& pool = shared_thread_pool();
    std::vector<ShuffleWorkspace>& workspaces = ws.strand_ws;
    workspaces.resize(std::min<std::size_t>(
        pool.size(), static_cast<std::size_t>(max_strands)));
    pool.parallel_for_slots(
        0, static_cast<std::size_t>(shuffles),
        [&](std::size_t slot, std::size_t s) {
          const FlatMetrics result = evaluate_shuffle_candidate_soa(
              instance, ws.flat_soa, ws.batch_ranges,
              options.shuffle_batch_order, candidate_rngs[s],
              workspaces[slot]);
          cand_wc[s] = result.weighted_completion_sum;
          cand_cm[s] = result.cmax;
        },
        static_cast<std::size_t>(max_strands));
    out_diag.shuffle_strands = static_cast<int>(workspaces.size());
  } else {
    for (int s = 0; s < shuffles; ++s) {
      const FlatMetrics result = evaluate_shuffle_candidate_soa(
          instance, ws.flat_soa, ws.batch_ranges, options.shuffle_batch_order,
          candidate_rngs[static_cast<std::size_t>(s)], main_ws);
      cand_wc[static_cast<std::size_t>(s)] = result.weighted_completion_sum;
      cand_cm[static_cast<std::size_t>(s)] = result.cmax;
    }
    out_diag.shuffle_strands = 1;
  }

  // Sequential replay of the acceptance rule, in candidate order.
  const double cmax_budget = base_cmax * options.cmax_budget_factor;
  int winner = -1;
  for (int s = 0; s < shuffles; ++s) {
    const double wc = cand_wc[static_cast<std::size_t>(s)];
    const double cm = cand_cm[static_cast<std::size_t>(s)];
    if (wc < best_wc - 1e-12 && cm <= cmax_budget + 1e-12) {
      best_wc = wc;
      winner = s;
      ++out_diag.shuffle_improvements;
    }
  }
  if (winner >= 0) {
    // Re-evaluate the winning candidate (its RNG stream regenerates the
    // same order) and keep its task placements as the result.
    (void)evaluate_shuffle_candidate_soa(
        instance, ws.flat_soa, ws.batch_ranges, options.shuffle_batch_order,
        candidate_rngs[static_cast<std::size_t>(winner)], main_ws);
    out_placements.copy_from(main_ws.tasks);
  }
}

DemtResult demt_schedule_reference(const Instance& instance,
                                   const DemtOptions& options) {
  if (instance.empty()) {
    throw std::invalid_argument("demt_schedule: empty instance");
  }

  // 1. Dual-approximation estimate via the scalar reference search
  // (scan-based allotment lookups, budget-outer dual-test DP).
  const CmaxEstimate estimate =
      estimate_cmax_reference(instance, options.dual_eps);
  const TimeGrid grid(estimate.estimate, instance.tmin());

  DemtDiagnostics diag;
  diag.cmax_estimate = estimate.estimate;
  diag.cmax_lower_bound = estimate.lower_bound;
  diag.grid_k = grid.K();
  diag.dual_tests = estimate.dual_tests;

  // 2./3. Batch loop over array-of-structs items, scan-based candidate
  // lookups, scalar knapsack (select_batch).
  std::vector<int> pending(static_cast<std::size_t>(instance.num_tasks()));
  for (int i = 0; i < instance.num_tasks(); ++i) {
    pending[static_cast<std::size_t>(i)] = i;
  }
  BatchBuildOptions build_options;
  build_options.merge_small_tasks = options.merge_small_tasks;
  build_options.smith_order_stacks = options.smith_order_stacks;

  std::vector<SelectedBatch> batches;
  std::vector<bool> remove(static_cast<std::size_t>(instance.num_tasks()),
                           false);
  const int max_batches = grid.K() + 128;
  for (int j = 0; !pending.empty(); ++j) {
    if (j > max_batches) {
      throw std::logic_error("demt_schedule: batch loop failed to drain");
    }
    auto items = build_batch_items(instance, pending, grid.batch_length(j),
                                   build_options);
    if (items.empty()) continue;
    const std::vector<int> chosen = select_batch(items, instance.procs());
    if (chosen.empty()) continue;

    SelectedBatch batch;
    batch.grid_index = j;
    std::fill(remove.begin(), remove.end(), false);
    for (int idx : chosen) {
      auto& item = items[static_cast<std::size_t>(idx)];
      if (item.is_stack()) ++diag.merged_stacks;
      for (int task_id : item.tasks) {
        remove[static_cast<std::size_t>(task_id)] = true;
      }
      batch.items.push_back(std::move(item));
    }
    apply_local_order(instance, batch.items, options.local_order);
    batches.push_back(std::move(batch));
    std::erase_if(pending,
                  [&](int t) { return remove[static_cast<std::size_t>(t)]; });
  }
  diag.num_batches = static_cast<int>(batches.size());

  // 4. Compaction on the Schedule representation (multipass pull-forward).
  Schedule best = naive_placement(instance, batches, grid);
  if (options.compaction == DemtOptions::Compaction::None) {
    return DemtResult{std::move(best), diag};
  }
  pull_forward(best);
  if (options.compaction == DemtOptions::Compaction::PullForward) {
    return DemtResult{std::move(best), diag};
  }

  std::vector<BatchItem> flat_items;
  std::vector<std::pair<int, int>> batch_ranges;
  for (const auto& batch : batches) {
    const int first = static_cast<int>(flat_items.size());
    for (const auto& item : batch.items) flat_items.push_back(item);
    batch_ranges.emplace_back(first, static_cast<int>(flat_items.size()));
  }

  ShuffleWorkspace main_ws;
  std::vector<int> identity_order(flat_items.size());
  for (std::size_t i = 0; i < identity_order.size(); ++i) {
    identity_order[i] = static_cast<int>(i);
  }
  list_pass_flat(instance, flat_items, identity_order, main_ws);
  pull_forward(main_ws.tasks, instance.procs(), main_ws.compact);

  double best_wc = best.weighted_completion_sum(instance);
  double base_cmax = best.cmax();
  {
    const double wc = main_ws.tasks.weighted_completion_sum(instance);
    const double cm = main_ws.tasks.cmax();
    if (wc < best_wc || cm < base_cmax) {
      best = main_ws.tasks.to_schedule(instance.procs());
      best_wc = wc;
      base_cmax = cm;
    }
  }

  // 5. Shuffles, always evaluated sequentially (the replay acceptance rule
  // makes the result independent of evaluation concurrency anyway).
  const int shuffles = options.shuffles;
  if (shuffles <= 0) return DemtResult{std::move(best), diag};

  Rng rng(options.shuffle_seed);
  std::vector<Rng> candidate_rngs;
  candidate_rngs.reserve(static_cast<std::size_t>(shuffles));
  for (int s = 0; s < shuffles; ++s) {
    candidate_rngs.push_back(rng.fork(static_cast<std::uint64_t>(s)));
  }
  std::vector<double> cand_wc(static_cast<std::size_t>(shuffles), 0.0);
  std::vector<double> cand_cm(static_cast<std::size_t>(shuffles), 0.0);
  for (int s = 0; s < shuffles; ++s) {
    const auto result = evaluate_shuffle_candidate(
        instance, flat_items, batch_ranges, options.shuffle_batch_order,
        candidate_rngs[static_cast<std::size_t>(s)], main_ws);
    cand_wc[static_cast<std::size_t>(s)] = result.first;
    cand_cm[static_cast<std::size_t>(s)] = result.second;
  }
  diag.shuffle_strands = 1;

  const double cmax_budget = base_cmax * options.cmax_budget_factor;
  int winner = -1;
  for (int s = 0; s < shuffles; ++s) {
    const double wc = cand_wc[static_cast<std::size_t>(s)];
    const double cm = cand_cm[static_cast<std::size_t>(s)];
    if (wc < best_wc - 1e-12 && cm <= cmax_budget + 1e-12) {
      best_wc = wc;
      winner = s;
      ++diag.shuffle_improvements;
    }
  }
  if (winner >= 0) {
    (void)evaluate_shuffle_candidate(
        instance, flat_items, batch_ranges, options.shuffle_batch_order,
        candidate_rngs[static_cast<std::size_t>(winner)], main_ws);
    best = main_ws.tasks.to_schedule(instance.procs());
  }

  return DemtResult{std::move(best), diag};
}

}  // namespace moldsched
