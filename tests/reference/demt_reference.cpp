#include "reference/demt_reference.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "reference/batching_reference.hpp"
#include "reference/cmax_estimator_reference.hpp"
#include "reference/compaction_reference.hpp"
#include "sched/compaction.hpp"
#include "sched/flat_schedule.hpp"
#include "sched/list_scheduler.hpp"
#include "tasks/time_grid.hpp"
#include "util/rng.hpp"

namespace moldsched {

namespace {

/// Root of the shuffle stage's RNG streams: candidate s draws from
/// Rng(kShuffleSeed).fork(s), as in the library.
constexpr std::uint64_t kShuffleSeed = 0x5EEDF00DULL;

/// A selected batch: its grid index plus the items chosen by the knapsack.
struct SelectedBatch {
  int grid_index = 0;
  std::vector<BatchItem> items;
};

/// Buffers of one shuffle-candidate evaluation.
struct ShuffleWorkspace {
  ListPassWorkspace list;
  FlatPlacements items;             ///< per-item placements from the list pass
  FlatPlacements tasks;             ///< expanded per-task placements
  CompactionBuffers compact;
  std::vector<int> order;           ///< shuffled item order
  std::vector<std::pair<int, int>> ranges;  ///< batch-range scratch
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

/// Local order of a batch's items for the list pass: Smith's ratio
/// (weight / duration) decreasing, ties in knapsack output order.
void apply_local_order(std::vector<BatchItem>& items) {
  std::stable_sort(items.begin(), items.end(),
                   [](const BatchItem& a, const BatchItem& b) {
                     return a.weight / a.duration > b.weight / b.duration;
                   });
}

/// Run the list pass for the items in `order` and expand into per-task
/// flat placements (stacks share their item's processor range).
void list_pass_flat(const Instance& instance,
                    const std::vector<BatchItem>& flat_items,
                    const std::vector<int>& order, ShuffleWorkspace& ws) {
  ws.list.jobs.clear();
  for (int idx : order) {
    const auto& item = flat_items[static_cast<std::size_t>(idx)];
    ws.list.jobs.push_back(ListJob{idx, item.procs, item.duration});
  }
  list_schedule_into(instance.procs(), static_cast<int>(flat_items.size()),
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

/// Generate the candidate's item order from `rng` into ws.order: optionally
/// shuffle the batch order, then Fisher-Yates inside each batch segment.
void draw_candidate_order(const std::vector<std::pair<int, int>>& batch_ranges,
                          bool shuffle_batch_order, Rng& rng,
                          ShuffleWorkspace& ws) {
  ws.ranges.assign(batch_ranges.begin(), batch_ranges.end());
  if (shuffle_batch_order) rng.shuffle(ws.ranges);
  ws.order.clear();
  for (const auto& [first, last] : ws.ranges) {
    const auto segment_begin = ws.order.size();
    for (int i = first; i < last; ++i) ws.order.push_back(i);
    const std::size_t len = ws.order.size() - segment_begin;
    for (std::size_t i = len; i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(ws.order[segment_begin + i - 1], ws.order[segment_begin + j]);
    }
  }
}

/// Evaluate one shuffle candidate: generate its order from `rng` (taken by
/// value — each candidate owns a pre-forked stream), run the list pass +
/// compaction, return (weighted completion sum, cmax). The final task
/// placements stay in `ws.tasks` for the winner's materialisation.
std::pair<double, double> evaluate_shuffle_candidate(
    const Instance& instance, const std::vector<BatchItem>& flat_items,
    const std::vector<std::pair<int, int>>& batch_ranges,
    bool shuffle_batch_order, Rng rng, ShuffleWorkspace& ws) {
  draw_candidate_order(batch_ranges, shuffle_batch_order, rng, ws);
  list_pass_flat(instance, flat_items, ws.order, ws);
  pull_forward(ws.tasks, instance.procs(), ws.compact);
  return {ws.tasks.weighted_completion_sum(instance), ws.tasks.cmax()};
}

}  // namespace

DemtResult demt_schedule_reference(const Instance& instance,
                                   const DemtOptions& options) {
  if (instance.empty()) {
    throw std::invalid_argument("demt_schedule: empty instance");
  }

  // 1. Dual-approximation estimate via the scalar reference search
  // (scan-based allotment lookups, budget-outer dual-test DP).
  const CmaxSearchReference estimate =
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
    apply_local_order(batch.items);
    batches.push_back(std::move(batch));
    std::erase_if(pending,
                  [&](int t) { return remove[static_cast<std::size_t>(t)]; });
  }
  diag.num_batches = static_cast<int>(batches.size());

  // 4. Compaction on the Schedule representation (multipass pull-forward).
  Schedule best = naive_placement(instance, batches, grid);
  if (options.compaction == DemtOptions::Compaction::None) {
    return DemtResult{to_flat(best), diag};
  }
  pull_forward(best);
  if (options.compaction == DemtOptions::Compaction::PullForward) {
    return DemtResult{to_flat(best), diag};
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
      best = to_schedule(main_ws.tasks, instance.procs());
      best_wc = wc;
      base_cmax = cm;
    }
  }

  // 5. Shuffles: every candidate from its forked stream, then the
  // acceptance rule replayed in candidate order.
  const int shuffles = options.shuffles;
  if (shuffles <= 0) return DemtResult{to_flat(best), diag};

  Rng rng(kShuffleSeed);
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
    best = to_schedule(main_ws.tasks, instance.procs());
  }

  return DemtResult{to_flat(best), diag};
}

}  // namespace moldsched
