/// \file batching.hpp
/// Batch construction for the bi-criteria algorithm (§3.2): candidate
/// filtering, merging of small sequential tasks into single-processor
/// stacks, and the knapsack selection of the batch content. Factored out of
/// the driver so each stage is independently testable; the array-of-structs
/// oracle the tests compare against is tests/reference/batching_reference.hpp.

#pragma once

#include <vector>

#include "core/knapsack.hpp"
#include "tasks/allotment_table.hpp"
#include "tasks/instance.hpp"

namespace moldsched {

struct BatchBuildOptions {
  bool merge_small_tasks = true;
  /// Order tasks inside a stack by Smith's rule (weight / time decreasing),
  /// which is optimal for the stack's own minsum. false = the paper's
  /// literal decreasing-weight order.
  bool smith_order_stacks = true;
};

/// Structure-of-arrays batch items. An item is one schedulable unit inside
/// a batch: either a single task at a fixed allotment, or a stack of small
/// sequential tasks sharing one processor, executed back to back. All
/// items' task lists live in one flat pool (`task_ids` sliced by
/// `task_begin`), and procs/weight/duration are parallel arrays the
/// knapsack and placement loops sweep directly. clear() keeps capacity, so
/// a pooled FlatBatchItems makes batch construction allocation-free once
/// warm.
struct FlatBatchItems {
  std::vector<int> task_ids;    ///< concatenated task lists
  std::vector<int> task_begin;  ///< size() + 1 offsets into task_ids
  std::vector<int> procs;
  std::vector<double> weight;
  std::vector<double> duration;

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(procs.size());
  }
  [[nodiscard]] int tasks_begin(int item) const noexcept {
    return task_begin[static_cast<std::size_t>(item)];
  }
  [[nodiscard]] int tasks_count(int item) const noexcept {
    return task_begin[static_cast<std::size_t>(item) + 1] -
           task_begin[static_cast<std::size_t>(item)];
  }
  [[nodiscard]] bool is_stack(int item) const noexcept {
    return tasks_count(item) > 1;
  }

  void clear() {
    task_ids.clear();
    task_begin.assign(1, 0);
    procs.clear();
    weight.clear();
    duration.clear();
  }
  void push_item(int task_id, int alloc, double w, double d) {
    task_ids.push_back(task_id);
    task_begin.push_back(static_cast<int>(task_ids.size()));
    procs.push_back(alloc);
    weight.push_back(w);
    duration.push_back(d);
  }
  /// Append item `src_item` of `src` (including its task slice).
  void append_from(const FlatBatchItems& src, int src_item) {
    const int b = src.tasks_begin(src_item);
    const int e = b + src.tasks_count(src_item);
    for (int t = b; t < e; ++t) task_ids.push_back(src.task_ids[t]);
    task_begin.push_back(static_cast<int>(task_ids.size()));
    procs.push_back(src.procs[static_cast<std::size_t>(src_item)]);
    weight.push_back(src.weight[static_cast<std::size_t>(src_item)]);
    duration.push_back(src.duration[static_cast<std::size_t>(src_item)]);
  }
};

/// Scratch for build_batch_items_into: the small-task list, each small
/// task's stack assignment, and per-stack accumulators. Capacity only,
/// never state, between calls.
struct BatchBuildWorkspace {
  std::vector<int> small;
  std::vector<int> small_stack;     ///< stack index per small task
  std::vector<double> stack_duration;
  std::vector<double> stack_weight;
  std::vector<int> stack_fill;      ///< scatter cursor per stack
};

/// Build the candidate items of a batch of length `length` from the pending
/// tasks, straight into pooled flat arrays. A task is a candidate when some
/// allotment finishes within the batch (the paper's canonical choice: the
/// SMALLEST such allotment, an O(log max_procs) lookup in `tables`). Small
/// sequential candidates (single-processor time at most length/2) are
/// stacked first-fit in decreasing weight order when merging is enabled;
/// stacks follow the single-task items. Allocation-free once `ws` and `out`
/// are warm; this is what demt_schedule_into calls per batch length.
void build_batch_items_into(const Instance& instance,
                            const std::vector<int>& pending, double length,
                            const BatchBuildOptions& options,
                            const InstanceAllotments& tables,
                            BatchBuildWorkspace& ws, FlatBatchItems& out);

/// Select the weight-maximising subset of items within the processor
/// budget `m` (vectorized row-sweep knapsack); writes indices into
/// `selected`, increasing. Allocation-free once warm.
void select_batch_into(const FlatBatchItems& items, int m,
                       KnapsackWorkspace& knap, std::vector<int>& selected);

}  // namespace moldsched
