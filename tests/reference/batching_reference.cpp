#include "reference/batching_reference.hpp"

#include <algorithm>
#include <iterator>

#include "reference/allotment_table_reference.hpp"
#include "reference/knapsack_reference.hpp"

namespace moldsched {

std::vector<BatchItem> build_batch_items(const Instance& instance,
                                         const std::vector<int>& pending,
                                         double length,
                                         const BatchBuildOptions& options) {
  std::vector<BatchItem> items;
  std::vector<int> small;  // mergeable: can run on 1 proc in <= length/2

  for (int task_id : pending) {
    const MoldableTask& task = instance.task(task_id);
    const int alloc = canonical_allotment_reference(task, length);
    if (alloc == 0) continue;  // too long for this batch
    if (options.merge_small_tasks && task.min_procs() == 1 &&
        task.time(1) <= length / 2.0) {
      small.push_back(task_id);
      continue;
    }
    BatchItem item;
    item.tasks = {task_id};
    item.procs = alloc;
    item.weight = task.weight();
    item.duration = task.time(alloc);
    items.push_back(std::move(item));
  }

  if (small.empty()) return items;

  // Merge small sequential tasks: decreasing weight, first-fit into stacks
  // bounded by the batch length ("in order to have as much weight as
  // possible, this merge is done by decreasing weight order").
  std::sort(small.begin(), small.end(), [&](int a, int b) {
    const double wa = instance.task(a).weight();
    const double wb = instance.task(b).weight();
    if (wa != wb) return wa > wb;
    return a < b;  // deterministic tie-break
  });
  std::vector<BatchItem> stacks;
  for (int task_id : small) {
    const MoldableTask& task = instance.task(task_id);
    const double t1 = task.time(1);
    bool placed = false;
    for (auto& stack : stacks) {
      if (stack.duration + t1 <= length) {
        stack.tasks.push_back(task_id);
        stack.duration += t1;
        stack.weight += task.weight();
        placed = true;
        break;
      }
    }
    if (!placed) {
      BatchItem stack;
      stack.tasks = {task_id};
      stack.procs = 1;
      stack.weight = task.weight();
      stack.duration = t1;
      stacks.push_back(std::move(stack));
    }
  }

  // Inside a stack the tasks run back to back; their internal order only
  // affects the minsum. Smith's rule (weight/time decreasing) is optimal
  // for a fixed single-machine sequence, the paper's literal reading keeps
  // decreasing weight (already the insertion order).
  if (options.smith_order_stacks) {
    for (auto& stack : stacks) {
      std::sort(stack.tasks.begin(), stack.tasks.end(), [&](int a, int b) {
        const MoldableTask& ta = instance.task(a);
        const MoldableTask& tb = instance.task(b);
        const double ra = ta.weight() / ta.time(1);
        const double rb = tb.weight() / tb.time(1);
        if (ra != rb) return ra > rb;
        return a < b;
      });
    }
  }

  items.insert(items.end(), std::make_move_iterator(stacks.begin()),
               std::make_move_iterator(stacks.end()));
  return items;
}

std::vector<int> select_batch(const std::vector<BatchItem>& items, int m) {
  std::vector<KnapsackItem> knapsack_items;
  knapsack_items.reserve(items.size());
  for (const auto& item : items) {
    knapsack_items.push_back(KnapsackItem{item.procs, item.weight});
  }
  return max_weight_knapsack_reference(knapsack_items, m);
}

}  // namespace moldsched
