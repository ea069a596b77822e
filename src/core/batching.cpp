#include "core/batching.hpp"

#include <algorithm>

#include "core/knapsack.hpp"

namespace moldsched {

void build_batch_items_into(const Instance& instance,
                            const std::vector<int>& pending, double length,
                            const BatchBuildOptions& options,
                            const InstanceAllotments& tables,
                            BatchBuildWorkspace& ws, FlatBatchItems& out) {
  out.clear();
  ws.small.clear();

  // Candidate filter, in pending order.
  for (int task_id : pending) {
    const MoldableTask& task = instance.task(task_id);
    const int alloc = tables.table(task_id).canonical(length);
    if (alloc == 0) continue;  // too long for this batch
    if (options.merge_small_tasks && task.min_procs() == 1 &&
        task.time(1) <= length / 2.0) {
      ws.small.push_back(task_id);
      continue;
    }
    out.push_item(task_id, alloc, task.weight(), task.time(alloc));
  }

  if (ws.small.empty()) return;

  // Merge small sequential tasks: decreasing weight, first-fit into stacks
  // bounded by the batch length ("in order to have as much weight as
  // possible, this merge is done by decreasing weight order").
  std::sort(ws.small.begin(), ws.small.end(), [&](int a, int b) {
    const double wa = instance.task(a).weight();
    const double wb = instance.task(b).weight();
    if (wa != wb) return wa > wb;
    return a < b;  // deterministic tie-break
  });

  // First-fit assignment pass: record each small task's stack index and the
  // per-stack accumulators, without building task lists yet.
  ws.small_stack.resize(ws.small.size());
  ws.stack_duration.clear();
  ws.stack_weight.clear();
  for (std::size_t s = 0; s < ws.small.size(); ++s) {
    const int task_id = ws.small[s];
    const MoldableTask& task = instance.task(task_id);
    const double t1 = task.time(1);
    int target = -1;
    const int num_stacks = static_cast<int>(ws.stack_duration.size());
    for (int k = 0; k < num_stacks; ++k) {
      if (ws.stack_duration[static_cast<std::size_t>(k)] + t1 <= length) {
        target = k;
        break;
      }
    }
    if (target < 0) {
      target = num_stacks;
      ws.stack_duration.push_back(0.0);
      ws.stack_weight.push_back(0.0);
    }
    ws.small_stack[s] = target;
    ws.stack_duration[static_cast<std::size_t>(target)] += t1;
    ws.stack_weight[static_cast<std::size_t>(target)] += task.weight();
  }

  // Emit the stacks in creation order. Task slices are reserved first from
  // per-stack counts, then filled by a scatter pass that preserves the
  // assignment (= decreasing weight) order inside each stack.
  const int num_stacks = static_cast<int>(ws.stack_duration.size());
  ws.stack_fill.assign(static_cast<std::size_t>(num_stacks), 0);
  for (std::size_t s = 0; s < ws.small.size(); ++s) {
    ++ws.stack_fill[static_cast<std::size_t>(ws.small_stack[s])];
  }
  int cursor = static_cast<int>(out.task_ids.size());
  for (int k = 0; k < num_stacks; ++k) {
    const int count = ws.stack_fill[static_cast<std::size_t>(k)];
    ws.stack_fill[static_cast<std::size_t>(k)] = cursor;  // scatter base
    cursor += count;
    out.task_begin.push_back(cursor);
    out.procs.push_back(1);
    out.weight.push_back(ws.stack_weight[static_cast<std::size_t>(k)]);
    out.duration.push_back(ws.stack_duration[static_cast<std::size_t>(k)]);
  }
  out.task_ids.resize(static_cast<std::size_t>(cursor));
  for (std::size_t s = 0; s < ws.small.size(); ++s) {
    int& fill = ws.stack_fill[static_cast<std::size_t>(ws.small_stack[s])];
    out.task_ids[static_cast<std::size_t>(fill++)] = ws.small[s];
  }

  // Inside a stack the tasks run back to back; their internal order only
  // affects the minsum. Smith's rule (weight/time decreasing) is optimal
  // for a fixed single-machine sequence, the paper's literal reading keeps
  // decreasing weight (already the insertion order).
  if (options.smith_order_stacks) {
    const int first_stack = out.size() - num_stacks;
    for (int item = first_stack; item < out.size(); ++item) {
      const int b = out.tasks_begin(item);
      const int e = b + out.tasks_count(item);
      std::sort(out.task_ids.begin() + b, out.task_ids.begin() + e,
                [&](int a, int c) {
                  const MoldableTask& ta = instance.task(a);
                  const MoldableTask& tc = instance.task(c);
                  const double ra = ta.weight() / ta.time(1);
                  const double rc = tc.weight() / tc.time(1);
                  if (ra != rc) return ra > rc;
                  return a < c;
                });
    }
  }
}

void select_batch_into(const FlatBatchItems& items, int m,
                       KnapsackWorkspace& knap, std::vector<int>& selected) {
  max_weight_knapsack_into(items.procs.data(), items.weight.data(),
                           items.size(), m, knap, selected);
}

}  // namespace moldsched
