#include "core/batching.hpp"

#include <gtest/gtest.h>

#include <set>

#include "reference/batching_reference.hpp"

namespace moldsched {
namespace {

/// One build workspace and output for the whole file; every build first
/// runs on a different shape, so the library build always starts from warm
/// buffers holding stale items.
struct WarmBuild {
  BatchBuildWorkspace ws;
  FlatBatchItems out;
  KnapsackWorkspace knap;
  std::vector<int> selected;
};

WarmBuild& warm_build() {
  static WarmBuild build;
  return build;
}

std::vector<BatchItem> to_batch_items(const FlatBatchItems& flat) {
  std::vector<BatchItem> items;
  for (int i = 0; i < flat.size(); ++i) {
    const auto u = static_cast<std::size_t>(i);
    BatchItem item;
    const int b = flat.tasks_begin(i);
    item.tasks.assign(flat.task_ids.begin() + b,
                      flat.task_ids.begin() + b + flat.tasks_count(i));
    item.procs = flat.procs[u];
    item.weight = flat.weight[u];
    item.duration = flat.duration[u];
    EXPECT_EQ(flat.is_stack(i), item.is_stack()) << "item " << i;
    items.push_back(std::move(item));
  }
  return items;
}

void expect_same_items(const std::vector<BatchItem>& a,
                       const std::vector<BatchItem>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tasks, b[i].tasks) << "item " << i;
    EXPECT_EQ(a[i].procs, b[i].procs) << "item " << i;
    EXPECT_EQ(a[i].weight, b[i].weight) << "item " << i;
    EXPECT_EQ(a[i].duration, b[i].duration) << "item " << i;
  }
}

/// The library build (build_batch_items_into over InstanceAllotments) of
/// the batch, checked item for item against the array-of-structs reference
/// build and returned in its item form for the case's own assertions.
std::vector<BatchItem> build_items(const Instance& instance,
                                   const std::vector<int>& pending,
                                   double length,
                                   const BatchBuildOptions& options = {}) {
  WarmBuild& warm = warm_build();
  const InstanceAllotments tables(instance);
  std::vector<int> everything;
  for (int i = 0; i < instance.num_tasks(); ++i) everything.push_back(i);
  build_batch_items_into(instance, everything, length * 8.0, options, tables,
                         warm.ws, warm.out);
  build_batch_items_into(instance, pending, length, options, tables, warm.ws,
                         warm.out);
  std::vector<BatchItem> items = to_batch_items(warm.out);
  expect_same_items(items,
                    build_batch_items(instance, pending, length, options));
  return items;
}

/// The library selection (select_batch_into through a warm knapsack
/// workspace), checked against the reference select_batch.
std::vector<int> select_items(const std::vector<BatchItem>& items, int m) {
  WarmBuild& warm = warm_build();
  FlatBatchItems flat;
  flat.clear();
  for (const BatchItem& item : items) {
    flat.task_ids.insert(flat.task_ids.end(), item.tasks.begin(),
                         item.tasks.end());
    flat.task_begin.push_back(static_cast<int>(flat.task_ids.size()));
    flat.procs.push_back(item.procs);
    flat.weight.push_back(item.weight);
    flat.duration.push_back(item.duration);
  }
  select_batch_into(flat, m + 3, warm.knap, warm.selected);
  select_batch_into(flat, m, warm.knap, warm.selected);
  EXPECT_EQ(warm.selected, select_batch(items, m));
  return warm.selected;
}

Instance mixed_instance() {
  Instance instance(8);
  instance.add_task(MoldableTask({1.0, 0.8, 0.7, 0.6, 0.6, 0.6, 0.6, 0.6}, 5.0));  // 0 small
  instance.add_task(MoldableTask({1.5, 1.0, 0.9, 0.8, 0.8, 0.8, 0.8, 0.8}, 3.0));  // 1 small
  instance.add_task(MoldableTask({9.0, 5.0, 3.5, 3.0, 2.8, 2.6, 2.5, 2.4}, 7.0));  // 2 big
  instance.add_task(MoldableTask({40.0, 22.0, 15.0, 12.0, 10.0, 9.0, 8.5, 8.0}, 2.0));  // 3 huge
  return instance;
}

std::vector<int> all_pending(const Instance& instance) {
  std::vector<int> pending;
  for (int i = 0; i < instance.num_tasks(); ++i) pending.push_back(i);
  return pending;
}

TEST(Batching, FiltersTasksTooLongForBatch) {
  const Instance instance = mixed_instance();
  // Batch of length 4: tasks 0,1 (sequential), 2 (needs >= 3 procs), not 3.
  const auto items = build_items(instance, all_pending(instance), 4.0);
  std::set<int> covered;
  for (const auto& item : items) {
    for (int t : item.tasks) covered.insert(t);
  }
  EXPECT_TRUE(covered.count(0));
  EXPECT_TRUE(covered.count(1));
  EXPECT_TRUE(covered.count(2));
  EXPECT_FALSE(covered.count(3));
}

TEST(Batching, UsesCanonicalAllotment) {
  const Instance instance = mixed_instance();
  const auto items = build_items(instance, {2}, 4.0);
  ASSERT_EQ(items.size(), 1u);
  // Task 2 needs the smallest allotment with time <= 4: p(3) = 3.5.
  EXPECT_EQ(items[0].procs, 3);
  EXPECT_DOUBLE_EQ(items[0].duration, 3.5);
}

TEST(Batching, MergesSmallSequentialTasks) {
  const Instance instance = mixed_instance();
  // Batch length 4: tasks 0 (p1=1.0) and 1 (p1=1.5) both fit in half (2.0)
  // and stack together (1.0 + 1.5 <= 4).
  const auto items = build_items(instance, {0, 1}, 4.0);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_TRUE(items[0].is_stack());
  EXPECT_EQ(items[0].procs, 1);
  EXPECT_DOUBLE_EQ(items[0].weight, 8.0);
  EXPECT_DOUBLE_EQ(items[0].duration, 2.5);
}

TEST(Batching, MergeDisabledKeepsSingles) {
  const Instance instance = mixed_instance();
  BatchBuildOptions options;
  options.merge_small_tasks = false;
  const auto items = build_items(instance, {0, 1}, 4.0, options);
  EXPECT_EQ(items.size(), 2u);
  for (const auto& item : items) EXPECT_FALSE(item.is_stack());
}

TEST(Batching, StackCapacityIsBatchLength) {
  Instance instance(4);
  // Six tasks of p(1) = 1.0 in a batch of length 2.5: capacity 2 each.
  for (int i = 0; i < 6; ++i) {
    instance.add_task(MoldableTask({1.0, 0.9, 0.9, 0.9}, 1.0));
  }
  const auto items = build_items(instance, all_pending(instance), 2.5);
  for (const auto& item : items) {
    EXPECT_LE(item.duration, 2.5 + 1e-12);
    EXPECT_LE(item.tasks.size(), 2u);
  }
  EXPECT_EQ(items.size(), 3u);
}

TEST(Batching, DecreasingWeightMergeOrder) {
  Instance instance(4);
  instance.add_task(MoldableTask({1.0, 0.9, 0.9, 0.9}, 1.0));   // light
  instance.add_task(MoldableTask({1.0, 0.9, 0.9, 0.9}, 10.0));  // heavy
  instance.add_task(MoldableTask({1.0, 0.9, 0.9, 0.9}, 5.0));   // medium
  // Batch length 2: each stack holds exactly two unit tasks; the heaviest
  // two share the first stack.
  BatchBuildOptions options;
  options.smith_order_stacks = false;  // keep paper order inside stacks
  const auto items =
      build_items(instance, all_pending(instance), 2.0, options);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_DOUBLE_EQ(items[0].weight, 15.0);  // tasks 1 and 2
  ASSERT_EQ(items[0].tasks.size(), 2u);
  EXPECT_EQ(items[0].tasks[0], 1);  // heaviest first
  EXPECT_EQ(items[0].tasks[1], 2);
}

TEST(Batching, SmithOrderInsideStacks) {
  Instance instance(2);
  instance.add_task(MoldableTask({2.0, 1.9}, 4.0));  // ratio 2.0
  instance.add_task(MoldableTask({0.5, 0.4}, 3.0));  // ratio 6.0
  const auto items = build_items(instance, {0, 1}, 5.0);
  ASSERT_EQ(items.size(), 1u);
  ASSERT_TRUE(items[0].is_stack());
  // Smith: task 1 (ratio 6) before task 0 (ratio 2) despite lower weight.
  EXPECT_EQ(items[0].tasks[0], 1);
  EXPECT_EQ(items[0].tasks[1], 0);
}

TEST(Batching, RigidTaskNeverMerges) {
  Instance instance(4);
  instance.add_task(MoldableTask({1.0, 0.9, 0.8, 0.7}, 1.0, /*min_procs=*/2));
  const auto items = build_items(instance, {0}, 4.0);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_FALSE(items[0].is_stack());
  EXPECT_GE(items[0].procs, 2);
}

TEST(Batching, EmptyPending) {
  const Instance instance = mixed_instance();
  EXPECT_TRUE(build_items(instance, {}, 4.0).empty());
}

TEST(SelectBatch, RespectsProcessorBudget) {
  std::vector<BatchItem> items;
  for (int i = 0; i < 5; ++i) {
    BatchItem item;
    item.tasks = {i};
    item.procs = 3;
    item.weight = 1.0 + i;
    item.duration = 1.0;
    items.push_back(item);
  }
  const auto selected = select_items(items, 7);  // at most 2 items fit
  EXPECT_EQ(selected.size(), 2u);
  double weight = 0.0;
  for (int i : selected) weight += items[static_cast<std::size_t>(i)].weight;
  EXPECT_DOUBLE_EQ(weight, 4.0 + 5.0);  // the two heaviest
}

}  // namespace
}  // namespace moldsched
