#include <gtest/gtest.h>

#include <stdexcept>

#include "reference/knapsack_reference.hpp"
#include "util/rng.hpp"

namespace moldsched {
namespace {

double total_weight(const std::vector<KnapsackItem>& items,
                    const std::vector<int>& selected) {
  double sum = 0.0;
  for (int i : selected) sum += items[static_cast<std::size_t>(i)].weight;
  return sum;
}

int total_cost(const std::vector<KnapsackItem>& items,
               const std::vector<int>& selected) {
  int sum = 0;
  for (int i : selected) sum += items[static_cast<std::size_t>(i)].cost;
  return sum;
}

TEST(Knapsack, EmptyItems) {
  EXPECT_TRUE(max_weight_knapsack_kernel({}, 10).empty());
}

TEST(Knapsack, TakesEverythingWhenItFits) {
  const std::vector<KnapsackItem> items{{2, 1.0}, {3, 2.0}, {4, 3.0}};
  const auto selected = max_weight_knapsack_kernel(items, 9);
  EXPECT_EQ(selected.size(), 3u);
}

TEST(Knapsack, ClassicInstance) {
  // Capacity 10; best is items 1+2 (costs 4+6, weights 40+55 = 95) over
  // greedy-by-density choices.
  const std::vector<KnapsackItem> items{{5, 50.0}, {4, 40.0}, {6, 55.0}, {3, 10.0}};
  const auto selected = max_weight_knapsack_kernel(items, 10);
  EXPECT_NEAR(total_weight(items, selected), 95.0, 1e-12);
  EXPECT_LE(total_cost(items, selected), 10);
}

TEST(Knapsack, ZeroCapacity) {
  const std::vector<KnapsackItem> items{{1, 5.0}};
  EXPECT_TRUE(max_weight_knapsack_kernel(items, 0).empty());
}

TEST(Knapsack, OversizedItemIgnored) {
  const std::vector<KnapsackItem> items{{100, 99.0}, {2, 1.0}};
  const auto selected = max_weight_knapsack_kernel(items, 10);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0], 1);
}

TEST(Knapsack, Validation) {
  EXPECT_THROW(max_weight_knapsack_kernel({{0, 1.0}}, 5),
               std::invalid_argument);
  EXPECT_THROW(max_weight_knapsack_kernel({{-1, 1.0}}, 5),
               std::invalid_argument);
  EXPECT_THROW(max_weight_knapsack_kernel({{1, -1.0}}, 5),
               std::invalid_argument);
  EXPECT_THROW(max_weight_knapsack_kernel({{1, 1.0}}, -1),
               std::invalid_argument);
}

TEST(Knapsack, MatchesBruteForceOnRandomInstances) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 11));
    const int capacity = static_cast<int>(rng.uniform_int(1, 20));
    std::vector<KnapsackItem> items;
    for (int i = 0; i < n; ++i) {
      items.push_back(KnapsackItem{static_cast<int>(rng.uniform_int(1, 8)),
                                   rng.uniform(0.0, 10.0)});
    }
    const auto selected = max_weight_knapsack_kernel(items, capacity);
    EXPECT_LE(total_cost(items, selected), capacity);

    // Brute force over all subsets.
    double best = 0.0;
    for (int mask = 0; mask < (1 << n); ++mask) {
      int cost = 0;
      double weight = 0.0;
      for (int i = 0; i < n; ++i) {
        if (mask & (1 << i)) {
          cost += items[static_cast<std::size_t>(i)].cost;
          weight += items[static_cast<std::size_t>(i)].weight;
        }
      }
      if (cost <= capacity) best = std::max(best, weight);
    }
    EXPECT_NEAR(total_weight(items, selected), best, 1e-9)
        << "trial " << trial;
  }
}

TEST(Knapsack, SelectionIndicesAreSortedAndUnique) {
  Rng rng(78);
  std::vector<KnapsackItem> items;
  for (int i = 0; i < 30; ++i) {
    items.push_back(KnapsackItem{static_cast<int>(rng.uniform_int(1, 5)),
                                 rng.uniform(0.1, 5.0)});
  }
  const auto selected = max_weight_knapsack_kernel(items, 25);
  for (std::size_t i = 1; i < selected.size(); ++i) {
    EXPECT_LT(selected[i - 1], selected[i]);
  }
}

}  // namespace
}  // namespace moldsched
