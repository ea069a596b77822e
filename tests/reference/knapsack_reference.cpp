#include "reference/knapsack_reference.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "core/knapsack.hpp"

namespace moldsched {

std::vector<int> max_weight_knapsack_reference(
    const std::vector<KnapsackItem>& items, int capacity) {
  if (capacity < 0) {
    throw std::invalid_argument("max_weight_knapsack: negative capacity");
  }
  for (const auto& item : items) {
    if (item.cost <= 0) {
      throw std::invalid_argument("max_weight_knapsack: non-positive cost");
    }
    if (item.weight < 0.0) {
      throw std::invalid_argument("max_weight_knapsack: negative weight");
    }
  }

  const std::size_t n = items.size();
  const auto cap = static_cast<std::size_t>(capacity);
  const std::size_t row = cap + 1;
  // dp[j] = best weight with budget j after processing a prefix of items;
  // taken[i * row + j] records the decision for reconstruction.
  std::vector<double> dp(row, 0.0);
  std::vector<std::uint8_t> taken(n * row, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto cost = static_cast<std::size_t>(items[i].cost);
    if (cost > cap) continue;
    std::uint8_t* taken_row = taken.data() + i * row;
    for (std::size_t j = cap; j >= cost; --j) {
      const double candidate = dp[j - cost] + items[i].weight;
      if (candidate > dp[j]) {
        dp[j] = candidate;
        taken_row[j] = 1;
      }
    }
  }

  std::vector<int> selected;
  std::size_t j = cap;
  for (std::size_t i = n; i-- > 0;) {
    if (taken[i * row + j]) {
      selected.push_back(static_cast<int>(i));
      j -= static_cast<std::size_t>(items[i].cost);
    }
  }
  std::reverse(selected.begin(), selected.end());
  return selected;
}

std::vector<int> max_weight_knapsack_kernel(
    const std::vector<KnapsackItem>& items, int capacity) {
  std::vector<int> costs;
  std::vector<double> weights;
  for (const KnapsackItem& item : items) {
    costs.push_back(item.cost);
    weights.push_back(item.weight);
  }
  KnapsackWorkspace ws;
  std::vector<int> selected;
  max_weight_knapsack_into(costs.data(), weights.data(),
                           static_cast<int>(items.size()), capacity, ws,
                           selected);
  return selected;
}

}  // namespace moldsched
