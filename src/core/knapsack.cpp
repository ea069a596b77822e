#include "core/knapsack.hpp"

#include <algorithm>
#include <stdexcept>

namespace moldsched {
namespace {

void validate(const int* costs, const double* weights, int n, int capacity) {
  if (capacity < 0) {
    throw std::invalid_argument("max_weight_knapsack: negative capacity");
  }
  for (int i = 0; i < n; ++i) {
    if (costs[i] <= 0) {
      throw std::invalid_argument("max_weight_knapsack: non-positive cost");
    }
    if (weights[i] < 0.0) {
      throw std::invalid_argument("max_weight_knapsack: negative weight");
    }
  }
}

}  // namespace

void max_weight_knapsack_into(const int* costs, const double* weights, int n,
                              int capacity, KnapsackWorkspace& ws,
                              std::vector<int>& selected) {
  validate(costs, weights, n, capacity);

  const auto cap = static_cast<std::size_t>(capacity);
  const std::size_t row = cap + 1;
  // Ping-pong rows: dp is the previous item's row, next the current one.
  // The backward in-place loop only ever reads previous-row values
  // (j descends, j - cost < j), so `next[j] = take ? cand : dp[j]` computes
  // the same cell values; the select form keeps the j loop branch free.
  ws.dp.assign(row, 0.0);
  ws.next.resize(row);
  ws.taken.assign(static_cast<std::size_t>(n) * row, 0);
  for (int i = 0; i < n; ++i) {
    const auto cost = static_cast<std::size_t>(costs[i]);
    if (cost > cap) continue;  // row untouched, decisions stay 0
    const double w = weights[i];
    const double* dp = ws.dp.data();
    double* next = ws.next.data();
    std::uint8_t* taken_row =
        ws.taken.data() + static_cast<std::size_t>(i) * row;
    for (std::size_t j = 0; j < cost; ++j) next[j] = dp[j];
    for (std::size_t j = cost; j <= cap; ++j) {
      const double cand = dp[j - cost] + w;
      const bool take = cand > dp[j];
      next[j] = take ? cand : dp[j];
      taken_row[j] = static_cast<std::uint8_t>(take);
    }
    ws.dp.swap(ws.next);
  }

  selected.clear();
  std::size_t j = cap;
  for (int i = n; i-- > 0;) {
    if (ws.taken[static_cast<std::size_t>(i) * row + j]) {
      selected.push_back(i);
      j -= static_cast<std::size_t>(costs[i]);
    }
  }
  std::reverse(selected.begin(), selected.end());
}

}  // namespace moldsched
