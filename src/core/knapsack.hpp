/// \file knapsack.hpp
/// 0/1 knapsack used for the per-batch job selection (§3.2): maximise the
/// total weight of selected items subject to the processor budget. The
/// paper's DP
///
///   W(i, j) = max( W(i-1, j), W(i-1, j - alloc_i) + w_i )
///
/// in O(m n) time, with solution reconstruction.
///
/// max_weight_knapsack_into is a ping-pong row sweep: each item reads the
/// previous row `dp` and writes `next` with select operations only (no
/// data-dependent branches inside the j loop), which is exactly what the
/// textbook backward in-place loop computes — j descends so dp[j - cost] is
/// always a previous-row value — so the results are bit-identical while the
/// loop autovectorizes. The backward loop itself lives in the test-only
/// reference library (tests/reference/knapsack_reference.hpp), which the
/// differential suite checks this kernel against.

#pragma once

#include <cstdint>
#include <vector>

namespace moldsched {

/// Reusable DP buffers: the ping-pong value rows and the flat
/// n x (capacity + 1) decision matrix (replacing the vector-of-vector<bool>
/// the DP used to allocate per call — one allocation per batch per DEMT
/// run).
struct KnapsackWorkspace {
  std::vector<double> dp;
  std::vector<double> next;
  std::vector<std::uint8_t> taken;
};

/// Vectorized row-sweep kernel over parallel cost/weight arrays. Writes the
/// selected indices (increasing order) into `selected`; fully allocation
/// free once `ws` and `selected` are warm. Items whose cost exceeds the
/// capacity are never selected. Throws std::invalid_argument on negative
/// capacity, non-positive cost (the batch selection never produces one and
/// it would make the greedy stages ill-defined) or negative weight.
void max_weight_knapsack_into(const int* costs, const double* weights, int n,
                              int capacity, KnapsackWorkspace& ws,
                              std::vector<int>& selected);

}  // namespace moldsched
