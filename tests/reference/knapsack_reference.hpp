/// \file knapsack_reference.hpp
/// Test-only oracle for the per-batch knapsack (core/knapsack.hpp): the
/// original backward in-place row update over array-of-structs items. The
/// differential suite locks the library's row-sweep kernel to it, and
/// micro_components' 1.5x gate times the kernel against it.

#pragma once

#include <vector>

namespace moldsched {

struct KnapsackItem {
  int cost = 0;        ///< processors consumed (alloc_i)
  double weight = 0.0; ///< value to maximise (w_i)
};

/// Original scalar DP (backward in-place row, conditional stores). Returns
/// the selected indices in increasing order; validates like the kernel
/// (std::invalid_argument on negative capacity, non-positive cost or
/// negative weight). Allocates its own buffers.
[[nodiscard]] std::vector<int> max_weight_knapsack_reference(
    const std::vector<KnapsackItem>& items, int capacity);

/// The library kernel, max_weight_knapsack_into, run on `items` in fresh
/// buffers: costs and weights are gathered into parallel arrays first, so
/// one item list can be handed to both implementations.
[[nodiscard]] std::vector<int> max_weight_knapsack_kernel(
    const std::vector<KnapsackItem>& items, int capacity);

}  // namespace moldsched
