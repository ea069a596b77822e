/// \file batching_reference.hpp
/// Test-only oracle for DEMT's batch construction (core/batching.hpp): the
/// array-of-structs build with scan-based canonical allotments, and the
/// selection through the scalar reference knapsack. The library's
/// structure-of-arrays build_batch_items_into / select_batch_into must
/// produce the same items, in the same order, with the same values.

#pragma once

#include <vector>

#include "core/batching.hpp"
#include "tasks/instance.hpp"

namespace moldsched {

/// One schedulable unit inside a batch: either a single task at a fixed
/// allotment, or a stack of small sequential tasks sharing one processor,
/// executed back to back.
struct BatchItem {
  std::vector<int> tasks;  ///< task indices; >1 entries = merged stack
  int procs = 1;           ///< processors consumed by the item
  double weight = 0.0;     ///< combined weight (knapsack value)
  double duration = 0.0;   ///< occupied time inside the batch

  [[nodiscard]] bool is_stack() const noexcept { return tasks.size() > 1; }
};

/// Build the candidate items of a batch of length `length` from the pending
/// tasks. A task is a candidate when some allotment finishes within the
/// batch (the paper's canonical choice: the SMALLEST such allotment, found
/// by canonical_allotment_reference's scan). Small sequential
/// candidates (single-processor time at most length/2) are stacked
/// first-fit in decreasing weight order when merging is enabled.
[[nodiscard]] std::vector<BatchItem> build_batch_items(
    const Instance& instance, const std::vector<int>& pending, double length,
    const BatchBuildOptions& options = {});

/// Select the weight-maximising subset of items within the processor
/// budget with max_weight_knapsack_reference; returns indices into
/// `items`.
[[nodiscard]] std::vector<int> select_batch(const std::vector<BatchItem>& items,
                                            int m);

}  // namespace moldsched
