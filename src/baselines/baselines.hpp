/// \file baselines.hpp
/// The five comparison schedulers of the paper's evaluation (§4.1):
///
/// * Gang        — every task on all m processors, sorted by weight over
///                 execution time (optimal for linear speedups);
/// * Sequential  — every task on one processor, largest processing time
///                 first, Graham list scheduling;
/// * List-Graham — allotments from the dual-approximation shelf partition
///                 (reference [7]), Graham list scheduling, three orders:
///                 - ShelfOrder: large shelf, then small shelf, then the
///                   small sequential tasks (the order of [7]);
///                 - WeightedLptf: execution time / weight decreasing
///                   (the paper's "weighted LPTF": long-per-unit-weight
///                   tasks first — see DESIGN.md §3 on the ambiguity);
///                 - SmallestAreaFirst: allotment x time increasing (SAF).

#pragma once

#include "sched/flat_schedule.hpp"
#include "tasks/instance.hpp"

namespace moldsched {

/// Gang scheduling. Throws on an empty instance.
[[nodiscard]] FlatPlacements gang_schedule(const Instance& instance);

/// Sequential LPTF list scheduling.
[[nodiscard]] FlatPlacements sequential_lptf_schedule(const Instance& instance);

enum class ListOrder { ShelfOrder, WeightedLptf, SmallestAreaFirst };

/// List-Graham with dual-approximation allotments in the given order.
/// `dual_eps` is the makespan search precision.
[[nodiscard]] FlatPlacements list_graham_schedule(const Instance& instance,
                                                  ListOrder order,
                                                  double dual_eps = 1e-4);

}  // namespace moldsched
