/// \file algorithms.hpp
/// Name -> scheduler registry for the experiment harness. The six entries
/// mirror the curves of the paper's Figures 3-6: DEMT (the contribution),
/// Gang, Sequential, List (shelf order), LPTF (weighted), SAF.

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/demt.hpp"
#include "tasks/instance.hpp"

namespace moldsched {

using SchedulerFn = std::function<FlatPlacements(const Instance&)>;

struct AlgorithmSpec {
  std::string name;
  SchedulerFn run;
};

/// All six algorithms of the paper's plots, in plot-legend order.
[[nodiscard]] std::vector<AlgorithmSpec> standard_algorithms(
    const DemtOptions& demt_options = {});

/// Subset by names (throws std::invalid_argument on unknown name).
[[nodiscard]] std::vector<AlgorithmSpec> algorithms_by_name(
    const std::vector<std::string>& names,
    const DemtOptions& demt_options = {});

}  // namespace moldsched
