/// \file demt_reference.hpp
/// Test-only oracle for the bi-criteria algorithm (core/demt.hpp): the
/// scalar pipeline the driver ran before the structure-of-arrays rewrite.
/// It runs the search of estimate_cmax_reference, array-of-structs batch
/// items with scan-based allotment lookups, the backward in-place knapsack,
/// and Schedule-based placement with the multipass pull-forward, converted
/// to flat placements (one range per task) only at the end. The
/// differential suite (test_demt_kernel) locks demt_schedule and
/// demt_schedule_into bit-identical to it.

#pragma once

#include "core/demt.hpp"
#include "tasks/instance.hpp"

namespace moldsched {

/// Same contract and options as demt_schedule. Allocates freely.
[[nodiscard]] DemtResult demt_schedule_reference(
    const Instance& instance, const DemtOptions& options = {});

}  // namespace moldsched
