/// \file compaction_reference.hpp
/// Test-only oracle for the pull-forward compaction (sched/compaction.hpp):
/// the original multipass form over a Schedule. Each pass sweeps the tasks
/// in start order and pulls every one back to the latest finish of the
/// work before it on its processors; passes repeat until a fixpoint.
/// DEMT's reference pipeline compacts its naive placement with it.

#pragma once

#include "reference/schedule.hpp"

namespace moldsched {

/// Pull every placed task as early as possible without changing processor
/// assignments. Returns the number of task moves over all passes. The
/// result is feasible whenever the input is feasible.
int pull_forward(Schedule& schedule);

}  // namespace moldsched
