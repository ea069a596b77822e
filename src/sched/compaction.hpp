/// \file compaction.hpp
/// The paper's first schedule-improvement step: "start a task at an earlier
/// time if all the processors it uses are idle". Tasks keep their processor
/// sets; each is pulled back to the latest finish time of the work that
/// precedes it on those processors. One sweep in start order reaches the
/// fixpoint that the original multipass Schedule form
/// (tests/reference/compaction_reference.hpp) iterates to.

#pragma once

#include <vector>

#include "sched/flat_schedule.hpp"

namespace moldsched {

/// Reusable buffers for the flat pull-forward (hot path): sort order and a
/// per-processor free-time front.
struct CompactionBuffers {
  std::vector<int> order;
  std::vector<double> proc_free;
};

/// Flat-placement pull-forward used by DEMT's compaction and shuffle loop:
/// one sweep in (start, entry) order against a per-processor free-time
/// front, which reaches a fixpoint directly (every entry lands tight
/// against a predecessor's finish or zero) in O(n log n + n * procs)
/// without allocating. Returns the number of entries that moved. The
/// result is feasible whenever the input is feasible.
int pull_forward(FlatPlacements& flat, int m, CompactionBuffers& buffers);

}  // namespace moldsched
