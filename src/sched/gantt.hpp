/// \file gantt.hpp
/// ASCII Gantt rendering of small schedules, for the example programs and
/// debugging. One row per processor, time quantised to a fixed character
/// width.

#pragma once

#include <string>

#include "sched/flat_schedule.hpp"

namespace moldsched {

struct GanttOptions {
  int width = 72;       ///< characters for the time axis
  int max_procs = 32;   ///< refuse to render wider clusters (returns summary)
};

/// Render the schedule on m processors; task i is drawn with the
/// character for digit i % 36 (0-9a-z), '.' marks idle time. The schedule
/// must be well formed (validate_schedule accepts its shape and ids).
[[nodiscard]] std::string render_gantt(const FlatPlacements& schedule, int m,
                                       const GanttOptions& options = {});

}  // namespace moldsched
