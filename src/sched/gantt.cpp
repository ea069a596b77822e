#include "sched/gantt.hpp"

#include <algorithm>
#include <vector>

#include "util/strfmt.hpp"

namespace moldsched {

std::string render_gantt(const FlatPlacements& schedule, int m,
                         const GanttOptions& options) {
  const int n = schedule.size();
  const double horizon = schedule.cmax();
  int assigned = 0;
  for (int i = 0; i < n; ++i) assigned += schedule.assigned(i) ? 1 : 0;
  if (assigned == 0) return "(empty schedule)\n";
  if (m > options.max_procs) {
    return strfmt("(gantt omitted: m=%d > %d; cmax=%.4g, %d tasks)\n", m,
                  options.max_procs, horizon, assigned);
  }

  const int width = std::max(options.width, 8);
  const double scale = static_cast<double>(width) / horizon;
  std::vector<std::string> rows(static_cast<std::size_t>(m),
                                std::string(static_cast<std::size_t>(width), '.'));
  for (int i = 0; i < n; ++i) {
    if (!schedule.assigned(i)) continue;
    const auto e = static_cast<std::size_t>(i);
    auto col0 = static_cast<int>(schedule.start[e] * scale);
    auto col1 = static_cast<int>(schedule.finish(i) * scale);
    col0 = std::clamp(col0, 0, width - 1);
    col1 = std::clamp(col1, col0 + 1, width);
    const int digit = i % 36;
    const char c =
        digit < 10 ? static_cast<char>('0' + digit)
                   : static_cast<char>('a' + digit - 10);
    const auto begin = static_cast<std::size_t>(schedule.proc_begin[e]);
    const auto end = begin + static_cast<std::size_t>(schedule.proc_count[e]);
    for (std::size_t p = begin; p < end; ++p) {
      auto& row = rows[static_cast<std::size_t>(schedule.proc_ids[p])];
      for (int col = col0; col < col1; ++col) {
        row[static_cast<std::size_t>(col)] = c;
      }
    }
  }

  std::string out;
  out += strfmt("time 0 .. %.4g (one column = %.4g)\n", horizon,
                horizon / width);
  for (int proc = 0; proc < m; ++proc) {
    out += strfmt("p%02d |", proc);
    out += rows[static_cast<std::size_t>(proc)];
    out += "|\n";
  }
  return out;
}

}  // namespace moldsched
