#include "sched/compaction.hpp"

#include <algorithm>
#include <vector>

namespace moldsched {

int pull_forward(FlatPlacements& flat, int m, CompactionBuffers& buffers) {
  buffers.order.clear();
  for (int e = 0; e < flat.size(); ++e) {
    if (flat.assigned(e)) buffers.order.push_back(e);
  }
  // Deterministic processing order: by start, entry id breaking ties.
  std::sort(buffers.order.begin(), buffers.order.end(), [&](int a, int b) {
    const double sa = flat.start[static_cast<std::size_t>(a)];
    const double sb = flat.start[static_cast<std::size_t>(b)];
    if (sa != sb) return sa < sb;
    return a < b;
  });
  buffers.proc_free.assign(static_cast<std::size_t>(m), 0.0);

  // Sweep: each entry starts at the latest free time over its processors.
  // Feasibility keeps every predecessor (in start order, on a shared
  // processor) finishing at or before this entry's start, and pulling
  // predecessors earlier only lowers their finish, so the new start never
  // exceeds the old one and disjointness is preserved.
  int moved = 0;
  for (int e : buffers.order) {
    const auto ei = static_cast<std::size_t>(e);
    const auto begin = static_cast<std::size_t>(flat.proc_begin[ei]);
    const auto count = static_cast<std::size_t>(flat.proc_count[ei]);
    double earliest = 0.0;
    for (std::size_t i = begin; i < begin + count; ++i) {
      earliest = std::max(
          earliest,
          buffers.proc_free[static_cast<std::size_t>(flat.proc_ids[i])]);
    }
    if (earliest + 1e-12 < flat.start[ei]) {
      flat.start[ei] = earliest;
      ++moved;
    }
    const double finish = flat.start[ei] + flat.duration[ei];
    for (std::size_t i = begin; i < begin + count; ++i) {
      buffers.proc_free[static_cast<std::size_t>(flat.proc_ids[i])] = finish;
    }
  }
  return moved;
}

}  // namespace moldsched
