#include "sim/divisible.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace moldsched {

namespace {

/// Complement of the busy intervals on every processor, clipped to
/// [0, horizon), sorted by start time (earliest capacity first). Runs
/// inside `ws` (busy + idle buffers reused).
void idle_intervals_into(const FlatPlacements& placements, int m,
                         double horizon, DivisibleFillWorkspace& ws) {
  ws.busy.clear();
  for (int e = 0; e < placements.size(); ++e) {
    if (!placements.assigned(e)) continue;
    const auto entry = static_cast<std::size_t>(e);
    const double start = placements.start[entry];
    const double finish = start + placements.duration[entry];
    const auto begin = static_cast<std::size_t>(placements.proc_begin[entry]);
    const auto count = static_cast<std::size_t>(placements.proc_count[entry]);
    for (std::size_t p = begin; p < begin + count; ++p) {
      ws.busy.push_back(DivisibleFillWorkspace::Busy{
          placements.proc_ids[p], start, finish});
    }
  }
  // (proc, start, finish) lexicographic: each processor's busy stretches
  // in start order.
  std::sort(ws.busy.begin(), ws.busy.end(),
            [](const DivisibleFillWorkspace::Busy& a,
               const DivisibleFillWorkspace::Busy& b) {
              if (a.proc != b.proc) return a.proc < b.proc;
              if (a.start != b.start) return a.start < b.start;
              return a.finish < b.finish;
            });
  ws.idle.clear();
  std::size_t next = 0;
  for (int proc = 0; proc < m; ++proc) {
    double cursor = 0.0;
    while (next < ws.busy.size() && ws.busy[next].proc == proc) {
      const double start = ws.busy[next].start;
      const double finish = ws.busy[next].finish;
      if (start > cursor + 1e-12 && cursor < horizon) {
        ws.idle.push_back(DivisibleFillWorkspace::Hole{
            proc, cursor, std::min(start, horizon)});
      }
      cursor = std::max(cursor, finish);
      ++next;
    }
    if (cursor < horizon) {
      ws.idle.push_back(DivisibleFillWorkspace::Hole{proc, cursor, horizon});
    }
  }
  std::sort(ws.idle.begin(), ws.idle.end(),
            [](const DivisibleFillWorkspace::Hole& a,
               const DivisibleFillWorkspace::Hole& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.proc < b.proc;
            });
}

}  // namespace

void fill_idle_with_divisible_into(const FlatPlacements& placements, int m,
                                   const DivisibleJob* jobs,
                                   std::size_t count, double horizon,
                                   DivisibleFillWorkspace& ws,
                                   DivisibleFillResult& out) {
  out.chunks.clear();
  out.completion.assign(count, 0.0);
  out.placed_work.assign(count, 0.0);
  out.weighted_completion_sum = 0.0;
  out.all_placed = true;
  out.idle_capacity = 0.0;

  idle_intervals_into(placements, m, horizon, ws);
  for (const auto& hole : ws.idle) out.idle_capacity += hole.length();

  // Smith order over the divisible jobs: weight per unit of work,
  // decreasing. Earliest holes go to the most valuable work.
  ws.order.resize(count);
  std::iota(ws.order.begin(), ws.order.end(), std::size_t{0});
  std::sort(ws.order.begin(), ws.order.end(),
            [&](std::size_t a, std::size_t b) {
              const double ra = jobs[a].weight / jobs[a].work;
              const double rb = jobs[b].weight / jobs[b].work;
              if (ra != rb) return ra > rb;
              return a < b;
            });

  for (std::size_t job_index : ws.order) {
    const double work = jobs[job_index].work;

    // Water-filling: the job finishes earliest at the time T* where the
    // cumulative idle capacity before T* first reaches `work`. Capacity is
    // a piecewise-linear increasing function of T whose slope is the number
    // of holes open at T; sweep its breakpoints.
    ws.events.clear();
    for (const auto& hole : ws.idle) {
      if (hole.length() <= 1e-12) continue;
      ws.events.push_back(DivisibleFillWorkspace::Event{hole.start, +1});
      ws.events.push_back(DivisibleFillWorkspace::Event{hole.finish, -1});
    }
    std::sort(ws.events.begin(), ws.events.end(),
              [](const DivisibleFillWorkspace::Event& a,
                 const DivisibleFillWorkspace::Event& b) {
                if (a.time != b.time) return a.time < b.time;
                return a.delta < b.delta;  // close before open at equal time
              });
    double t_star = -1.0;
    {
      double cap = 0.0, t = 0.0;
      int open = 0;
      for (const auto& event : ws.events) {
        if (open > 0 && cap + open * (event.time - t) >= work - 1e-12) {
          t_star = t + (work - cap) / open;
          break;
        }
        cap += open * (event.time - t);
        t = event.time;
        open += event.delta;
      }
    }

    if (t_star < 0.0) {
      // Not enough capacity in the horizon: consume everything and report
      // the shortfall.
      out.all_placed = false;
      double placed = 0.0;
      for (auto& hole : ws.idle) {
        if (hole.length() <= 1e-12) continue;
        out.chunks.push_back(DivisibleChunk{static_cast<int>(job_index),
                                            hole.proc, hole.start,
                                            hole.length()});
        placed += hole.length();
        hole.start = hole.finish;
      }
      out.placed_work[job_index] = placed;
      continue;
    }

    // Carve every hole up to T*; partially used holes keep their tails for
    // the next (less valuable) job.
    for (auto& hole : ws.idle) {
      if (hole.start >= t_star || hole.length() <= 1e-12) continue;
      const double take = std::min(hole.finish, t_star) - hole.start;
      if (take <= 1e-12) continue;
      out.chunks.push_back(DivisibleChunk{static_cast<int>(job_index),
                                          hole.proc, hole.start, take});
      hole.start += take;
    }
    out.placed_work[job_index] = work;
    out.completion[job_index] = t_star;
    out.weighted_completion_sum += jobs[job_index].weight * t_star;
  }
}

DivisibleFillResult fill_idle_with_divisible(
    const FlatPlacements& schedule, int m,
    const std::vector<DivisibleJob>& jobs, double horizon) {
  if (m < 1) throw std::invalid_argument("fill_idle_with_divisible: m < 1");
  if (horizon < 0.0) {
    throw std::invalid_argument("fill_idle_with_divisible: negative horizon");
  }
  for (const auto& job : jobs) {
    if (!(job.work > 0.0)) {
      throw std::invalid_argument(
          "fill_idle_with_divisible: work must be positive");
    }
    if (!(job.weight > 0.0)) {
      throw std::invalid_argument(
          "fill_idle_with_divisible: weight must be positive");
    }
  }

  DivisibleFillWorkspace ws;
  DivisibleFillResult result;
  fill_idle_with_divisible_into(schedule, m, jobs.data(), jobs.size(),
                                horizon, ws, result);
  return result;
}

}  // namespace moldsched
