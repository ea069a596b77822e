#include "reference/event_sim.hpp"

#include <algorithm>
#include <cmath>

#include "util/strfmt.hpp"

namespace moldsched {

namespace {

/// Processing order: time ascending, finishes before starts at equal time
/// (so back-to-back placements do not conflict), task id as the final
/// tie-break to keep the replay deterministic.
bool earlier(const SimWorkspace::Event& a,
             const SimWorkspace::Event& b) noexcept {
  if (a.time != b.time) return a.time < b.time;
  if (a.is_finish != b.is_finish) return a.is_finish > b.is_finish;
  return a.task < b.task;
}

/// Max-heap comparator whose root is the EARLIEST event.
bool later(const SimWorkspace::Event& a,
           const SimWorkspace::Event& b) noexcept {
  return earlier(b, a);
}

}  // namespace

void simulate_execution(const FlatPlacements& flat, const Instance& instance,
                        SimWorkspace& ws, SimResult& out) {
  out.ok = true;
  out.errors.clear();
  out.cmax = 0.0;
  out.weighted_completion_sum = 0.0;
  out.busy_area = 0.0;
  out.utilisation = 0.0;
  out.events = 0;

  const int n = instance.num_tasks();
  const int m = instance.procs();
  out.completion.assign(static_cast<std::size_t>(n), 0.0);
  if (flat.size() != n) {
    out.ok = false;
    out.errors.emplace_back("schedule/instance shape mismatch");
    return;
  }

  ws.heap.clear();
  for (int i = 0; i < n; ++i) {
    const auto e = static_cast<std::size_t>(i);
    if (!flat.assigned(i)) {
      out.ok = false;
      out.errors.push_back(strfmt("task %d never starts", i));
      continue;
    }
    const double expected = instance.task(i).time(flat.proc_count[e]);
    if (std::abs(expected - flat.duration[e]) > 1e-9) {
      out.ok = false;
      out.errors.push_back(
          strfmt("task %d duration %.12g does not match model %.12g", i,
                 flat.duration[e], expected));
    }
    bool procs_ok = true;
    const auto begin = static_cast<std::size_t>(flat.proc_begin[e]);
    const auto count = static_cast<std::size_t>(flat.proc_count[e]);
    for (std::size_t p = begin; p < begin + count; ++p) {
      if (flat.proc_ids[p] < 0 || flat.proc_ids[p] >= m) {
        out.ok = false;
        procs_ok = false;
        out.errors.push_back(strfmt("task %d uses processor %d outside "
                                    "[0, %d)",
                                    i, flat.proc_ids[p], m));
      }
    }
    if (!procs_ok) continue;
    ws.heap.push_back(SimWorkspace::Event{flat.start[e], i, 0});
    ws.heap.push_back(SimWorkspace::Event{flat.finish(i), i, 1});
  }
  std::make_heap(ws.heap.begin(), ws.heap.end(), later);

  ws.owner.assign(static_cast<std::size_t>(m), -1);
  while (!ws.heap.empty()) {
    std::pop_heap(ws.heap.begin(), ws.heap.end(), later);
    const SimWorkspace::Event e = ws.heap.back();
    ws.heap.pop_back();
    ++out.events;
    const auto entry = static_cast<std::size_t>(e.task);
    const auto begin = static_cast<std::size_t>(flat.proc_begin[entry]);
    const auto count = static_cast<std::size_t>(flat.proc_count[entry]);
    if (e.is_finish) {
      for (std::size_t p = begin; p < begin + count; ++p) {
        const auto proc = static_cast<std::size_t>(flat.proc_ids[p]);
        if (ws.owner[proc] == e.task) ws.owner[proc] = -1;
      }
      out.completion[entry] = e.time;
      out.cmax = std::max(out.cmax, e.time);
      out.busy_area += flat.duration[entry] * static_cast<double>(count);
      out.weighted_completion_sum += instance.task(e.task).weight() * e.time;
    } else {
      for (std::size_t p = begin; p < begin + count; ++p) {
        const auto proc = static_cast<std::size_t>(flat.proc_ids[p]);
        const int running = ws.owner[proc];
        if (running != -1) {
          // Back-to-back placements can disagree by one ulp on when the
          // hand-over happens (start computed as a different floating-point
          // sum than the predecessor's finish); a finish at effectively the
          // same instant is a clean hand-over, not a conflict.
          const double running_finish = flat.finish(running);
          const double tol = 1e-9 * (1.0 + std::abs(e.time));
          if (running_finish <= e.time + tol) {
            out.completion[static_cast<std::size_t>(running)] =
                running_finish;
            out.cmax = std::max(out.cmax, running_finish);
          } else {
            out.ok = false;
            out.errors.push_back(
                strfmt("t=%.12g: task %d claims processor %d still running "
                       "task %d",
                       e.time, e.task, flat.proc_ids[p], running));
          }
        }
        ws.owner[proc] = e.task;
      }
    }
  }
  if (out.cmax > 0.0) {
    out.utilisation = out.busy_area / (static_cast<double>(m) * out.cmax);
  }
}

SimResult simulate_execution(const FlatPlacements& flat,
                             const Instance& instance) {
  SimWorkspace ws;
  SimResult out;
  simulate_execution(flat, instance, ws, out);
  return out;
}

}  // namespace moldsched
