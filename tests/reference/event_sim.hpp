/// \file event_sim.hpp
/// Test-only discrete-event execution of a schedule on a simulated
/// cluster. The simulator replays start/finish events in time order,
/// tracking processor occupancy dynamically — an independent cross-check
/// of the static validator (sched/validator.hpp) that the test suites run
/// on the schedules the library produces; the paper deploys its algorithm
/// on a real cluster, and this replay stands in for that substrate.
///
/// It runs on FlatPlacements, the form every path emits, with a
/// caller-owned SimWorkspace so repeated simulations reuse the event heap
/// and occupancy buffers.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/flat_schedule.hpp"
#include "tasks/instance.hpp"

namespace moldsched {

struct SimResult {
  bool ok = true;
  std::vector<std::string> errors;
  std::vector<double> completion;  ///< per task
  double cmax = 0.0;
  double weighted_completion_sum = 0.0;
  /// Total processor-time consumed by tasks (area) — utilisation numerator.
  double busy_area = 0.0;
  /// busy_area / (m * cmax); 0 when cmax is 0.
  double utilisation = 0.0;
  std::int64_t events = 0;
};

/// Reusable buffers for repeated simulations: the event heap and the
/// per-processor occupancy array.
/// One workspace per thread; every buffer is cleared (capacity kept) at the
/// start of a run, so steady-state simulation performs no heap allocation.
struct SimWorkspace {
  struct Event {
    double time = 0.0;
    int task = 0;
    std::uint8_t is_finish = 0;  ///< finishes processed before starts
  };
  std::vector<Event> heap;
  std::vector<int> owner;   ///< per processor: running task or -1
};

/// Execute flat placements (entries indexed like the instance's tasks;
/// duration <= 0 = unassigned) against `instance`, reusing `ws` and
/// writing into `out` (cleared first, capacity kept). Reports conflicts
/// (double-booked processors), duration mismatches, unassigned tasks and
/// processor ids outside [0, instance.procs()) as errors rather than
/// throwing, so tests can assert on specifics.
void simulate_execution(const FlatPlacements& flat, const Instance& instance,
                        SimWorkspace& ws, SimResult& out);

/// Convenience overload allocating its own workspace and result.
[[nodiscard]] SimResult simulate_execution(const FlatPlacements& flat,
                                           const Instance& instance);

}  // namespace moldsched
