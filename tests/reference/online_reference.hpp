/// \file online_reference.hpp
/// Test-only oracle for the on-line batch framework (sim/online.hpp): the
/// object-path implementation from before the flat core, which allocates a
/// Schedule and a reduced-machine Instance per batch decision and runs its
/// own reservation fixpoint. The flat core, the streaming core and every
/// serving layer above them are asserted bit-identical to it.

#pragma once

#include <functional>
#include <vector>

#include "reference/schedule.hpp"
#include "sim/online.hpp"

namespace moldsched {

/// Off-line scheduler plug-in: full instance in, complete schedule out
/// (any library algorithm, e.g. `demt_schedule(i).schedule`). The oracle
/// checks each output by materialising it as a Schedule.
using OfflineScheduler = std::function<FlatPlacements(const Instance&)>;

struct OnlineResult {
  /// Global-time placements, indexed like `jobs`.
  Schedule schedule;
  std::vector<double> completion;   ///< per job
  std::vector<double> flow;         ///< completion - release
  double cmax = 0.0;
  double weighted_completion_sum = 0.0;
  double weighted_flow_sum = 0.0;
  int num_batches = 0;
  std::vector<double> batch_starts;

  explicit OnlineResult(int m, int n) : schedule(m, n) {}
};

/// Same contract, inputs, checks and messages as
/// online_batch_schedule_into, with `offline` in the policy's place.
[[nodiscard]] OnlineResult online_batch_schedule_reference(
    int m, const std::vector<OnlineJob>& jobs, const OfflineScheduler& offline,
    const std::vector<NodeReservation>& reservations = {});

}  // namespace moldsched
