/// \file online_reference.hpp
/// Test-only oracle for the on-line batch framework (sim/online.hpp): the
/// object-path implementation from before the flat core, which allocates a
/// Schedule and a reduced-machine Instance per batch decision and runs its
/// own reservation fixpoint. The flat core, the streaming core and every
/// serving layer above them are asserted bit-identical to it.

#pragma once

#include <vector>

#include "sim/online.hpp"

namespace moldsched {

/// Same contract, inputs, checks and messages as online_batch_schedule.
[[nodiscard]] OnlineResult online_batch_schedule_reference(
    int m, const std::vector<OnlineJob>& jobs, const OfflineScheduler& offline,
    const std::vector<NodeReservation>& reservations = {});

}  // namespace moldsched
