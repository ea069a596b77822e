/// \file validator.hpp
/// Full feasibility check of a schedule against its instance, on the flat
/// placements every path emits (no conversion). Used by every
/// integration/property test and by the experiment harness. Malformed
/// input — ragged arrays, ranges outside the id pool, bad ids, non-finite
/// times — is reported as an error, never read out of bounds.

#pragma once

#include <string>
#include <vector>

#include "sched/flat_schedule.hpp"
#include "tasks/instance.hpp"

namespace moldsched {

struct ValidationOptions {
  double tol = 1e-9;          ///< tolerance on time comparisons
  bool check_durations = true;///< duration must equal p(nprocs) of the task
  /// Optional per-task release dates (empty = all zero): start >= release.
  std::vector<double> releases;
};

struct ValidationReport {
  bool ok = true;
  std::vector<std::string> errors;

  void fail(std::string message) {
    ok = false;
    errors.push_back(std::move(message));
  }
};

/// Checks, on m = instance.procs(): the five arrays have one entry per
/// task; every task is assigned with a finite start >= 0 and a finite
/// duration > 0; its processor range lies inside `proc_ids` with count
/// >= 1, and its ids are in [0, m) without duplicates (ranges shared
/// between entries are fine: DEMT's merged stacks share one); the
/// allotment size is allowed for the task; the duration matches the
/// task's processing time for that allotment; no two tasks overlap on any
/// processor; releases respected when provided.
[[nodiscard]] ValidationReport validate_schedule(
    const FlatPlacements& schedule, const Instance& instance,
    const ValidationOptions& options = {});

/// Convenience: throws std::runtime_error with the error list when invalid.
void require_valid(const FlatPlacements& schedule, const Instance& instance,
                   const ValidationOptions& options = {});

}  // namespace moldsched
