/// \file checkpoint.hpp
/// Checkpoint/restore for streaming sessions (sim/stream.hpp) — the state
/// a live OnlineStream needs to resume **bit-identically** on another
/// strand or shard: machine clock and watermark, reservations, the
/// undecided (fed, not yet batch-final) arrivals, the divisible
/// residue (remaining work per divisible id, spent entries included so the
/// id space survives), and the running metric totals of the decided
/// prefix. Decisions already delivered are *not* carried — their
/// placements left through StreamDelivery on the old home — so a
/// checkpoint is O(pending state), not O(stream lifetime).
///
/// The flat SoA layout (parallel primitive vectors, one prefix-offset
/// array for the task time vectors) makes the snapshot cheap to take and
/// copy. Failover (serve/async_scheduler.hpp shard death) hands the struct
/// over directly, in process.
///
/// Resume contract: restore() rebuilds a session whose *future* feeds,
/// finish, and deliveries are bit-identical to the original stream's —
/// gated by tests/test_checkpoint.cpp at every watermark boundary for
/// moldable, rigid, and divisible arrivals. The restored `result()` keeps
/// the running totals (cmax, weighted sums, batch count/starts) but holds
/// zeroed placements for jobs decided before the checkpoint: those were
/// delivered by the old session and are deliberately not duplicated.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/online.hpp"

namespace moldsched {

/// Flat snapshot of one live OnlineStream. Produced by
/// OnlineStream::checkpoint, consumed by OnlineStream::restore. Buffers
/// keep capacity across reuse, so a pooled checkpoint object re-snapshots
/// without allocation once warm.
struct StreamCheckpoint {
  int m = 1;                ///< machine size
  double now = 0.0;         ///< machine clock (end of last decided batch)
  double watermark = 0.0;   ///< release promise at snapshot time
  bool finished = false;    ///< finish() already ran
  bool broken = false;      ///< an earlier error broke the stream
  std::vector<NodeReservation> reservations;  ///< copied at open

  /// Stream-global id of the first undecided batch job — the decision
  /// frontier. Ids below it were decided (and delivered) before the
  /// snapshot; restore() pads its result arrays to keep the id space.
  std::int64_t jobs_decided = 0;

  // Running totals of the decided prefix (batch jobs only, matching
  // FlatOnlineResult; num_batches == batch_starts.size()).
  double cmax = 0.0;
  double weighted_completion_sum = 0.0;
  double weighted_flow_sum = 0.0;
  std::vector<double> batch_starts;  ///< open instants of decided batches

  // Pending (fed, undecided) batch jobs in stream order, SoA. Entry i is
  // stream job jobs_decided + i; its time vector is
  // job_times[job_times_begin[i] .. job_times_begin[i + 1]).
  std::vector<double> job_release;
  std::vector<double> job_weight;
  std::vector<std::int32_t> job_min_procs;
  std::vector<std::int64_t> job_times_begin;  ///< size pending_jobs() + 1
  std::vector<double> job_times;              ///< flattened p(k) tables

  // Every divisible entry fed so far (id == index). Spent entries ride
  // along with remaining == 0 so divisible ids in later deliveries match
  // the original stream's.
  std::vector<double> div_remaining;
  std::vector<double> div_weight;
  std::vector<double> div_release;
  /// Weighted completion sum over divisible jobs finished so far.
  double divisible_weighted_completion_sum = 0.0;

  /// Number of undecided batch jobs carried by this snapshot.
  [[nodiscard]] std::size_t pending_jobs() const noexcept {
    return job_release.size();
  }

  /// Empty all fields back to a fresh-session snapshot; capacity kept.
  void clear();
};

}  // namespace moldsched
