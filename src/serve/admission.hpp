/// \file admission.hpp
/// Pluggable admission control for the async serving layer
/// (serve/async_scheduler.hpp). The pre-policy scheduler owned a fixed
/// slot table with one FIFO: every accepted request waited in the same
/// line, and the only knob was the global `queue_capacity`. AdmissionPolicy
/// generalises that into **priority lanes**: a fixed set of lanes (name,
/// weight, optional per-lane in-flight bound), a classification hook that
/// assigns submissions to lanes, and weighted-fair service — each shard
/// pops its pending work across lanes in proportion to the lane weights
/// (work-conserving deficit round-robin), FIFO within a lane.
///
/// What stays true with lanes on:
///  * the global `queue_capacity` slot table still bounds total in-flight
///    work — lanes subdivide it, they never extend it;
///  * results stay bit-identical to the synchronous engine (lanes change
///    *when* a request runs, never *what* it computes);
///  * the steady-state submit → dispatch → take cycle stays allocation-free
///    (lane queues and counters are pre-allocated at construction);
///  * a stream's feeds all ride the stream's lane, so per-stream FIFO
///    order — and therefore ordered stream delivery — is preserved.
///
/// The policy object is borrowed by the AsyncScheduler for its whole life:
/// the lane table is copied at construction, but `classify`/
/// `classify_stream` are consulted on every submit without an explicit
/// lane. A policy must therefore be immutable and thread-safe (the
/// built-ins are stateless). Passing no policy gives `FifoAdmission` —
/// one lane, exactly the pre-policy behaviour.

#pragma once

#include <string>
#include <vector>

#include "engine/engine.hpp"

namespace moldsched {

/// One priority lane of the admission table.
struct LaneSpec {
  std::string name = "default";  ///< stable label (stats, benches, logs)
  /// Weighted-fair share: with backlog everywhere, a shard serves lanes in
  /// proportion to their weights. Must be >= 1.
  int weight = 1;
  /// Per-lane admission bound: maximum requests of this lane in flight
  /// (accepted, not yet taken). <= 0 means no per-lane bound — only the
  /// scheduler-wide queue_capacity applies.
  int queue_capacity = 0;
  /// Deadline-based drop: a one-shot request of this lane that has waited
  /// longer than about this long in its shard's coalescing queue is
  /// completed as Cancelled instead of served (counted in
  /// AsyncStats::dropped; the slot still needs take()). <= 0 disables the
  /// drop. Stream feeds are exempt — skipping one would corrupt the tape.
  double max_queue_ms = 0.0;
};

/// The admission decision surface: which lanes exist and who goes where.
/// Subclass to add lanes or content-based classification; the scheduler
/// copies the lane table at construction and calls classify on every
/// submit that does not name a lane explicitly.
class AdmissionPolicy {
 public:
  AdmissionPolicy() = default;
  virtual ~AdmissionPolicy();
  AdmissionPolicy(const AdmissionPolicy&) = delete;
  AdmissionPolicy& operator=(const AdmissionPolicy&) = delete;

  /// The lane table, size >= 1; lane 0 is the default. Copied once at
  /// scheduler construction — lanes are fixed for the scheduler's life.
  [[nodiscard]] virtual std::vector<LaneSpec> lanes() const = 0;

  /// Lane of a one-shot request submitted without an explicit lane.
  /// Out-of-range returns are clamped to the lane table. Default: lane 0.
  [[nodiscard]] virtual int classify(
      const EngineRequest& request) const noexcept;

  /// Lane of a stream opened without an explicit lane; the stream's feeds
  /// and close all ride this lane. Default: lane 0.
  [[nodiscard]] virtual int classify_stream(
      const StreamConfig& config) const noexcept;
};

/// The pre-policy behaviour: one lane, pure FIFO, global bound only. This
/// is what an AsyncScheduler constructed without a policy uses.
class FifoAdmission final : public AdmissionPolicy {
 public:
  [[nodiscard]] std::vector<LaneSpec> lanes() const override;
};

/// A fixed lane table served weighted-fair. Classification is by explicit
/// lane on submit (or `default_lane` when none is given); subclass
/// AdmissionPolicy directly for content-based routing.
class WeightedLanesAdmission : public AdmissionPolicy {
 public:
  /// Throws std::invalid_argument on an empty table, a weight < 1, or a
  /// default_lane outside the table.
  explicit WeightedLanesAdmission(std::vector<LaneSpec> lanes,
                                  int default_lane = 0);

  [[nodiscard]] std::vector<LaneSpec> lanes() const override;
  [[nodiscard]] int classify(
      const EngineRequest& request) const noexcept override;
  [[nodiscard]] int classify_stream(
      const StreamConfig& config) const noexcept override;

 private:
  std::vector<LaneSpec> lanes_;
  int default_lane_ = 0;
};

}  // namespace moldsched
