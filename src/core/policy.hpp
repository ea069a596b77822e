/// \file policy.hpp
/// The pluggable scheduling-policy surface. The paper is about
/// *interchangeable* per-batch algorithms — DEMT's dual-approximation
/// pipeline against list baselines plugged into one online batch framework
/// — and SchedulingPolicy is that interchange point as a first-class
/// object: one small-vtable interface every entry point of the library
/// consumes (`SchedulerEngine` off-line batches, the on-line simulator,
/// `OnlineStream` feeds, and the async serving layer all take a
/// `const SchedulingPolicy&`), instead of a hard-coded algorithm enum.
///
/// A policy is an immutable algorithm description (options frozen at
/// construction) plus a workspace factory: `make_workspace()` creates the
/// scratch the algorithm needs, callers pool one workspace per strand (see
/// `EngineWorkspace`), and `schedule_into` runs one batch inside a pooled
/// workspace writing flat placements — the allocation-free raw-array form
/// the hot paths use. Policies themselves are stateless per call and
/// const: one policy object may serve any number of engines, shards, and
/// streams concurrently, as long as each strand uses its own workspace.
///
/// Built-ins: `DemtPolicy` (the paper's bi-criteria algorithm, §3.2) and
/// `FlatListPolicy` (min-work allotments + one Smith-ordered list pass —
/// the allocation-free serving baseline). A third baseline,
/// `LptRigidPolicy`, lives with the paper baselines
/// (baselines/lpt_policy.hpp) as proof the extension point needs no
/// engine/serve changes. A policy object is the only way to choose the
/// per-batch algorithm: every request and stream config requires one.
///
/// Writing a policy:
///  1. subclass PolicyWorkspace with whatever scratch the algorithm reuses
///     across calls (capacity only, never state);
///  2. subclass SchedulingPolicy; `schedule_into` may downcast its
///     workspace argument to the type `make_workspace` returned;
///  3. override `workspace_key()` with a per-class tag when workspaces of
///     different instances are interchangeable (true whenever the
///     workspace carries no per-instance state) so pooled workspaces are
///     shared across policy objects — the built-ins do this, so DemtPolicy
///     objects with different options share one pooled workspace per
///     strand.

#pragma once

#include <cstdint>
#include <memory>

#include "core/demt.hpp"
#include "sched/flat_schedule.hpp"
#include "sched/list_scheduler.hpp"
#include "tasks/instance.hpp"

namespace moldsched {

/// Base of every policy's per-strand scratch. Callers pool one per
/// (strand, workspace_key); a workspace carries capacity, never state,
/// between calls — except `last_diag`, which every `schedule_into` call
/// overwrites (it is how diagnostics travel out of the type-erased hook).
class PolicyWorkspace {
 public:
  PolicyWorkspace() = default;
  virtual ~PolicyWorkspace();
  PolicyWorkspace(const PolicyWorkspace&) = delete;
  PolicyWorkspace& operator=(const PolicyWorkspace&) = delete;

  /// Diagnostics of the most recent schedule_into call in this workspace.
  /// Reset to default by the caller before each call; policies with
  /// something to report (DemtPolicy) overwrite it.
  DemtDiagnostics last_diag;
};

/// A per-batch off-line scheduling algorithm as a pluggable object. See
/// the file comment for the authoring recipe and the pooling contract.
class SchedulingPolicy {
 public:
  SchedulingPolicy() = default;
  virtual ~SchedulingPolicy();
  SchedulingPolicy(const SchedulingPolicy&) = delete;
  SchedulingPolicy& operator=(const SchedulingPolicy&) = delete;

  /// Stable human-readable identifier (logs, benches, reports).
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Create the scratch this policy needs. Callers keep one per strand
  /// (keyed by workspace_key()) and hand it back to every schedule_into.
  [[nodiscard]] virtual std::unique_ptr<PolicyWorkspace> make_workspace()
      const = 0;

  /// Schedule `batch` (every task must be placed), writing flat placements
  /// into `out` (reset by the callee; buffer capacity reused). `ws` is
  /// always a workspace this policy's make_workspace created — downcast
  /// freely. Must be safe to call concurrently from multiple strands as
  /// long as each strand passes its own workspace.
  virtual void schedule_into(const Instance& batch, PolicyWorkspace& ws,
                             FlatPlacements& out) const = 0;

  /// Reject a malformed schedule_into output before a caller indexes with
  /// it: throws std::logic_error naming this policy unless `out`'s arrays
  /// have equal lengths, it has one assigned entry per task of `batch`,
  /// every processor range lies inside the id pool, and every id lies in
  /// [0, batch.procs()). The on-line
  /// simulator and the engine run it after every fresh call.
  void check_output(const Instance& batch, const FlatPlacements& out) const;

  /// Pooling identity: callers share one pooled workspace among all
  /// policies returning the same key. Default = `this` (per-instance,
  /// always safe). Override with a per-class tag when any instance's
  /// workspace serves any other instance of the class: DemtPolicy objects
  /// with different options then share one pooled workspace instead of
  /// each warming its own.
  [[nodiscard]] virtual const void* workspace_key() const noexcept;

  /// Decision-cache identity (core/decision_cache.hpp). 0 — the default —
  /// means "never cache my decisions" (always safe: unknown policies are
  /// simply not cached). A nonzero key must change whenever any frozen
  /// option that can change the schedule changes, and must be stable
  /// across policy objects built from equal options — it is a *value*
  /// identity, unlike workspace_key()'s class identity, so two DemtPolicy
  /// objects with different DemtOptions never share cache entries.
  /// The built-ins override this with option-derived keys.
  [[nodiscard]] virtual std::uint64_t cache_key() const noexcept;
};

/// The paper's bi-criteria DEMT algorithm (§3.2) as a policy. Options are
/// frozen at construction; the workspace wraps a DemtWorkspace and is
/// shared per class (DemtWorkspace carries capacity only).
class DemtPolicy final : public SchedulingPolicy {
 public:
  explicit DemtPolicy(DemtOptions options = {}) : options_(options) {}

  [[nodiscard]] const char* name() const noexcept override { return "demt"; }
  [[nodiscard]] std::unique_ptr<PolicyWorkspace> make_workspace()
      const override;
  void schedule_into(const Instance& batch, PolicyWorkspace& ws,
                     FlatPlacements& out) const override;
  [[nodiscard]] const void* workspace_key() const noexcept override;
  /// Hash of every DemtOptions field (each one can change the schedule).
  [[nodiscard]] std::uint64_t cache_key() const noexcept override;

  [[nodiscard]] const DemtOptions& options() const noexcept {
    return options_;
  }

 private:
  DemtOptions options_;
};

/// Min-work allotments + one Smith-ordered flat list pass: the fast,
/// allocation-free baseline for latency-critical serving. Workspace shared
/// per class.
class FlatListPolicy final : public SchedulingPolicy {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "flatlist";
  }
  [[nodiscard]] std::unique_ptr<PolicyWorkspace> make_workspace()
      const override;
  void schedule_into(const Instance& batch, PolicyWorkspace& ws,
                     FlatPlacements& out) const override;
  [[nodiscard]] const void* workspace_key() const noexcept override;
  /// Stateless algorithm: one class-wide constant key.
  [[nodiscard]] std::uint64_t cache_key() const noexcept override;
};

/// Fill `list.jobs` with every task of `instance` on its min-work
/// allotment — the shared first step of the rigid-allotment list policies
/// (FlatListPolicy, LptRigidPolicy); callers order the list and run the
/// pass. Allocation-free once `list` is warm.
void fill_min_work_jobs(const Instance& instance, ListPassWorkspace& list);

/// The FlatList algorithm as a free function: give every task its min-work
/// allotment, order by Smith ratio (weight/duration decreasing, task id
/// tie-break), run one allocation-free list pass into `out`. FlatListPolicy
/// wraps this; exposed for tests and bench oracles.
void flat_list_schedule(const Instance& instance, ListPassWorkspace& list,
                        FlatPlacements& out);

}  // namespace moldsched
