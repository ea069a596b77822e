/// \file engine.hpp
/// Multi-instance batch scheduling engine: the server-style entry point of
/// moldsched. A SchedulerEngine accepts many independent off-line
/// scheduling requests (the paper's batch of released jobs) and runs them
/// concurrently on the process-wide shared_thread_pool(), one pooled
/// EngineWorkspace per strand, so a steady request stream stops
/// re-warming buffers on every request. A whole on-line simulation is one
/// call to online_batch_schedule_into (sim/online.hpp); live streams are
/// OnlineStream sessions (sim/stream.hpp), which the serving layer owns
/// and feeds with this engine's pooled policy workspace.
///
/// The per-request algorithm is a SchedulingPolicy object
/// (core/policy.hpp): every request carries a required
/// `const SchedulingPolicy*` (null is rejected with
/// std::invalid_argument), the engine pools one policy workspace per
/// (strand, workspace key), and any user-defined policy plugs into every
/// entry point below without engine changes.
///
/// Determinism contract: results depend only on the requests, never on the
/// worker count. Requests are independent, each runs with per-request
/// options inside its strand's workspace, and results are written at the
/// request's index — `schedule_batch` with 1, 2, 4 or all workers returns
/// bit-identical results (mirrored by tests/test_engine.cpp). Each DEMT
/// call runs on one thread, so where it lands never changes its schedule.
///
/// Allocation contract: the engine's own dispatch adds no per-request heap
/// allocation in steady state. FlatListPolicy and DemtPolicy requests in
/// metrics-only mode (`keep_schedules == false`) are fully
/// allocation-free after warm-up (DEMT reuses a pooled per-strand
/// DemtWorkspace), and so is DEMT with `keep_schedules`: the result's
/// flat placements are refilled in place. tests/alloc/ gates all three.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/decision_cache.hpp"
#include "core/demt.hpp"
#include "core/policy.hpp"
#include "sched/flat_schedule.hpp"
#include "sched/list_scheduler.hpp"
#include "tasks/instance.hpp"
#include "util/thread_pool.hpp"

namespace moldsched {

/// One off-line request: schedule `*instance` with `*policy`. Both are
/// borrowed — the caller keeps them alive until the batch call returns —
/// and both are required.
struct EngineRequest {
  const Instance* instance = nullptr;
  /// The per-batch algorithm (required).
  const SchedulingPolicy* policy = nullptr;
};

struct EngineResult {
  double cmax = 0.0;
  double weighted_completion_sum = 0.0;
  /// Placements, one entry per task; only valid when `has_schedule`
  /// (metrics-only mode skips the copy). validate_schedule and
  /// render_gantt read it as is.
  bool has_schedule = false;
  FlatPlacements schedule;
  DemtDiagnostics diag;  ///< meaningful for DemtPolicy requests only
};

struct EngineOptions {
  /// Worker strands per batch call: 0 = every shared-pool worker, 1 = run
  /// on the calling thread (no pool round-trip), k > 1 = cap at k. Results
  /// are identical for every setting.
  int workers = 0;
  /// Copy the placements into each result. false = metrics-only serving
  /// mode.
  bool keep_schedules = true;
  /// Decision cache (core/decision_cache.hpp), borrowed for the engine's
  /// whole life; nullptr (default) disables caching entirely — the
  /// pre-cache hot path, bit-identical to before the cache existed. When
  /// set, off-line requests whose policy opts in (cache_key() != 0) are
  /// served by signature lookup + allotment replay on a hit, and inserted
  /// on a miss. Results are bit-identical either way (the cache verifies
  /// task descriptors exactly before replaying); an engine without a cache
  /// is the guaranteed fresh run. One cache may be shared by any number of
  /// engines — the serving layer passes one to every shard.
  DecisionCache* cache = nullptr;
};

/// Cumulative counters; read through SchedulerEngine::stats().
struct EngineStats {
  std::uint64_t requests = 0;  ///< off-line requests served
  std::uint64_t batches = 0;   ///< batch calls dispatched
  int strands_last_batch = 1;  ///< concurrency of the last call
};

/// Per-strand reusable state: every buffer a request needs.
/// The engine owns one per strand; two concurrent requests never share
/// one. Policy scratch is pooled per (strand, SchedulingPolicy::
/// workspace_key): the first request a strand serves under a given key
/// allocates its workspace, every later one reuses it — which is what
/// keeps the steady-state serving loop allocation-free.
struct EngineWorkspace {
  FlatPlacements flat;         ///< policy output staging
  SignatureScratch signature;  ///< decision-cache canonicalization scratch
  /// Pooled per-policy scratch, keyed by workspace_key().
  struct PolicySlot {
    const void* key = nullptr;
    std::unique_ptr<PolicyWorkspace> ws;
  };
  std::vector<PolicySlot> policy_pool;
  /// Fetch (or lazily create) this strand's workspace for `policy`.
  [[nodiscard]] PolicyWorkspace& policy_workspace(
      const SchedulingPolicy& policy);
};

class SchedulerEngine {
 public:
  explicit SchedulerEngine(EngineOptions options = {});

  /// Serve every off-line request; results[i] answers requests[i].
  /// Deterministic for any worker count. Not thread-safe: one batch call at
  /// a time per engine.
  [[nodiscard]] std::vector<EngineResult> schedule_batch(
      const std::vector<EngineRequest>& requests);

  /// Same, reusing the caller's result storage (steady-state serving loop).
  void schedule_batch(const std::vector<EngineRequest>& requests,
                      std::vector<EngineResult>& results);

  /// Batch-assembly hook for serving layers that coalesce requests in
  /// their own storage (serve/async_scheduler.hpp assembles batches from
  /// ring-buffer slots): serve `count` requests from raw arrays.
  /// `results` must point at `count` constructed EngineResult slots.
  /// Identical semantics and determinism to the vector overloads; adds no
  /// heap allocation of its own.
  void schedule_batch_into(const EngineRequest* requests, std::size_t count,
                           EngineResult* results);

  /// The first strand's pooled workspace for `policy` — the one
  /// single-strand batch calls use. A caller that runs a policy outside
  /// schedule_batch (the serving layer's stream feeds) borrows it under
  /// the same one-caller-at-a-time contract.
  [[nodiscard]] PolicyWorkspace& policy_workspace(
      const SchedulingPolicy& policy) {
    return workspaces_[0].policy_workspace(policy);
  }

  [[nodiscard]] const EngineOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

 private:
  /// Dispatch `count` indexed work items over the strands (inline when one
  /// strand, shared pool otherwise) and update the dispatch stats. A
  /// template, not std::function: the single-strand serving loop must not
  /// allocate per batch call.
  template <typename Body>
  void run_indexed(std::size_t count, const Body& body) {
    if (count == 0) return;
    const std::size_t strands = strand_count(count);
    if (workspaces_.size() < strands) workspaces_.resize(strands);
    if (strands == 1) {
      for (std::size_t i = 0; i < count; ++i) body(workspaces_[0], i);
    } else {
      shared_thread_pool().parallel_for_slots(
          0, count,
          [&](std::size_t slot, std::size_t i) { body(workspaces_[slot], i); },
          strands);
    }
    ++stats_.batches;
    stats_.strands_last_batch = static_cast<int>(strands);
  }

  [[nodiscard]] std::size_t strand_count(std::size_t count) const;

  EngineOptions options_;
  EngineStats stats_;
  std::vector<EngineWorkspace> workspaces_ =
      std::vector<EngineWorkspace>(1);
};

}  // namespace moldsched
