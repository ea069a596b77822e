#include "engine/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.hpp"

namespace moldsched {

PolicyWorkspace& EngineWorkspace::policy_workspace(
    const SchedulingPolicy& policy) {
  const void* key = policy.workspace_key();
  for (auto& slot : policy_pool) {
    if (slot.key == key) return *slot.ws;
  }
  policy_pool.push_back(PolicySlot{key, policy.make_workspace()});
  return *policy_pool.back().ws;
}

namespace {

/// Finish one off-line result from the flat placements staged in `ws`:
/// metrics are linear scans over the flat arrays, and a Schedule is
/// materialised into the pooled result object only when asked for.
void finish_offline_result(const Instance& instance, bool keep_schedules,
                           EngineWorkspace& ws, EngineResult& out) {
  out.cmax = ws.flat.cmax();
  out.weighted_completion_sum = ws.flat.weighted_completion_sum(instance);
  out.has_schedule = false;
  if (keep_schedules) {
    // Refill the result's pooled Schedule in place (processor-vector
    // capacity survives) instead of building a fresh one per batch.
    ws.flat.materialize_into(instance.procs(), out.schedule);
    out.has_schedule = true;
  }
}

/// Serve one off-line request under `policy`. With a decision cache
/// configured and a policy that opts in (cache_key() != 0, request not
/// bypassed), a recurring shape is served by signature lookup + replay;
/// the replayed doubles are the cached run's verbatim, so hit and fresh
/// results are bit-identical.
void run_policy_request(const SchedulingPolicy& policy,
                        const Instance& instance,
                        const EngineOptions& options, bool bypass_cache,
                        EngineWorkspace& ws, EngineResult& out) {
  DecisionCache* cache = options.cache;
  const std::uint64_t policy_key =
      (cache != nullptr && !bypass_cache) ? policy.cache_key() : 0;
  InstanceSignature sig;
  if (policy_key != 0) {
    sig = canonical_signature(instance, cache->options().quantize_steps,
                              ws.signature);
    if (cache->lookup(sig, policy_key, instance, ws.flat, out.diag)) {
      finish_offline_result(instance, options.keep_schedules, ws, out);
      return;
    }
  }
  PolicyWorkspace& policy_ws = ws.policy_workspace(policy);
  policy_ws.last_diag = DemtDiagnostics{};  // workspaces carry no state
  policy.schedule_into(instance, policy_ws, ws.flat);
  out.diag = policy_ws.last_diag;
  finish_offline_result(instance, options.keep_schedules, ws, out);
  if (policy_key != 0) {
    cache->insert(sig, policy_key, instance, ws.flat, out.diag);
  }
}

/// Throws std::invalid_argument(message) when `policy` is null.
void require_policy(const SchedulingPolicy* policy, const char* message) {
  if (policy == nullptr) throw std::invalid_argument(message);
}

void serve_offline(const EngineRequest& request, const EngineOptions& options,
                   EngineWorkspace& ws, EngineResult& out) {
  if (request.instance == nullptr) {
    throw std::invalid_argument("SchedulerEngine: request without instance");
  }
  require_policy(request.policy, "SchedulerEngine: request without policy");
  run_policy_request(*request.policy, *request.instance, options,
                     request.bypass_cache, ws, out);
}

void serve_online(const OnlineRequest& request, EngineWorkspace& ws,
                  FlatOnlineResult& out) {
  if (request.jobs == nullptr) {
    throw std::invalid_argument("SchedulerEngine: request without jobs");
  }
  require_policy(request.policy, "SchedulerEngine: request without policy");
  static const std::vector<NodeReservation> kNoReservations;
  online_batch_schedule_into(
      request.m, *request.jobs, *request.policy,
      ws.policy_workspace(*request.policy),
      request.reservations != nullptr ? *request.reservations
                                      : kNoReservations,
      ws.online, out);
}

/// Fold a session's cumulative speculation counters into the engine stats
/// as deltas since the last harvest (sessions are pooled and their own
/// counters reset at open/restore, so the engine tracks what it has seen).
void harvest_speculation(EngineStreamState& state, EngineStats& stats) {
  const std::uint64_t decided = state.sim.speculated_batches();
  const std::uint64_t committed = state.sim.committed_speculations();
  const std::uint64_t rolled_back = state.sim.rolled_back_speculations();
  stats.spec_decided += decided - state.spec_seen_decided;
  stats.spec_committed += committed - state.spec_seen_committed;
  stats.spec_rolled_back += rolled_back - state.spec_seen_rolled_back;
  state.spec_seen_decided = decided;
  state.spec_seen_committed = committed;
  state.spec_seen_rolled_back = rolled_back;
}

}  // namespace

SchedulerEngine::SchedulerEngine(EngineOptions options)
    : options_(options) {
  if (options_.workers < 0) {
    throw std::invalid_argument("SchedulerEngine: workers < 0");
  }
}

std::size_t SchedulerEngine::strand_count(std::size_t count) const {
  if (count <= 1 || options_.workers == 1) return 1;
  // From inside a pool worker the dispatch runs inline anyway.
  if (ThreadPool::this_thread_is_worker()) return 1;
  std::size_t strands = shared_thread_pool().size();
  if (options_.workers > 0) {
    strands = std::min(strands, static_cast<std::size_t>(options_.workers));
  }
  return std::max<std::size_t>(1, std::min(strands, count));
}

std::vector<EngineResult> SchedulerEngine::schedule_batch(
    const std::vector<EngineRequest>& requests) {
  std::vector<EngineResult> results;
  schedule_batch(requests, results);
  return results;
}

void SchedulerEngine::schedule_batch(
    const std::vector<EngineRequest>& requests,
    std::vector<EngineResult>& results) {
  results.resize(requests.size());
  schedule_batch_into(requests.data(), requests.size(), results.data());
}

void SchedulerEngine::schedule_batch_into(const EngineRequest* requests,
                                          std::size_t count,
                                          EngineResult* results) {
  run_indexed(count, [&](EngineWorkspace& ws, std::size_t i) {
    serve_offline(requests[i], options_, ws, results[i]);
  });
  stats_.requests += count;
}

std::vector<EngineResult> SchedulerEngine::schedule_all(
    const std::vector<Instance>& instances, const SchedulingPolicy& policy) {
  std::vector<EngineRequest> requests(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    requests[i].instance = &instances[i];
    requests[i].policy = &policy;
  }
  return schedule_batch(requests);
}

void SchedulerEngine::simulate_batch(
    const std::vector<OnlineRequest>& requests,
    std::vector<FlatOnlineResult>& results) {
  results.resize(requests.size());
  run_indexed(requests.size(), [&](EngineWorkspace& ws, std::size_t i) {
    serve_online(requests[i], ws, results[i]);
  });
  stats_.online_requests += requests.size();
}

EngineStreamId SchedulerEngine::acquire_stream(const StreamConfig& config,
                                               const StreamCheckpoint* ckpt) {
  require_policy(config.policy, "SchedulerEngine: stream without policy");
  if (workspaces_.empty()) workspaces_.resize(1);
  EngineWorkspace& ws = workspaces_[0];
  int index = -1;
  if (!ws.free_streams.empty()) {
    index = ws.free_streams.back();
    ws.free_streams.pop_back();
  } else {
    index = static_cast<int>(ws.streams.size());
    ws.streams.push_back(std::make_unique<EngineStreamState>());
  }
  EngineStreamState& state = *ws.streams[static_cast<std::size_t>(index)];
  static const std::vector<NodeReservation> kNoReservations;
  try {
    if (ckpt != nullptr) {
      state.sim.restore(*ckpt);
    } else {
      state.sim.open(config.m, config.reservations != nullptr
                                   ? *config.reservations
                                   : kNoReservations);
    }
  } catch (...) {
    ws.free_streams.push_back(index);
    throw;
  }
  state.sim.set_speculate(config.speculate);
  state.sim.set_speculate_depth(config.speculate_depth);
  state.policy = config.policy;
  state.in_use = true;
  state.spec_seen_decided = 0;
  state.spec_seen_committed = 0;
  state.spec_seen_rolled_back = 0;
  ++state.serial;
  return EngineStreamId{index, state.serial};
}

void SchedulerEngine::release_stream(int index) noexcept {
  EngineWorkspace& ws = workspaces_[0];
  EngineStreamState& state = *ws.streams[static_cast<std::size_t>(index)];
  state.in_use = false;
  state.policy = nullptr;
  ++state.serial;
  ws.free_streams.push_back(index);
}

EngineStreamId SchedulerEngine::open_stream(const StreamConfig& config) {
  const EngineStreamId id = acquire_stream(config, nullptr);
  ++stats_.streams_opened;
  return id;
}

EngineStreamState& SchedulerEngine::stream_state(const EngineStreamId& id) {
  if (workspaces_.empty() || id.index < 0 ||
      static_cast<std::size_t>(id.index) >= workspaces_[0].streams.size()) {
    throw std::invalid_argument("SchedulerEngine: unknown stream");
  }
  EngineStreamState& state = *workspaces_[0].streams[
      static_cast<std::size_t>(id.index)];
  if (!state.in_use || state.serial != id.serial) {
    throw std::invalid_argument("SchedulerEngine: unknown stream");
  }
  return state;
}

void SchedulerEngine::feed_stream(const EngineStreamId& id,
                                  const StreamArrival* arrivals,
                                  std::size_t count, double watermark,
                                  StreamDelivery& out) {
  EngineStreamState& state = stream_state(id);
  state.sim.feed(arrivals, count, watermark, *state.policy,
                 workspaces_[0].policy_workspace(*state.policy), out);
  harvest_speculation(state, stats_);
  ++stats_.stream_feeds;
  stats_.stream_arrivals += count;
}

void SchedulerEngine::close_stream(const EngineStreamId& id,
                                   StreamDelivery& out) {
  EngineStreamState& state = stream_state(id);
  // The session returns to the pool whatever finish() does: close is
  // terminal, and a broken stream must not leak its slot.
  try {
    state.sim.finish(*state.policy,
                     workspaces_[0].policy_workspace(*state.policy), out);
  } catch (...) {
    harvest_speculation(state, stats_);
    release_stream(id.index);
    throw;
  }
  harvest_speculation(state, stats_);
  release_stream(id.index);
}

void SchedulerEngine::checkpoint_stream(const EngineStreamId& id,
                                        StreamCheckpoint& out) {
  stream_state(id).sim.checkpoint(out);
}

EngineStreamId SchedulerEngine::restore_stream(const StreamConfig& config,
                                               const StreamCheckpoint& ckpt) {
  const EngineStreamId id = acquire_stream(config, &ckpt);
  ++stats_.streams_restored;
  return id;
}

void SchedulerEngine::abandon_stream(const EngineStreamId& id) noexcept {
  if (workspaces_.empty() || id.index < 0 ||
      static_cast<std::size_t>(id.index) >= workspaces_[0].streams.size()) {
    return;
  }
  EngineStreamState& state =
      *workspaces_[0].streams[static_cast<std::size_t>(id.index)];
  if (!state.in_use || state.serial != id.serial) return;
  release_stream(id.index);
}

bool SchedulerEngine::stream_open(const EngineStreamId& id) const noexcept {
  if (workspaces_.empty() || id.index < 0 ||
      static_cast<std::size_t>(id.index) >= workspaces_[0].streams.size()) {
    return false;
  }
  const EngineStreamState& state =
      *workspaces_[0].streams[static_cast<std::size_t>(id.index)];
  return state.in_use && state.serial == id.serial;
}

}  // namespace moldsched
