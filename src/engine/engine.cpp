#include "engine/engine.hpp"

#include <algorithm>
#include <stdexcept>

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
/// metrics are linear scans over the flat arrays, and the placements are
/// copied into the pooled result object only when asked for.
void finish_offline_result(const Instance& instance, bool keep_schedules,
                           EngineWorkspace& ws, EngineResult& out) {
  out.cmax = ws.flat.cmax();
  out.weighted_completion_sum = ws.flat.weighted_completion_sum(instance);
  out.has_schedule = false;
  if (keep_schedules) {
    // Copy-assign keeps the result's buffer capacity: no allocation once
    // the pooled result has seen a request this large.
    out.schedule.copy_from(ws.flat);
    out.has_schedule = true;
  }
}

/// Serve one off-line request under `policy`. With a decision cache
/// configured and a policy that opts in (cache_key() != 0), a recurring
/// shape is served by signature lookup + replay; the replayed doubles are
/// the cached run's verbatim, so hit and fresh results are bit-identical.
void run_policy_request(const SchedulingPolicy& policy,
                        const Instance& instance,
                        const EngineOptions& options, EngineWorkspace& ws,
                        EngineResult& out) {
  DecisionCache* cache = options.cache;
  const std::uint64_t policy_key =
      cache != nullptr ? policy.cache_key() : 0;
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
  // The metrics scan and the cache insert assume one placement per task.
  policy.check_output(instance, ws.flat);
  out.diag = policy_ws.last_diag;
  finish_offline_result(instance, options.keep_schedules, ws, out);
  if (policy_key != 0) {
    cache->insert(sig, policy_key, instance, ws.flat, out.diag);
  }
}

void serve_offline(const EngineRequest& request, const EngineOptions& options,
                   EngineWorkspace& ws, EngineResult& out) {
  if (request.instance == nullptr) {
    throw std::invalid_argument("SchedulerEngine: request without instance");
  }
  if (request.policy == nullptr) {
    throw std::invalid_argument("SchedulerEngine: request without policy");
  }
  run_policy_request(*request.policy, *request.instance, options, ws, out);
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

}  // namespace moldsched
