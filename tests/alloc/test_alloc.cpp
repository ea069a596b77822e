/// The zero-allocation gates. Every serving and kernel path that promises
/// to run allocation-free once its workspaces are warm is driven here with
/// a global operator-new hook (alloc_hook.hpp) counting every heap
/// allocation in the process, shard strands and the flusher included.
/// The steady-state bound is exactly 0.00; the cold DEMT call, which
/// sizes a fresh workspace by design, has a budget of 700.
///
/// This is its own executable, away from the main suite, so that nothing
/// else in the process allocates inside a measured window. Under
/// AddressSanitizer the hook is compiled out and every test skips.

#include "alloc_hook.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "../gate_workloads.hpp"
#include "core/decision_cache.hpp"
#include "core/demt.hpp"
#include "core/knapsack.hpp"
#include "core/policy.hpp"
#include "dualapprox/cmax_estimator.hpp"
#include "dualapprox/dual_test.hpp"
#include "engine/engine.hpp"
#include "sched/flat_schedule.hpp"
#include "serve/async_scheduler.hpp"
#include "sim/online.hpp"
#include "tasks/allotment_table.hpp"
#include "trace/slo.hpp"
#include "trace/swf.hpp"
#include "trace/tape.hpp"

namespace moldsched {
namespace {

#define SKIP_WITHOUT_HOOK()                                  \
  if (!kAllocHookEnabled) {                                  \
    GTEST_SKIP() << "operator-new hook compiled out (ASan)"; \
  }

/// Heap allocations made while `body` runs.
template <typename F>
std::uint64_t allocs_during(F&& body) {
  const std::uint64_t before = g_alloc_count.load();
  body();
  return g_alloc_count.load() - before;
}

std::vector<EngineRequest> requests_for(const std::vector<Instance>& instances,
                                        const SchedulingPolicy& policy) {
  std::vector<EngineRequest> requests(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    requests[i].instance = &instances[i];
    requests[i].policy = &policy;
  }
  return requests;
}

DemtPolicy gate_demt_policy() {
  DemtOptions options;
  options.shuffles = gate::kShuffles;
  return DemtPolicy(options);
}

// ------------------------------------------------------------ engine paths

TEST(Alloc, FlatListBatchMetricsOnly) {
  SKIP_WITHOUT_HOOK();
  const gate::EngineWorkload workload =
      gate::engine_workload(gate::kEngineAllocRequests);
  const FlatListPolicy policy;
  const auto requests = requests_for(workload.instances, policy);
  SchedulerEngine engine(EngineOptions{1, false});
  std::vector<EngineResult> results;
  engine.schedule_batch(requests, results);  // warm the workspaces
  EXPECT_EQ(allocs_during([&] { engine.schedule_batch(requests, results); }),
            0u);
}

TEST(Alloc, DemtBatchKeepSchedules) {
  SKIP_WITHOUT_HOOK();
  const gate::EngineWorkload workload =
      gate::engine_workload(gate::kEngineAllocRequests);
  const DemtPolicy policy = gate_demt_policy();
  const auto requests = requests_for(workload.instances, policy);
  SchedulerEngine engine(EngineOptions{1, true});
  std::vector<EngineResult> results;
  engine.schedule_batch(requests, results);
  EXPECT_EQ(allocs_during([&] { engine.schedule_batch(requests, results); }),
            0u);
}

TEST(Alloc, OnlineSimDemtOffline) {
  SKIP_WITHOUT_HOOK();
  const gate::EngineWorkload workload =
      gate::engine_workload(gate::kEngineAllocRequests);
  const DemtPolicy policy = gate_demt_policy();
  const auto policy_ws = policy.make_workspace();
  OnlineWorkspace online_ws;
  std::vector<FlatOnlineResult> results(workload.streams.size());
  const auto simulate_all = [&] {
    for (std::size_t i = 0; i < results.size(); ++i) {
      online_batch_schedule_into(gate::kM, workload.streams[i], policy,
                                 *policy_ws, {}, online_ws, results[i]);
    }
  };
  simulate_all();  // warm the workspaces
  EXPECT_EQ(allocs_during(simulate_all), 0u);
}

// ------------------------------------------------------------- serve paths

AsyncOptions serve_options() {
  AsyncOptions options;
  options.max_batch = gate::kServeMaxBatch;
  options.flush_after_ms = gate::kServeFlushMs;
  options.queue_capacity = 4096;
  return options;
}

TEST(Alloc, ServeMetricsOnlyWithLanes) {
  SKIP_WITHOUT_HOOK();
  const auto instances = gate::serve_instances();
  const FlatListPolicy policy;
  const auto requests = requests_for(instances, policy);
  AsyncOptions options = serve_options();
  options.lanes = gate::serve_lanes();
  AsyncScheduler async(options);
  std::vector<Ticket> tickets;
  tickets.reserve(requests.size());
  EngineResult result;
  const auto round = [&] {
    tickets.clear();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      tickets.push_back(async.submit(requests[i], static_cast<int>(i % 2)));
    }
    for (const Ticket& ticket : tickets) {
      (void)async.wait(ticket);
      (void)async.take(ticket, result);
    }
  };
  round();  // warm-up: slot buffers, assembly vectors, workspaces
  round();
  EXPECT_EQ(allocs_during([&] {
              for (int r = 0; r < gate::kServeReps; ++r) round();
            }),
            0u);
  EXPECT_GT(async.stats().lanes[1].completed, 0u);
}

TEST(Alloc, CacheHitsServeDemtMetricsOnly) {
  SKIP_WITHOUT_HOOK();
  const gate::ZipfWorkload workload = gate::zipf_workload();
  const DemtPolicy policy = gate_demt_policy();
  std::vector<EngineRequest> requests(workload.mix.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].instance =
        &workload.catalog[static_cast<std::size_t>(workload.mix[i])];
    requests[i].policy = &policy;
  }
  DecisionCache cache(DecisionCacheOptions{
      static_cast<std::size_t>(gate::kZipfShapes) * 8, 4, 32});
  AsyncOptions options = serve_options();
  options.cache = &cache;
  AsyncScheduler async(options);
  std::vector<Ticket> tickets;
  tickets.reserve(requests.size());
  EngineResult result;
  const auto round = [&] {
    tickets.clear();
    for (const auto& request : requests) {
      tickets.push_back(async.submit(request));
    }
    async.drain();
    for (const Ticket& ticket : tickets) (void)async.take(ticket, result);
  };
  // A shape is stored on its second sighting, so the misses of the first
  // two rounds fill the cache; every later request replays a cached
  // decision.
  for (int r = 0; r < 2 + gate::kServeReps; ++r) round();
  const std::uint64_t misses = cache.stats().misses;
  EXPECT_EQ(allocs_during([&] {
              for (int r = 0; r < gate::kServeReps; ++r) round();
            }),
            0u);
  EXPECT_EQ(cache.stats().misses, misses);
}

TEST(Alloc, FirstSightingInsertAllocatesNothing) {
  SKIP_WITHOUT_HOOK();
  // A shape's first insert only marks the doorkeeper: no record buffer
  // grows, so a never-repeating workload costs the cache no memory.
  const gate::EngineWorkload workload =
      gate::engine_workload(gate::kEngineAllocRequests);
  const FlatListPolicy policy;
  SignatureScratch scratch;
  auto ws = policy.make_workspace();
  std::vector<InstanceSignature> sigs;
  std::vector<FlatPlacements> flats(workload.instances.size());
  for (std::size_t i = 0; i < workload.instances.size(); ++i) {
    sigs.push_back(canonical_signature(workload.instances[i], 32, scratch));
    policy.schedule_into(workload.instances[i], *ws, flats[i]);
  }
  DecisionCache cache(DecisionCacheOptions{});
  const DemtDiagnostics diag;
  EXPECT_EQ(allocs_during([&] {
              for (std::size_t i = 0; i < sigs.size(); ++i) {
                cache.insert(sigs[i], policy.cache_key(),
                             workload.instances[i], flats[i], diag);
              }
            }),
            0u);
  EXPECT_EQ(cache.stats().inserts, 0u);
}

TEST(Alloc, SpeculativeStreamFeeds) {
  SKIP_WITHOUT_HOOK();
  const std::vector<gate::SparseFeed> tape = gate::sparse_watermark_tape();
  const DemtPolicy policy = gate_demt_policy();
  AsyncOptions options;
  options.max_batch = gate::kServeMaxBatch;
  options.flush_after_ms = 0.0;
  options.queue_capacity = 8;  // small slot ring: warm-up visits every slot
  options.max_streams = 4;
  AsyncScheduler async(options);
  StreamConfig config;
  config.m = gate::kM;
  config.policy = &policy;
  config.speculate = true;
  StreamDelivery delivery;
  const auto pass = [&] {
    const StreamTicket stream = async.open_stream(config);
    for (const gate::SparseFeed& feed : tape) {
      const Ticket ticket = async.submit_stream(
          stream, feed.arrivals.data(), feed.arrivals.size(), feed.watermark);
      (void)async.wait(ticket);
      (void)async.take_stream(ticket, delivery);
    }
    const Ticket close = async.close_stream(stream);
    (void)async.wait(close);
    (void)async.take_stream(close, delivery);
  };
  // Warm-up cycles every pooled slot and session, the staged-record pool,
  // the fill scratch and the delivery buffers.
  for (int r = 0; r < 16; ++r) pass();
  EXPECT_EQ(allocs_during([&] {
              for (int r = 0; r < gate::kServeReps; ++r) pass();
            }),
            0u);
  EXPECT_GT(async.stats().spec_committed, 0u);
}

TEST(Alloc, StreamArrivalsFlatList) {
  SKIP_WITHOUT_HOOK();
  const gate::StreamWorkload workload = gate::stream_workload();
  std::vector<StreamArrival> tape;
  for (const OnlineJob& job : workload.jobs[0]) {
    tape.push_back(moldable_arrival(job.task, job.release));
  }
  const FlatListPolicy policy;
  AsyncOptions options;
  options.max_batch = gate::kStreamMaxBatch;
  options.flush_after_ms = gate::kServeFlushMs;
  options.queue_capacity = 8;
  options.max_streams = 4;
  AsyncScheduler async(options);
  StreamConfig config;
  config.m = gate::kStreamM;
  config.policy = &policy;
  StreamDelivery delivery;
  const auto round = [&] {
    const StreamTicket stream = async.open_stream(config);
    const Ticket feed = async.submit_stream(stream, tape.data(), tape.size(),
                                            tape.back().release);
    (void)async.wait(feed);
    (void)async.take_stream(feed, delivery);
    const Ticket close = async.close_stream(stream);
    (void)async.wait(close);
    (void)async.take_stream(close, delivery);
  };
  for (int r = 0; r < 16; ++r) round();
  EXPECT_EQ(allocs_during([&] {
              for (int r = 0; r < gate::kServeReps; ++r) round();
            }),
            0u);
}

TEST(Alloc, TraceArrivalsWithSlo) {
  SKIP_WITHOUT_HOOK();
  SwfTrace trace;
  load_swf_file(MOLDSCHED_SOURCE_DIR "/tests/data/mini_trace.swf", trace);
  TapeOptions tape_options;
  tape_options.max_jobs = gate::kTraceMaxJobs;
  Tape tape;
  compile_tape(trace, tape_options, tape);
  const FlatListPolicy policy;
  AsyncOptions options;
  options.max_batch = gate::kStreamMaxBatch;
  options.flush_after_ms = gate::kServeFlushMs;
  options.queue_capacity = 8;
  options.max_streams = 4;
  AsyncScheduler async(options);
  StreamConfig config;
  config.m = tape.m;
  config.policy = &policy;
  StreamDelivery delivery;
  SloAccumulator slo;
  const auto record = [&] {
    for (int e = 0; e < delivery.num_jobs(); ++e) {
      const TapeJobInfo& info =
          tape.info[static_cast<std::size_t>(delivery.first_job + e)];
      slo.record(info.lane, info.release, info.min_time,
                 delivery.completion[static_cast<std::size_t>(e)]);
    }
  };
  // One replay round with a live SLO accumulator: open() resets the
  // pooled sample buffers, record() runs once per decided job.
  const auto round = [&] {
    slo.open(gate::kTraceLanes, tape.info.size());
    const StreamTicket stream = async.open_stream(config);
    const auto chunk = static_cast<std::size_t>(gate::kTraceChunk);
    for (std::size_t i = 0; i < tape.arrivals.size(); i += chunk) {
      const std::size_t count = std::min(chunk, tape.arrivals.size() - i);
      const double watermark = i + count < tape.arrivals.size()
                                   ? tape.arrivals[i + count].release
                                   : tape.arrivals.back().release;
      const Ticket feed = async.submit_stream(stream, tape.arrivals.data() + i,
                                              count, watermark);
      (void)async.wait(feed);
      (void)async.take_stream(feed, delivery);
      record();
    }
    const Ticket close = async.close_stream(stream);
    (void)async.wait(close);
    (void)async.take_stream(close, delivery);
    record();
  };
  for (int r = 0; r < 16; ++r) round();
  EXPECT_EQ(allocs_during([&] {
              for (int r = 0; r < gate::kServeReps; ++r) round();
            }),
            0u);
  EXPECT_EQ(slo.total_recorded(), tape.jobs_kept());
}

// ----------------------------------------------------------- DEMT kernels

/// The kernel gates' task counts, on m = 200 processors.
constexpr int kKernelSizes[] = {50, 200};
constexpr int kKernelM = 200;

Instance kernel_instance(int n, WorkloadFamily family, std::uint64_t seed,
                         int m = kKernelM) {
  Rng rng(seed);
  return generate_instance(family, n, m, rng);
}

TEST(Alloc, KnapsackRowSweep) {
  SKIP_WITHOUT_HOOK();
  for (const int n : kKernelSizes) {
    Rng rng(1);
    std::vector<int> costs;
    std::vector<double> weights;
    for (int i = 0; i < n; ++i) {
      costs.push_back(static_cast<int>(rng.uniform_int(1, 16)));
      weights.push_back(rng.uniform(1.0, 10.0));
    }
    KnapsackWorkspace ws;
    std::vector<int> selected;
    const auto call = [&] {
      max_weight_knapsack_into(costs.data(), weights.data(), n, kKernelM, ws,
                               selected);
    };
    call();
    EXPECT_EQ(allocs_during([&] {
                for (int r = 0; r < 16; ++r) call();
              }),
              0u)
        << "n=" << n;
  }
}

TEST(Alloc, FusedMetricScan) {
  SKIP_WITHOUT_HOOK();
  for (const int n : kKernelSizes) {
    const Instance instance = kernel_instance(n, WorkloadFamily::Mixed, 9);
    const FlatPlacements flat = demt_schedule(instance).schedule;
    FlatMetrics fused;
    fused = flat.metrics(instance);
    EXPECT_EQ(allocs_during([&] {
                for (int r = 0; r < 16; ++r) fused = flat.metrics(instance);
              }),
              0u)
        << "n=" << n;
  }
}

TEST(Alloc, DualTestSteadyState) {
  SKIP_WITHOUT_HOOK();
  for (const int n : kKernelSizes) {
    const Instance instance = kernel_instance(n, WorkloadFamily::Mixed, 3);
    const InstanceAllotments tables(instance);
    DualTestWorkspace ws;
    DualTestResult scratch;
    // One search sizes the workspace. Its probes are verdict-only: they
    // never size the pick matrix, which only dual_test_into fills.
    CmaxEstimate sized;
    estimate_cmax_into(instance, 1e-4, tables, ws, sized);
    EXPECT_EQ(ws.pick.capacity(), 0u) << "n=" << n;
    dual_test_into(instance, sized.estimate, tables, ws, scratch);
    // Then both entry points probe the search's typical guess range
    // directly.
    constexpr int kProbes = 64;
    const auto guess = [&](int i) {
      return sized.lower_bound +
             (sized.estimate * 2.0 - sized.lower_bound) * (i + 1) / kProbes;
    };
    EXPECT_EQ(allocs_during([&] {
                for (int i = 0; i < kProbes; ++i) {
                  dual_test_into(instance, guess(i), tables, ws, scratch);
                }
              }),
              0u)
        << "n=" << n;
    int accepted = 0;
    EXPECT_EQ(allocs_during([&] {
                for (int i = 0; i < kProbes; ++i) {
                  accepted += dual_test_accepts(instance, guess(i), tables, ws)
                                  ? 1
                                  : 0;
                }
              }),
              0u)
        << "n=" << n;
    EXPECT_GT(accepted, 0) << "n=" << n;
  }
}

TEST(Alloc, ShuffleLoopDelta) {
  SKIP_WITHOUT_HOOK();
  // 64 extra shuffle iterations reuse the call's workspace: a 65-shuffle
  // call allocates exactly as often as a 1-shuffle call.
  const Instance instance = kernel_instance(200, WorkloadFamily::Cirne, 6);
  DemtOptions one;
  one.shuffles = 1;
  DemtOptions many;
  many.shuffles = 65;
  (void)demt_schedule(instance, one);
  const std::uint64_t allocs_one =
      allocs_during([&] { (void)demt_schedule(instance, one); });
  const std::uint64_t allocs_many =
      allocs_during([&] { (void)demt_schedule(instance, many); });
  EXPECT_EQ(allocs_many, allocs_one);
}

TEST(Alloc, ColdDemtCallCanary) {
  SKIP_WITHOUT_HOOK();
  // The convenience form builds a fresh DemtWorkspace per call: the count
  // is workspace sizing (about 350 at n=60, m=32). The budget trips when
  // sizing turns into per-element churn.
  const Instance instance = kernel_instance(60, WorkloadFamily::Cirne, 6, 32);
  (void)demt_schedule(instance);  // settle one-time static state
  EXPECT_LE(allocs_during([&] { (void)demt_schedule(instance); }), 700u);
}

}  // namespace
}  // namespace moldsched
