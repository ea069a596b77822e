/// \file batch_server.cpp
/// Server-style use of the multi-instance SchedulerEngine: scheduling
/// requests arrive in waves (ticks), each wave is served as one engine
/// batch on the shared thread pool, and per-wave latency plus cumulative
/// throughput are reported — the shape of a cluster front-end serving many
/// concurrent users rather than one researcher running one instance.
///
///   ./batch_server [--ticks 10] [--wave 16] [--n 60] [--m 32]
///                  [--workers 0] [--algorithm demt|flatlist] [--seed 1]

#include <cstdio>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "engine/engine.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "workloads/generators.hpp"

int main(int argc, char** argv) {
  using namespace moldsched;
  const ArgParser args(argc, argv);
  if (args.help_requested()) {
    std::printf(
        "batch_server -- serve waves of scheduling requests through the "
        "SchedulerEngine\n\n"
        "  --ticks N      waves to serve                [10]\n"
        "  --wave N       requests per wave             [16]\n"
        "  --n N          tasks per instance            [60]\n"
        "  --m N          processors per instance       [32]\n"
        "  --workers K    engine strands (0 = all pool) [0]\n"
        "  --algorithm A  demt | flatlist               [demt]\n"
        "  --seed S       RNG seed                      [1]\n"
        "No JSON output; perfbench/ measures the serving stack.\n");
    return 0;
  }
  const int ticks = static_cast<int>(args.get_int("ticks", 10));
  const int wave = static_cast<int>(args.get_int("wave", 16));
  const int n = static_cast<int>(args.get_int("n", 60));
  const int m = static_cast<int>(args.get_int("m", 32));
  const int workers = static_cast<int>(args.get_int("workers", 0));
  const std::string algorithm_name = args.get_string("algorithm", "demt");
  const DemtPolicy demt_policy;
  const FlatListPolicy flat_policy;
  const SchedulingPolicy& policy =
      algorithm_name == "flatlist"
          ? static_cast<const SchedulingPolicy&>(flat_policy)
          : demt_policy;
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));

  const std::vector<WorkloadFamily> families = {
      WorkloadFamily::WeaklyParallel, WorkloadFamily::Cirne,
      WorkloadFamily::HighlyParallel, WorkloadFamily::Mixed};

  SchedulerEngine engine(EngineOptions{workers, true});
  std::vector<EngineResult> results;  // reused storage, wave after wave
  RunningStats wave_ms;
  RunningStats cmax_stats;
  double total_seconds = 0.0;

  std::printf("batch_server: %d ticks x %d requests (n=%d, m=%d), "
              "%s, pool=%zu workers\n\n",
              ticks, wave, n, m, algorithm_name.c_str(),
              shared_thread_pool().size());

  for (int tick = 0; tick < ticks; ++tick) {
    // The wave of requests that "arrived" since the last tick.
    std::vector<Instance> instances;
    instances.reserve(static_cast<std::size_t>(wave));
    for (int i = 0; i < wave; ++i) {
      instances.push_back(generate_instance(
          families[static_cast<std::size_t>(i) % families.size()], n, m,
          rng));
    }
    std::vector<EngineRequest> requests(instances.size());
    for (std::size_t i = 0; i < instances.size(); ++i) {
      requests[i].instance = &instances[i];
      requests[i].policy = &policy;
    }

    WallTimer timer;
    engine.schedule_batch(requests, results);
    const double seconds = timer.seconds();
    total_seconds += seconds;
    wave_ms.add(seconds * 1e3);
    for (const auto& result : results) cmax_stats.add(result.cmax);
    std::printf("tick %3d: %2zu requests in %7.2f ms (%7.1f req/s, "
                "%d strands)\n",
                tick, results.size(), seconds * 1e3,
                static_cast<double>(results.size()) / seconds,
                engine.stats().strands_last_batch);
  }

  const EngineStats& stats = engine.stats();
  std::printf("\nserved %llu requests in %d batches: %7.1f req/s overall, "
              "wave latency %.2f ms mean [%.2f, %.2f]\n",
              static_cast<unsigned long long>(stats.requests), ticks,
              static_cast<double>(stats.requests) / total_seconds,
              wave_ms.mean(), wave_ms.min(), wave_ms.max());
  std::printf("schedule quality: mean cmax %.2f over %s requests\n",
              cmax_stats.mean(), algorithm_name.c_str());
  return 0;
}
