/// Server-workload bench for the multi-instance SchedulerEngine: a fixed
/// set of scheduling requests is served repeatedly while we vary the
/// engine's worker count, measuring instances/sec, verifying the results
/// stay bit-identical, and counting steady-state heap allocations per
/// request with a global operator-new hook (same technique as
/// micro_components).
///
/// Run `engine_throughput --help` for flags and the JSON schema.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "alloc_hook.hpp"
#include "core/policy.hpp"
#include "engine/engine.hpp"
#include "util/cli.hpp"
#include "util/strfmt.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "workloads/generators.hpp"

// Allocation counting uses the shared operator-new hook in
// alloc_hook.hpp. Steady-state measurements run on the engine's
// single-strand path (workers=1) so the delta is exact; rows report -1
// under sanitizers (hook compiled out).

namespace {

using namespace moldsched;

constexpr const char* kHelp = R"(engine_throughput -- SchedulerEngine serving bench

Serves a fixed request set repeatedly through the multi-instance engine.

Flags
  --requests N      independent instances per batch call        [48]
  --n N             tasks per instance                          [60]
  --m N             processors per instance                     [32]
  --reps N          timed batch calls per worker setting        [5]
  --workers a,b,c   worker counts to sweep (0 = all pool)       [1,2,4,0]
  --shuffles N      DEMT shuffle candidates per request         [8]
  --online-jobs N   jobs per on-line simulation request         [24]
  --seed S          base RNG seed                               [20040627]
  --quick           small preset (8 requests, 2 reps)
  --json PATH       JSON report path ("" disables)              [BENCH_engine.json]
  --help            this text

JSON output schema (BENCH_engine.json)
  {
    "benchmark": "engine_throughput",
    "requests": int, "n": int, "m": int, "reps": int, "shuffles": int,
    "pool_workers": int,                    // shared_thread_pool().size()
    "throughput": [                         // off-line DEMT requests
      {"workers": int,                      // requested strand cap (0 = all)
       "strands": int,                      // strands actually used
       "instances_per_s": float,
       "identical_to_sequential": bool},    // bit-identical results check
      ...],
    "online": [                             // on-line simulation requests
      {"workers": int, "strands": int, "streams_per_s": float,
       "identical_to_sequential": bool}, ...],
    "allocs": [                             // steady-state, workers=1
      {"path": "engine_flatlist_metrics_only", "allocs_per_request": float},
      {"path": "engine_demt_with_schedule",   "allocs_per_request": float},
      {"path": "demt_no_workspace_reuse",     "allocs_per_request": float},
      {"path": "online_sim_demt_offline",     "allocs_per_request": float}]
  }
  "allocs_per_request" counts operator-new calls per request once the
  per-strand workspaces are warm; at the default workload shape
  (requests >= 48, n=60, m=32, 8 shuffles) BOTH
  engine_flatlist_metrics_only AND engine_demt_with_schedule must be
  exactly 0.00 — the whole DEMT pipeline (SoA allotment tables, pooled
  batch construction, flat placement/compaction, pooled Schedule
  materialisation) runs allocation-free once its workspace is warm, and
  the process exits non-zero on any regression that starts allocating
  per request, per shuffle or per task.
Full schema reference and recorded baselines for every BENCH_*.json
report: docs/BENCHMARKS.md.
)";

/// Alloc ceiling for the DEMT keep_schedules path at the default workload
/// shape: exactly zero. demt_schedule_into runs on pooled SoA buffers and
/// the keep_schedules materialisation reuses the result objects' Schedule
/// capacity, so a warm request stream must never touch the allocator
/// (formerly 1114, back when batch items and allotment tables were rebuilt
/// on the heap per request).
constexpr double kDemtScheduleAllocCeiling = 0.0;

bool results_identical(const std::vector<EngineResult>& a,
                       const std::vector<EngineResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].cmax != b[i].cmax ||
        a[i].weighted_completion_sum != b[i].weighted_completion_sum) {
      return false;
    }
    if (a[i].has_schedule != b[i].has_schedule) return false;
    if (!a[i].has_schedule) continue;
    const Schedule& sa = a[i].schedule;
    const Schedule& sb = b[i].schedule;
    if (sa.num_tasks() != sb.num_tasks()) return false;
    for (int t = 0; t < sa.num_tasks(); ++t) {
      const Placement& pa = sa.placement(t);
      const Placement& pb = sb.placement(t);
      if (pa.start != pb.start || pa.duration != pb.duration ||
          pa.procs != pb.procs) {
        return false;
      }
    }
  }
  return true;
}

bool online_identical(const std::vector<FlatOnlineResult>& a,
                      const std::vector<FlatOnlineResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].cmax != b[i].cmax ||
        a[i].weighted_completion_sum != b[i].weighted_completion_sum ||
        a[i].weighted_flow_sum != b[i].weighted_flow_sum ||
        a[i].num_batches != b[i].num_batches ||
        a[i].schedule.start != b[i].schedule.start ||
        a[i].schedule.duration != b[i].schedule.duration) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace moldsched;
  const ArgParser args(argc, argv);
  if (args.help_requested()) {
    std::cout << kHelp;
    return 0;
  }
  int num_requests = static_cast<int>(args.get_int("requests", 48));
  const int n = static_cast<int>(args.get_int("n", 60));
  const int m = static_cast<int>(args.get_int("m", 32));
  int reps = static_cast<int>(args.get_int("reps", 5));
  if (args.has("quick")) {
    num_requests = 8;
    reps = 2;
  }
  std::vector<int> worker_settings =
      args.get_int_list("workers", {1, 2, 4, 0});
  const int shuffles = static_cast<int>(args.get_int("shuffles", 8));
  const int online_jobs = static_cast<int>(args.get_int("online-jobs", 24));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20040627));

  const std::vector<WorkloadFamily> families = {
      WorkloadFamily::WeaklyParallel, WorkloadFamily::Cirne,
      WorkloadFamily::HighlyParallel, WorkloadFamily::Mixed};

  // The request set: independent instances, mixed families.
  Rng rng(seed);
  std::vector<Instance> instances;
  instances.reserve(static_cast<std::size_t>(num_requests));
  for (int i = 0; i < num_requests; ++i) {
    instances.push_back(generate_instance(
        families[static_cast<std::size_t>(i) % families.size()], n, m, rng));
  }
  DemtOptions demt_options;
  demt_options.shuffles = shuffles;
  const DemtPolicy demt_policy(demt_options);
  const FlatListPolicy flat_policy;
  std::vector<EngineRequest> requests(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    requests[i].instance = &instances[i];
    requests[i].policy = &demt_policy;
  }

  // On-line simulation request set: job streams over the same machine.
  std::vector<std::vector<OnlineJob>> streams(
      static_cast<std::size_t>(std::max(1, num_requests / 4)));
  for (auto& stream : streams) {
    double clock = 0.0;
    for (int j = 0; j < online_jobs; ++j) {
      Instance one = generate_instance(
          families[static_cast<std::size_t>(j) % families.size()], 1, m, rng);
      clock += rng.uniform(0.0, 1.0);
      stream.push_back(OnlineJob{one.task(0), clock});
    }
  }
  std::vector<OnlineRequest> online_requests(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    online_requests[i].m = m;
    online_requests[i].jobs = &streams[i];
    online_requests[i].policy = &demt_policy;
  }

  std::cout << strfmt(
      "# engine_throughput: %d requests (n=%d, m=%d, %d shuffles), "
      "%d reps, pool=%zu workers\n\n",
      num_requests, n, m, shuffles, reps, shared_thread_pool().size());

  struct ThroughputRow {
    int workers = 0;
    int strands = 0;
    double per_s = 0.0;
    bool identical = true;
  };
  std::vector<ThroughputRow> offline_rows;
  std::vector<ThroughputRow> online_rows;

  // --- off-line throughput sweep -------------------------------------
  std::vector<EngineResult> reference;
  {
    SchedulerEngine sequential(EngineOptions{1, true});
    reference = sequential.schedule_batch(requests);
  }
  std::cout << strfmt("%-22s %8s %8s %14s %10s\n", "path", "workers",
                      "strands", "requests/s", "identical");
  for (int workers : worker_settings) {
    SchedulerEngine engine(EngineOptions{workers, true});
    std::vector<EngineResult> results;
    engine.schedule_batch(requests, results);  // warm-up
    WallTimer timer;
    for (int r = 0; r < reps; ++r) engine.schedule_batch(requests, results);
    const double elapsed = timer.seconds();
    ThroughputRow row;
    row.workers = workers;
    row.strands = engine.stats().strands_last_batch;
    row.per_s = static_cast<double>(num_requests) * reps / elapsed;
    row.identical = results_identical(results, reference);
    offline_rows.push_back(row);
    std::cout << strfmt("%-22s %8d %8d %14.1f %10s\n", "offline_demt",
                        row.workers, row.strands, row.per_s,
                        row.identical ? "yes" : "NO");
  }

  // --- on-line throughput sweep --------------------------------------
  std::vector<FlatOnlineResult> online_reference;
  {
    SchedulerEngine sequential(EngineOptions{1, true});
    sequential.simulate_batch(online_requests, online_reference);
  }
  for (int workers : worker_settings) {
    SchedulerEngine engine(EngineOptions{workers, true});
    std::vector<FlatOnlineResult> results;
    engine.simulate_batch(online_requests, results);  // warm-up
    WallTimer timer;
    for (int r = 0; r < reps; ++r) engine.simulate_batch(online_requests, results);
    const double elapsed = timer.seconds();
    ThroughputRow row;
    row.workers = workers;
    row.strands = engine.stats().strands_last_batch;
    row.per_s = static_cast<double>(streams.size()) * reps / elapsed;
    row.identical = online_identical(results, online_reference);
    online_rows.push_back(row);
    std::cout << strfmt("%-22s %8d %8d %14.1f %10s\n", "online_sim_demt",
                        row.workers, row.strands, row.per_s,
                        row.identical ? "yes" : "NO");
  }

  // --- steady-state allocations per request (single strand) ----------
  struct AllocRow {
    std::string path;
    double allocs_per_request = 0.0;
  };
  std::vector<AllocRow> alloc_rows;
  const auto measure = [&](const char* name, std::size_t served,
                           auto&& body) {
    body();  // warm the workspaces
    const std::uint64_t before = g_alloc_count.load();
    body();
    const double per_request =
        kAllocHookEnabled ? static_cast<double>(g_alloc_count.load() - before) /
                                static_cast<double>(served)
                          : -1.0;
    alloc_rows.push_back(AllocRow{name, per_request});
    std::cout << strfmt("%-34s %8.2f allocs/request\n", name, per_request);
  };

  std::cout << "\n# steady-state allocations (workers=1)\n";
  {
    SchedulerEngine engine(EngineOptions{1, false});
    std::vector<EngineRequest> flat_requests = requests;
    for (auto& r : flat_requests) r.policy = &flat_policy;
    std::vector<EngineResult> results;
    measure("engine_flatlist_metrics_only", requests.size(),
            [&] { engine.schedule_batch(flat_requests, results); });
  }
  {
    SchedulerEngine engine(EngineOptions{1, true});
    std::vector<EngineResult> results;
    measure("engine_demt_with_schedule", requests.size(),
            [&] { engine.schedule_batch(requests, results); });
  }
  {
    // Baseline without workspace reuse: fresh demt_schedule calls.
    measure("demt_no_workspace_reuse", instances.size(), [&] {
      for (const auto& instance : instances) {
        (void)demt_schedule(instance, demt_options);
      }
    });
  }
  {
    SchedulerEngine engine(EngineOptions{1, true});
    std::vector<FlatOnlineResult> results;
    measure("online_sim_demt_offline", streams.size(), [&] {
      engine.simulate_batch(online_requests, results);
    });
  }

  const std::string json_path = args.get_string("json", "BENCH_engine.json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << strfmt(
        "{\n  \"benchmark\": \"engine_throughput\",\n"
        "  \"requests\": %d,\n  \"n\": %d,\n  \"m\": %d,\n"
        "  \"reps\": %d,\n  \"shuffles\": %d,\n  \"pool_workers\": %zu,\n",
        num_requests, n, m, reps, shuffles, shared_thread_pool().size());
    out << "  \"throughput\": [\n";
    for (std::size_t i = 0; i < offline_rows.size(); ++i) {
      const auto& r = offline_rows[i];
      out << strfmt(
          "    {\"workers\": %d, \"strands\": %d, \"instances_per_s\": "
          "%.1f, \"identical_to_sequential\": %s}%s\n",
          r.workers, r.strands, r.per_s, r.identical ? "true" : "false",
          i + 1 < offline_rows.size() ? "," : "");
    }
    out << "  ],\n  \"online\": [\n";
    for (std::size_t i = 0; i < online_rows.size(); ++i) {
      const auto& r = online_rows[i];
      out << strfmt(
          "    {\"workers\": %d, \"strands\": %d, \"streams_per_s\": %.1f, "
          "\"identical_to_sequential\": %s}%s\n",
          r.workers, r.strands, r.per_s, r.identical ? "true" : "false",
          i + 1 < online_rows.size() ? "," : "");
    }
    out << "  ],\n  \"allocs\": [\n";
    for (std::size_t i = 0; i < alloc_rows.size(); ++i) {
      const auto& r = alloc_rows[i];
      out << strfmt(
          "    {\"path\": \"%s\", \"allocs_per_request\": %.2f}%s\n",
          r.path.c_str(), r.allocs_per_request,
          i + 1 < alloc_rows.size() ? "," : "");
    }
    out << "  ]\n}\n";
    std::cout << "# json written to " << json_path << "\n";
  }

  bool all_identical = true;
  for (const auto& r : offline_rows) all_identical &= r.identical;
  for (const auto& r : online_rows) all_identical &= r.identical;
  if (!all_identical) {
    std::cerr << "ERROR: results differed across worker counts\n";
    return 1;
  }
  // Zero-alloc gate: both serving paths — FlatList metrics-only AND the
  // full DEMT keep_schedules pipeline — must run allocation-free once
  // their workspaces are warm. Only meaningful at the default workload
  // shape and with enough requests to amortise warm-up; sanitizer builds
  // report -1 and skip.
  if (kAllocHookEnabled && num_requests >= 48 && n == 60 && m == 32 &&
      shuffles == 8) {
    for (const auto& r : alloc_rows) {
      const bool gated = r.path == "engine_demt_with_schedule" ||
                         r.path == "engine_flatlist_metrics_only";
      if (gated && r.allocs_per_request > kDemtScheduleAllocCeiling) {
        std::cerr << strfmt(
            "ERROR: %s allocated %.2f/request, ceiling %.2f\n",
            r.path.c_str(), r.allocs_per_request, kDemtScheduleAllocCeiling);
        return 1;
      }
    }
  }
  return 0;
}
