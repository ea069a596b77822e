/// Async serving bench for the submit/poll layer: verifies the async path
/// is bit-identical to the synchronous SchedulerEngine for shard counts
/// {1, 2, 4} under the same SchedulingPolicy object (with priority lanes
/// active) — sweeps throughput and submit-to-done
/// latency percentiles over the shard counts, exercises admission control
/// (including weighted priority lanes: per-lane latency percentiles and a
/// per-lane-capacity rejection report), and counts steady-state heap
/// allocations per request on the metrics-only FlatList path with >= 2
/// priority lanes active, using a global operator-new hook (must be 0.00;
/// the process exits non-zero otherwise, same as on a determinism
/// failure).
///
/// Run `serve_throughput --help` for flags; all BENCH_*.json schemas are
/// documented centrally in docs/BENCHMARKS.md.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "alloc_hook.hpp"
#include "core/decision_cache.hpp"
#include "engine/engine.hpp"
#include "serve/async_scheduler.hpp"
#include "sim/online.hpp"
#include "sim/stream.hpp"
#include "util/cli.hpp"
#include "util/strfmt.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "workloads/generators.hpp"

// Allocation counting uses the shared operator-new hook in
// alloc_hook.hpp, counting every heap allocation in the process (all
// threads — shard strands and the flusher included, which is the point:
// the whole serving cycle must be clean). Under AddressSanitizer the
// hook is compiled out; the sanitized CI job still gates determinism +
// admission while the allocation contract is enforced by the plain
// Release build (reported as -1 here).

namespace {

using namespace moldsched;

constexpr const char* kHelp = R"(serve_throughput -- async submit/poll serving bench

Serves a fixed request set through the sharded AsyncScheduler and compares
against the synchronous SchedulerEngine path.

Flags
  --requests N      requests per round                         [96]
  --n N             tasks per instance                         [60]
  --m N             processors per instance                    [32]
  --reps N          timed rounds per shard setting             [5]
  --shards a,b,c    shard counts to sweep                      [1,2,4]
  --max-batch N     coalescing batch bound                     [16]
  --flush-ms X      deadline flush (ms; 0 = every submit)      [0.5]
  --capacity N      admission bound (in-flight tickets)        [4096]
  --lanes a,b,c     priority-lane weights (>= 2 lanes)         [3,1]
  --shuffles N      DEMT shuffle candidates per request        [8]
  --seed S          base RNG seed                              [20040627]
  --faults S        chaos-smoke fault-plan seed                [= --seed]
  --quick           small preset (24 requests, 2 reps)
  --zipf            decision-cache section: Zipf recurring shapes
  --speculate       stream-speculation section: sparse-watermark tape
  --json PATH       JSON report path ("" disables)             [BENCH_serve.json]
  --help            this text

The BENCH_serve.json schema (and every other BENCH_*.json schema) is
documented in docs/BENCHMARKS.md; the serving architecture and its
determinism/allocation contracts in docs/SERVING.md.

The chaos-smoke section always runs: a seeded FaultPlan (engine throws,
slow batches, shard deaths — scripted points plus random rates keyed by
--faults) over one-shot traffic with bounded retry and two live streams.
Every accepted ticket must reach a terminal state and be taken exactly
once (nothing lost, nothing duplicated), and each stream's deliveries —
including any migrated via checkpoint off a dead shard — must replay the
off-line simulator bit-identically.

With --zipf, a decision-cache section (core/decision_cache.hpp) also
runs: a Zipf(s = 1.1) request mix over a fixed shape catalog is served
with an AsyncOptions::cache attached, and the run exit-gates three cache
contracts — cache-on results bit-identical to the cache-off synchronous
reference for every shard count, steady-state hit rate >= 0.80, and 0.00
allocs/request on the pure-hit DEMT metrics-only path — while reporting
the cache-off vs cache-on throughput delta.

With --speculate, a stream-speculation section (StreamConfig::speculate)
also runs: a sparse-watermark DEMT stream — every feed carries one batch
of arrivals with the watermark held exactly at the batch's open instant,
so each decision becomes final only at the *next* feed — is served twice,
speculation off and on, and the run exit-gates three contracts:
speculate-on deliveries bit-identical to speculate-off, speculation
actually firing (staged + committed decisions > 0), and 0.00
allocs/feed at steady state with speculation on. It reports the
feed-to-decision latency percentiles of both modes (the latency of the
feeds that deliver finalised batch decisions): with speculation the
confirming feed only replays the staged decision, so its p99 drops.

Exit status: non-zero when any async result differs from the synchronous
reference (policy objects, lanes active), when the chaos-smoke run loses,
duplicates, or mis-delivers a request or stream feed, when a --zipf
cache gate fails (identity, hit rate, or hit-path allocations), when a
--speculate gate fails (identity, speculation counters, or steady-state
feed allocations), or when the steady-state metrics-only FlatList path
with priority lanes active allocates (allocation counting is compiled
out under AddressSanitizer and reported as -1: sanitized builds gate
determinism and admission only; the same applies to the --zipf hit-path
and --speculate allocation gates).
)";

struct Percentiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

Percentiles percentiles(std::vector<double>& samples) {
  Percentiles out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double q) {
    const auto last = samples.size() - 1;
    const auto index = static_cast<std::size_t>(q * static_cast<double>(last));
    return samples[std::min(index, last)];
  };
  out.p50 = at(0.50);
  out.p90 = at(0.90);
  out.p99 = at(0.99);
  out.max = samples.back();
  return out;
}

bool results_identical(const EngineResult& a, const EngineResult& b) {
  if (a.cmax != b.cmax ||
      a.weighted_completion_sum != b.weighted_completion_sum ||
      a.has_schedule != b.has_schedule) {
    return false;
  }
  if (!a.has_schedule) return true;
  const Schedule& sa = a.schedule;
  const Schedule& sb = b.schedule;
  if (sa.num_tasks() != sb.num_tasks()) return false;
  for (int t = 0; t < sa.num_tasks(); ++t) {
    const Placement& pa = sa.placement(t);
    const Placement& pb = sb.placement(t);
    if (pa.start != pb.start || pa.duration != pb.duration ||
        pa.procs != pb.procs) {
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
  int num_requests = static_cast<int>(args.get_int("requests", 96));
  const int n = static_cast<int>(args.get_int("n", 60));
  const int m = static_cast<int>(args.get_int("m", 32));
  int reps = static_cast<int>(args.get_int("reps", 5));
  if (args.has("quick")) {
    num_requests = 24;
    reps = 2;
  }
  const std::vector<int> shard_settings = args.get_int_list("shards", {1, 2, 4});
  const int max_batch = static_cast<int>(args.get_int("max-batch", 16));
  const double flush_ms = args.get_double("flush-ms", 0.5);
  const int capacity = static_cast<int>(args.get_int("capacity", 4096));
  const std::vector<int> lane_weights = args.get_int_list("lanes", {3, 1});
  const int shuffles = static_cast<int>(args.get_int("shuffles", 8));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20040627));

  // The priority-lane table every lane-aware section serves: weights from
  // --lanes, no per-lane bound by default (the weighted-admission report
  // adds one).
  std::vector<LaneSpec> lane_specs;
  lane_specs.reserve(lane_weights.size());
  for (std::size_t l = 0; l < lane_weights.size(); ++l) {
    LaneSpec spec;
    spec.name = "lane" + std::to_string(l);
    spec.weight = std::max(1, lane_weights[l]);
    lane_specs.push_back(spec);
  }
  const WeightedLanesAdmission lanes_admission(lane_specs);
  const int num_lanes = static_cast<int>(lane_specs.size());

  const std::vector<WorkloadFamily> families = {
      WorkloadFamily::WeaklyParallel, WorkloadFamily::Cirne,
      WorkloadFamily::HighlyParallel, WorkloadFamily::Mixed};
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
  std::vector<EngineRequest> demt_requests(instances.size());
  std::vector<EngineRequest> flat_requests(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    demt_requests[i].instance = &instances[i];
    demt_requests[i].policy = &demt_policy;
    flat_requests[i] = demt_requests[i];
    flat_requests[i].policy = &flat_policy;
  }

  std::cout << strfmt(
      "# serve_throughput: %d requests (n=%d, m=%d, %d shuffles), %d reps, "
      "max_batch=%d, flush=%.2fms, capacity=%d, pool=%zu workers\n\n",
      num_requests, n, m, shuffles, reps, max_batch, flush_ms, capacity,
      shared_thread_pool().size());

  bool all_ok = true;

  // --- determinism: async vs synchronous engine, schedules kept, under
  // --- the same policy object (submissions spread across the priority
  // --- lanes: lanes must never change a result, only its timing) -----
  struct DeterminismRow {
    int shards = 0;
    bool policy_identical = true; ///< SchedulingPolicy path, lanes active
  };
  std::vector<DeterminismRow> determinism_rows;
  {
    SchedulerEngine sync(EngineOptions{1, true});
    std::vector<EngineResult> reference;
    sync.schedule_batch(demt_requests, reference);
    std::cout << strfmt("%-10s %18s\n", "shards", "policy+lanes");
    for (int shards : shard_settings) {
      AsyncOptions options;
      options.shards = shards;
      options.max_batch = max_batch;
      options.flush_after_ms = flush_ms;
      options.queue_capacity = std::max(capacity, num_requests);
      options.keep_schedules = true;
      options.admission = &lanes_admission;
      DeterminismRow row;
      row.shards = shards;
      {
        AsyncScheduler async(options);
        std::vector<Ticket> tickets;
        tickets.reserve(demt_requests.size());
        for (std::size_t i = 0; i < demt_requests.size(); ++i) {
          tickets.push_back(async.submit(demt_requests[i],
                                         static_cast<int>(i) % num_lanes));
        }
        async.drain();
        EngineResult result;
        for (std::size_t i = 0; i < tickets.size(); ++i) {
          row.policy_identical &= async.take(tickets[i], result) &&
                                  results_identical(result, reference[i]);
        }
      }
      determinism_rows.push_back(row);
      all_ok &= row.policy_identical;
      std::cout << strfmt("%-10d %18s\n", shards,
                          row.policy_identical ? "yes" : "NO");
    }
  }

  // --- throughput + latency sweep -------------------------------------
  struct ThroughputRow {
    int shards = 0;
    std::string algorithm;
    double per_s = 0.0;
    Percentiles latency;
  };
  std::vector<ThroughputRow> throughput_rows;
  std::cout << strfmt("\n%-10s %-10s %14s %10s %10s %10s %10s\n", "shards",
                      "algorithm", "requests/s", "p50 ms", "p90 ms",
                      "p99 ms", "max ms");
  for (int shards : shard_settings) {
    for (const bool flat : {true, false}) {
      const auto& requests = flat ? flat_requests : demt_requests;
      AsyncOptions options;
      options.shards = shards;
      options.max_batch = max_batch;
      options.flush_after_ms = flush_ms;
      options.queue_capacity = std::max(capacity, num_requests);
      options.keep_schedules = false;
      AsyncScheduler async(options);
      std::vector<Ticket> tickets;
      tickets.reserve(requests.size());
      std::vector<double> latencies;
      latencies.reserve(requests.size() * static_cast<std::size_t>(reps));
      EngineResult result;
      // Warm-up round (not measured).
      for (const auto& request : requests) {
        tickets.push_back(async.submit(request));
      }
      async.drain();
      for (const Ticket& ticket : tickets) (void)async.take(ticket, result);
      WallTimer timer;
      for (int r = 0; r < reps; ++r) {
        tickets.clear();
        for (const auto& request : requests) {
          tickets.push_back(async.submit(request));
        }
        async.drain();
        for (const Ticket& ticket : tickets) {
          latencies.push_back(async.latency_seconds(ticket) * 1e3);
          (void)async.take(ticket, result);
        }
      }
      const double elapsed = timer.seconds();
      ThroughputRow row;
      row.shards = shards;
      row.algorithm = flat ? "flatlist" : "demt";
      row.per_s =
          static_cast<double>(requests.size()) * reps / elapsed;
      row.latency = percentiles(latencies);
      throughput_rows.push_back(row);
      std::cout << strfmt("%-10d %-10s %14.1f %10.3f %10.3f %10.3f %10.3f\n",
                          row.shards, row.algorithm.c_str(), row.per_s,
                          row.latency.p50, row.latency.p90, row.latency.p99,
                          row.latency.max);
    }
  }

  // --- admission control under overload -------------------------------
  struct AdmissionReport {
    int capacity = 0;
    int offered = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
  };
  AdmissionReport admission;
  {
    AsyncOptions options;
    options.shards = 1;
    options.max_batch = max_batch;
    options.flush_after_ms = 1e6;  // hold everything: pure admission test
    options.queue_capacity = std::max(8, num_requests / 4);
    AsyncScheduler async(options);
    std::vector<Ticket> tickets;
    tickets.reserve(flat_requests.size());
    for (const auto& request : flat_requests) {
      tickets.push_back(async.submit(request));
    }
    async.drain();
    EngineResult result;
    for (const Ticket& ticket : tickets) {
      if (ticket.accepted()) (void)async.take(ticket, result);
    }
    const AsyncStats stats = async.stats();
    admission.capacity = options.queue_capacity;
    admission.offered = num_requests;
    admission.accepted = stats.submitted;
    admission.rejected = stats.rejected;
    std::cout << strfmt(
        "\n# admission: capacity %d, offered %d -> accepted %llu, "
        "rejected %llu (completed %llu)\n",
        admission.capacity, admission.offered,
        static_cast<unsigned long long>(admission.accepted),
        static_cast<unsigned long long>(admission.rejected),
        static_cast<unsigned long long>(stats.completed));
  }

  // --- priority lanes: per-lane latency + weighted-admission report ----
  struct LaneLatencyRow {
    std::string name;
    int weight = 1;
    std::uint64_t served = 0;
    Percentiles latency;
  };
  std::vector<LaneLatencyRow> lane_rows;
  struct LaneAdmissionRow {
    std::string name;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
  };
  int per_lane_capacity = 0;
  std::vector<LaneAdmissionRow> lane_admission_rows;
  {
    // Latency per lane under weighted-fair service: one shard, every lane
    // loaded round-robin with the FlatList mix, reps rounds.
    AsyncOptions options;
    options.shards = 1;
    options.max_batch = max_batch;
    options.flush_after_ms = flush_ms;
    options.queue_capacity = std::max(capacity, num_requests);
    options.keep_schedules = false;
    options.admission = &lanes_admission;
    AsyncScheduler async(options);
    std::vector<Ticket> tickets;
    std::vector<std::vector<double>> lane_latencies(
        static_cast<std::size_t>(num_lanes));
    EngineResult result;
    for (int r = 0; r < reps + 1; ++r) {
      tickets.clear();
      for (std::size_t i = 0; i < flat_requests.size(); ++i) {
        tickets.push_back(async.submit(flat_requests[i],
                                       static_cast<int>(i) % num_lanes));
      }
      async.drain();
      for (const Ticket& ticket : tickets) {
        if (r > 0) {  // round 0 is warm-up
          lane_latencies[ticket.lane].push_back(
              async.latency_seconds(ticket) * 1e3);
        }
        (void)async.take(ticket, result);
      }
    }
    const AsyncStats stats = async.stats();
    std::cout << strfmt("\n%-10s %8s %10s %10s %10s %10s %10s\n", "lane",
                        "weight", "served", "p50 ms", "p90 ms", "p99 ms",
                        "max ms");
    for (int l = 0; l < num_lanes; ++l) {
      LaneLatencyRow row;
      row.name = lane_specs[static_cast<std::size_t>(l)].name;
      row.weight = lane_specs[static_cast<std::size_t>(l)].weight;
      row.served = stats.lanes[static_cast<std::size_t>(l)].completed;
      row.latency = percentiles(lane_latencies[static_cast<std::size_t>(l)]);
      lane_rows.push_back(row);
      std::cout << strfmt("%-10s %8d %10llu %10.3f %10.3f %10.3f %10.3f\n",
                          row.name.c_str(), row.weight,
                          static_cast<unsigned long long>(row.served),
                          row.latency.p50, row.latency.p90, row.latency.p99,
                          row.latency.max);
    }
  }
  {
    // Weighted admission under overload: every lane gets the same tight
    // per-lane bound and the same offered load; rejections land per lane.
    per_lane_capacity = std::max(4, num_requests / (4 * num_lanes));
    std::vector<LaneSpec> bounded = lane_specs;
    for (auto& spec : bounded) spec.queue_capacity = per_lane_capacity;
    const WeightedLanesAdmission bounded_admission(bounded);
    AsyncOptions options;
    options.shards = 1;
    options.max_batch = max_batch;
    options.flush_after_ms = 1e6;  // hold everything: pure admission test
    options.queue_capacity = std::max(capacity, num_requests);
    options.admission = &bounded_admission;
    AsyncScheduler async(options);
    std::vector<Ticket> tickets;
    for (std::size_t i = 0; i < flat_requests.size(); ++i) {
      tickets.push_back(async.submit(flat_requests[i],
                                     static_cast<int>(i) % num_lanes));
    }
    async.drain();
    EngineResult result;
    for (const Ticket& ticket : tickets) {
      if (ticket.accepted()) (void)async.take(ticket, result);
    }
    const AsyncStats stats = async.stats();
    std::cout << strfmt(
        "\n# weighted admission: per-lane capacity %d, offered %d across %d "
        "lanes\n",
        per_lane_capacity, num_requests, num_lanes);
    for (int l = 0; l < num_lanes; ++l) {
      LaneAdmissionRow row;
      row.name = bounded[static_cast<std::size_t>(l)].name;
      row.accepted = stats.lanes[static_cast<std::size_t>(l)].submitted;
      row.rejected = stats.lanes[static_cast<std::size_t>(l)].rejected;
      lane_admission_rows.push_back(row);
      std::cout << strfmt(
          "#   %-8s accepted %llu, rejected %llu\n", row.name.c_str(),
          static_cast<unsigned long long>(row.accepted),
          static_cast<unsigned long long>(row.rejected));
    }
  }

  // --- chaos smoke: seeded faults, retry, failover, stream migration ---
  // A deterministic FaultPlan over one-shot traffic plus two pinned
  // streams. The gate is loss accounting: every accepted ticket reaches a
  // terminal state and is taken exactly once, and every stream replays
  // the off-line simulator bit-identically even when its shard dies
  // mid-tape and the session migrates via checkpoint. The watchdog stays
  // off here on purpose — watchdog failover sheds queued stream feeds (a
  // stuck strand owns the engine session), which is a documented
  // degradation, not the loss-free death-failover path this gate pins.
  struct FaultRecoveryReport {
    std::uint64_t chaos_seed = 0;
    std::uint64_t submitted = 0;
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t retried = 0;
    std::uint64_t failed_over = 0;
    std::uint64_t shards_failed = 0;
    std::uint64_t streams_migrated = 0;
    std::uint64_t faults_injected = 0;
    std::uint64_t lost = 0;
    std::uint64_t duplicated = 0;
    bool streams_identical = true;
  };
  FaultRecoveryReport chaos;
  {
    chaos.chaos_seed = static_cast<std::uint64_t>(
        args.get_int("faults", static_cast<std::int64_t>(seed)));
    constexpr int kChaosShards = 4;
    constexpr int kChaosStreams = 2;
    const std::size_t chunk = 4;

    // Per-stream tapes (reps chunks each) and their off-line references.
    const OfflineScheduler offline = [](const Instance& batch) {
      ListPassWorkspace list;
      FlatPlacements flat;
      flat_list_schedule(batch, list, flat);
      return flat.to_schedule(batch.procs());
    };
    std::vector<std::vector<OnlineJob>> tapes(kChaosStreams);
    std::vector<OnlineResult> stream_reference;
    Rng stream_rng(chaos.chaos_seed ^ 0x53545245414DULL);  // "STREAM"
    for (int s = 0; s < kChaosStreams; ++s) {
      double release = 0.0;
      for (std::size_t j = 0; j < chunk * static_cast<std::size_t>(reps);
           ++j) {
        Instance tmp =
            generate_instance(WorkloadFamily::Mixed, 1, m, stream_rng);
        tapes[static_cast<std::size_t>(s)].push_back(
            OnlineJob{tmp.task(0), release});
        release += stream_rng.uniform(0.05, 1.0);
      }
      stream_reference.push_back(online_batch_schedule_reference(
          m, tapes[static_cast<std::size_t>(s)], offline));
    }

    AsyncOptions options;
    options.shards = kChaosShards;
    options.max_batch = max_batch;
    options.flush_after_ms = flush_ms;
    options.queue_capacity = std::max(capacity, num_requests);
    options.keep_schedules = false;
    options.retry = RetryPolicy{4, 0.1};
    options.faults.seed = chaos.chaos_seed;
    options.faults.throw_rate = 0.10;
    options.faults.stall_rate = 0.03;
    options.faults.death_rate = 0.02;
    options.faults.stall_ms = 2.0;
    // Scripted floor under the random rates: at least one throw, one
    // stall, and one death fire every run, whatever the seed draws.
    options.faults.points.push_back(
        FaultPoint{FaultKind::EngineThrow, -1, 0, 0.0});
    options.faults.points.push_back(
        FaultPoint{FaultKind::SlowBatch, 2, 1, 2.0});
    options.faults.points.push_back(
        FaultPoint{FaultKind::ShardDeath, 1, 2, 0.0});
    AsyncScheduler async(options);

    std::vector<StreamTicket> chaos_streams;
    std::vector<std::vector<double>> completions(kChaosStreams);
    std::vector<int> next_job(kChaosStreams, 0);
    for (int s = 0; s < kChaosStreams; ++s) {
      StreamConfig stream_config;
      stream_config.m = m;
      stream_config.policy = &flat_policy;
      chaos_streams.push_back(async.open_stream(stream_config));
      if (!chaos_streams.back().accepted()) chaos.streams_identical = false;
    }
    StreamDelivery delivery;
    EngineResult result;
    std::vector<Ticket> tickets;
    for (int r = 0; r < reps; ++r) {
      // One feed per stream per round (waited, so per-stream ordering and
      // the loss accounting stay exact), then a full one-shot round.
      for (int s = 0; s < kChaosStreams; ++s) {
        const auto& jobs = tapes[static_cast<std::size_t>(s)];
        const std::size_t first = static_cast<std::size_t>(r) * chunk;
        const std::size_t last = std::min(jobs.size(), first + chunk);
        std::vector<StreamArrival> arrivals;
        for (std::size_t j = first; j < last; ++j) {
          arrivals.push_back(moldable_arrival(jobs[j].task, jobs[j].release));
        }
        const double watermark =
            last < jobs.size() ? jobs[last].release : jobs.back().release;
        const Ticket feed =
            async.submit_stream(chaos_streams[static_cast<std::size_t>(s)],
                                arrivals.data(), arrivals.size(), watermark);
        if (!feed.accepted() || async.wait(feed) != TicketStatus::Done ||
            !async.take_stream(feed, delivery)) {
          ++chaos.lost;
          continue;
        }
        if (delivery.first_job != next_job[static_cast<std::size_t>(s)]) {
          chaos.streams_identical = false;
        }
        next_job[static_cast<std::size_t>(s)] += delivery.num_jobs();
        auto& got = completions[static_cast<std::size_t>(s)];
        got.insert(got.end(), delivery.completion.begin(),
                   delivery.completion.end());
      }
      tickets.clear();
      for (const auto& request : flat_requests) {
        const Ticket ticket = async.submit(request);
        if (ticket.accepted()) tickets.push_back(ticket);
      }
      for (const Ticket& ticket : tickets) {
        const TicketStatus status = async.wait(ticket, 30000.0);
        if (status == TicketStatus::Done) {
          ++chaos.done;
        } else if (status == TicketStatus::Failed) {
          ++chaos.failed;  // retry exhausted: terminal and accounted, not lost
        } else {
          ++chaos.lost;
          continue;
        }
        if (!async.take(ticket, result)) ++chaos.lost;
        if (async.take(ticket, result) ||
            async.poll(ticket) != TicketStatus::Invalid) {
          ++chaos.duplicated;
        }
      }
    }
    for (int s = 0; s < kChaosStreams; ++s) {
      const Ticket close =
          async.close_stream(chaos_streams[static_cast<std::size_t>(s)]);
      if (!close.accepted() || async.wait(close) != TicketStatus::Done ||
          !async.take_stream(close, delivery)) {
        ++chaos.lost;
        continue;
      }
      next_job[static_cast<std::size_t>(s)] += delivery.num_jobs();
      auto& got = completions[static_cast<std::size_t>(s)];
      got.insert(got.end(), delivery.completion.begin(),
                 delivery.completion.end());
      const OnlineResult& ref = stream_reference[static_cast<std::size_t>(s)];
      if (next_job[static_cast<std::size_t>(s)] !=
              static_cast<int>(tapes[static_cast<std::size_t>(s)].size()) ||
          got != ref.completion || delivery.cmax != ref.cmax ||
          delivery.weighted_completion_sum != ref.weighted_completion_sum) {
        chaos.streams_identical = false;
      }
    }
    const AsyncStats stats = async.stats();
    chaos.submitted = stats.submitted;
    chaos.retried = stats.retried;
    chaos.failed_over = stats.failed_over;
    chaos.shards_failed = stats.shards_failed;
    chaos.streams_migrated = stats.streams_migrated;
    chaos.faults_injected = stats.faults_injected;
    const bool chaos_ok =
        chaos.lost == 0 && chaos.duplicated == 0 && chaos.streams_identical;
    all_ok &= chaos_ok;
    std::cout << strfmt(
        "\n# chaos smoke (seed %llu, %d shards): %llu faults injected, "
        "%llu shard deaths, %llu streams migrated, %llu retried, "
        "%llu failed over\n"
        "#   one-shots: %llu done, %llu failed | lost %llu, duplicated "
        "%llu | streams bit-identical: %s -> %s\n",
        static_cast<unsigned long long>(chaos.chaos_seed), kChaosShards,
        static_cast<unsigned long long>(chaos.faults_injected),
        static_cast<unsigned long long>(chaos.shards_failed),
        static_cast<unsigned long long>(chaos.streams_migrated),
        static_cast<unsigned long long>(chaos.retried),
        static_cast<unsigned long long>(chaos.failed_over),
        static_cast<unsigned long long>(chaos.done),
        static_cast<unsigned long long>(chaos.failed),
        static_cast<unsigned long long>(chaos.lost),
        static_cast<unsigned long long>(chaos.duplicated),
        chaos.streams_identical ? "yes" : "NO", chaos_ok ? "ok" : "FAIL");
  }

  // --- steady-state allocations: metrics-only FlatList path with the
  // --- priority lanes active (the acceptance gate: lanes must not cost
  // --- an allocation) -------------------------------------------------
  double allocs_per_request = -1.0;  // -1 = not measured (sanitizer build)
  if (kAllocHookEnabled) {
    AsyncOptions options;
    options.shards = 1;
    options.max_batch = max_batch;
    options.flush_after_ms = flush_ms;
    options.queue_capacity = std::max(capacity, num_requests);
    options.keep_schedules = false;
    options.admission = &lanes_admission;
    AsyncScheduler async(options);
    std::vector<Ticket> tickets;
    tickets.reserve(flat_requests.size());
    EngineResult result;
    const auto round = [&] {
      tickets.clear();
      for (std::size_t i = 0; i < flat_requests.size(); ++i) {
        tickets.push_back(async.submit(flat_requests[i],
                                       static_cast<int>(i) % num_lanes));
      }
      for (const Ticket& ticket : tickets) {
        (void)async.wait(ticket);
        (void)async.take(ticket, result);
      }
    };
    round();  // warm-up: grows slot buffers, assembly vectors, workspaces
    round();
    const std::uint64_t before = g_alloc_count.load();
    for (int r = 0; r < reps; ++r) round();
    allocs_per_request =
        static_cast<double>(g_alloc_count.load() - before) /
        static_cast<double>(flat_requests.size() * static_cast<std::size_t>(reps));
    std::cout << strfmt(
        "\n# steady-state allocations (1 shard, metrics-only flatlist, "
        "%d lanes): %.2f allocs/request\n",
        num_lanes, allocs_per_request);
    if (allocs_per_request != 0.0) {
      std::cerr << "ERROR: steady-state serving path allocated\n";
      all_ok = false;
    }
  } else {
    std::cout << "\n# steady-state allocations: not measured "
                 "(operator-new hook disabled under AddressSanitizer)\n";
  }

  // --- decision cache under a Zipf recurring-shape mix (--zipf) --------
  // A fixed shape catalog served under Zipf(s = 1.1) popularity — the
  // recurring-workload regime the decision cache targets. Three exit
  // gates: (1) cache-on serving is bit-identical to the cache-off
  // synchronous reference for every shard count; (2) steady-state hit
  // rate >= 0.80; (3) the pure-hit DEMT metrics-only path performs 0.00
  // allocs/request (plain Release builds only; -1 under ASan).
  struct ZipfReport {
    bool ran = false;
    int shapes = 0;
    int requests = 0;
    double exponent = 1.1;
    std::vector<std::pair<int, bool>> identical;  ///< per shard count
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    double hit_rate = 0.0;
    double off_per_s = 0.0;
    double on_per_s = 0.0;
    double allocs_per_request_on_hit = -1.0;
  };
  ZipfReport zipf;
  if (args.has("zipf")) {
    zipf.ran = true;
    zipf.shapes = args.has("quick") ? 16 : 32;
    zipf.requests = zipf.shapes * 8;

    // Shape catalog + Zipf(s) inverse-CDF request mix, seeded.
    Rng zipf_rng(seed ^ 0x5A495046ULL);  // "ZIPF"
    std::vector<Instance> catalog;
    catalog.reserve(static_cast<std::size_t>(zipf.shapes));
    for (int i = 0; i < zipf.shapes; ++i) {
      catalog.push_back(generate_instance(
          families[static_cast<std::size_t>(i) % families.size()], n, m,
          zipf_rng));
    }
    std::vector<double> cdf(static_cast<std::size_t>(zipf.shapes));
    double mass = 0.0;
    for (int k = 0; k < zipf.shapes; ++k) {
      mass += 1.0 / std::pow(static_cast<double>(k + 1), zipf.exponent);
      cdf[static_cast<std::size_t>(k)] = mass;
    }
    std::vector<EngineRequest> zipf_requests(
        static_cast<std::size_t>(zipf.requests));
    for (auto& request : zipf_requests) {
      const double u = zipf_rng.uniform(0.0, mass);
      const auto shape = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      request.instance = &catalog[std::min(
          shape, static_cast<std::size_t>(zipf.shapes - 1))];
      request.policy = &demt_policy;
    }

    // Gate 1: cache-on async serving, schedules kept, vs the cache-off
    // synchronous reference — bit-identical for every shard count.
    SchedulerEngine sync(EngineOptions{1, true});
    std::vector<EngineResult> reference;
    sync.schedule_batch(zipf_requests, reference);
    bool zipf_identical = true;
    for (int shards : shard_settings) {
      DecisionCache cache(DecisionCacheOptions{
          static_cast<std::size_t>(zipf.shapes) * 8, 4, 32});
      AsyncOptions options;
      options.shards = shards;
      options.max_batch = max_batch;
      options.flush_after_ms = flush_ms;
      options.queue_capacity = std::max(capacity, zipf.requests);
      options.keep_schedules = true;
      options.cache = &cache;
      AsyncScheduler async(options);
      std::vector<Ticket> tickets;
      tickets.reserve(zipf_requests.size());
      for (const auto& request : zipf_requests) {
        tickets.push_back(async.submit(request));
      }
      async.drain();
      EngineResult result;
      bool identical = true;
      for (std::size_t i = 0; i < tickets.size(); ++i) {
        identical &= async.take(tickets[i], result) &&
                     results_identical(result, reference[i]);
      }
      zipf.identical.emplace_back(shards, identical);
      zipf_identical &= identical;
    }

    // Gates 2 + 3 and the throughput delta: one shard, metrics-only,
    // timed reps rounds cache-off then cache-on (fresh cache, one
    // warm-up round each), then pure-hit rounds under the alloc hook.
    DecisionCache cache(DecisionCacheOptions{
        static_cast<std::size_t>(zipf.shapes) * 8, 4, 32});
    for (const bool cached : {false, true}) {
      AsyncOptions options;
      options.shards = 1;
      options.max_batch = max_batch;
      options.flush_after_ms = flush_ms;
      options.queue_capacity = std::max(capacity, zipf.requests);
      options.keep_schedules = false;
      if (cached) options.cache = &cache;
      AsyncScheduler async(options);
      std::vector<Ticket> tickets;
      tickets.reserve(zipf_requests.size());
      EngineResult result;
      const auto round = [&] {
        tickets.clear();
        for (const auto& request : zipf_requests) {
          tickets.push_back(async.submit(request));
        }
        async.drain();
        for (const Ticket& ticket : tickets) (void)async.take(ticket, result);
      };
      round();  // warm-up (cold misses fill the cache here)
      WallTimer timer;
      for (int r = 0; r < reps; ++r) round();
      const double elapsed = timer.seconds();
      const double per_s = static_cast<double>(zipf_requests.size()) * reps /
                           elapsed;
      if (!cached) {
        zipf.off_per_s = per_s;
        continue;
      }
      zipf.on_per_s = per_s;
      if (kAllocHookEnabled) {
        round();  // settle any remaining warm-up effects
        const std::uint64_t before = g_alloc_count.load();
        for (int r = 0; r < reps; ++r) round();
        zipf.allocs_per_request_on_hit =
            static_cast<double>(g_alloc_count.load() - before) /
            static_cast<double>(zipf_requests.size() *
                                static_cast<std::size_t>(reps));
      }
      const DecisionCacheStats stats = cache.stats();
      zipf.hits = stats.hits;
      zipf.misses = stats.misses;
      zipf.evictions = stats.evictions;
      zipf.hit_rate = stats.hits + stats.misses == 0
                          ? 0.0
                          : static_cast<double>(stats.hits) /
                                static_cast<double>(stats.hits + stats.misses);
    }

    const bool hit_rate_ok = zipf.hit_rate >= 0.80;
    const bool allocs_ok = !kAllocHookEnabled ||
                           zipf.allocs_per_request_on_hit == 0.0;
    std::cout << strfmt(
        "\n# zipf decision cache (s=%.1f, %d shapes, %d requests/round):\n",
        zipf.exponent, zipf.shapes, zipf.requests);
    for (const auto& [shards, identical] : zipf.identical) {
      std::cout << strfmt("#   shards %d: cache-on identical to cache-off: "
                          "%s\n",
                          shards, identical ? "yes" : "NO");
    }
    std::cout << strfmt(
        "#   hit rate %.3f (%llu hits, %llu misses, %llu evictions) -> %s\n"
        "#   demt metrics-only: %.1f req/s cache-off, %.1f req/s cache-on "
        "(%.2fx)\n"
        "#   allocs/request on pure hits: %.2f -> %s\n",
        zipf.hit_rate, static_cast<unsigned long long>(zipf.hits),
        static_cast<unsigned long long>(zipf.misses),
        static_cast<unsigned long long>(zipf.evictions),
        hit_rate_ok ? "ok" : "FAIL", zipf.off_per_s, zipf.on_per_s,
        zipf.off_per_s > 0.0 ? zipf.on_per_s / zipf.off_per_s : 0.0,
        zipf.allocs_per_request_on_hit,
        allocs_ok ? "ok" : "FAIL");
    if (!zipf_identical) {
      std::cerr << "ERROR: cache-on results differ from cache-off\n";
    }
    if (!hit_rate_ok) {
      std::cerr << "ERROR: zipf steady-state hit rate below 0.80\n";
    }
    if (!allocs_ok) {
      std::cerr << "ERROR: decision-cache hit path allocated\n";
    }
    all_ok &= zipf_identical && hit_rate_ok && allocs_ok;
  }

  // --- stream speculation on a sparse-watermark tape (--speculate) -----
  // Every feed carries one DEMT batch of arrivals with the watermark held
  // exactly at the batch's open instant, so the decision becomes final
  // only at the next feed. Speculation decides the batch during the feed
  // that delivered its arrivals; the confirming feed then just replays
  // the staged placements, so the feed-to-decision latency (latency of
  // the feeds that deliver finalised decisions) drops. Exit gates:
  // deliveries bit-identical off vs on, speculation firing for real
  // (decided + committed > 0), and 0.00 allocs/feed at steady state with
  // speculation on.
  struct SpeculationReport {
    bool ran = false;
    int batches = 0;
    int per_batch = 0;
    bool identical = true;
    std::uint64_t decided = 0;
    std::uint64_t committed = 0;
    std::uint64_t rolled_back = 0;
    Percentiles off_ms;  ///< feed-to-decision, speculation off
    Percentiles on_ms;   ///< feed-to-decision, speculation on
    double allocs_per_feed = -1.0;
  };
  SpeculationReport spec;
  if (args.has("speculate")) {
    spec.ran = true;
    spec.batches = args.has("quick") ? 6 : 12;
    spec.per_batch = args.has("quick") ? 48 : 96;

    // The tape: per_batch moldable arrivals at each batch instant, one
    // feed per instant, watermark pinned to the instant itself (sparse).
    struct SpecFeed {
      std::vector<StreamArrival> arrivals;
      double watermark = 0.0;
    };
    Rng spec_rng(seed ^ 0x53504543ULL);  // "SPEC"
    std::vector<SpecFeed> tape(static_cast<std::size_t>(spec.batches));
    for (int b = 0; b < spec.batches; ++b) {
      const double release = 10.0 * b;
      auto& feed = tape[static_cast<std::size_t>(b)];
      feed.watermark = release;
      for (int j = 0; j < spec.per_batch; ++j) {
        Instance tmp = generate_instance(
            families[static_cast<std::size_t>(j) % families.size()], 1, m,
            spec_rng);
        feed.arrivals.push_back(moldable_arrival(tmp.task(0), release));
      }
    }

    AsyncOptions options;
    options.shards = 1;
    options.max_batch = max_batch;
    options.flush_after_ms = 0.0;  // dispatch every feed immediately
    options.queue_capacity = 8;    // small slot ring: warm-up visits every slot
    options.max_streams = 4;
    AsyncScheduler async(options);

    // One tape pass: open, feed each instant (waited, so the latency is
    // pure decide time, not queueing), close. Feeds whose delivery holds
    // newly finalised batch jobs are the decision points the client
    // waits on — their latency is what speculation is meant to cut.
    StreamDelivery delivery;
    const auto run_tape = [&](bool speculate,
                              std::vector<StreamDelivery>* deliveries,
                              std::vector<double>* decision_ms) {
      StreamConfig stream_config;
      stream_config.m = m;
      stream_config.policy = &demt_policy;
      stream_config.speculate = speculate;
      const StreamTicket stream = async.open_stream(stream_config);
      if (!stream.accepted()) return false;
      bool ok = true;
      for (const SpecFeed& feed : tape) {
        const Ticket ticket =
            async.submit_stream(stream, feed.arrivals.data(),
                                feed.arrivals.size(), feed.watermark);
        ok &= ticket.accepted() && async.wait(ticket) == TicketStatus::Done;
        const double ms = async.latency_seconds(ticket) * 1e3;  // pre-take
        ok &= async.take_stream(ticket, delivery);
        if (decision_ms != nullptr && delivery.num_jobs() > 0) {
          decision_ms->push_back(ms);
        }
        if (deliveries != nullptr) deliveries->push_back(delivery);
      }
      const Ticket close = async.close_stream(stream);
      ok &= close.accepted() && async.wait(close) == TicketStatus::Done;
      const double close_ms = async.latency_seconds(close) * 1e3;
      ok &= async.take_stream(close, delivery);
      if (decision_ms != nullptr && delivery.num_jobs() > 0) {
        decision_ms->push_back(close_ms);
      }
      if (deliveries != nullptr) deliveries->push_back(delivery);
      return ok;
    };

    // Bit-identity: one pass per mode, every delivery field compared.
    std::vector<StreamDelivery> off_deliveries;
    std::vector<StreamDelivery> on_deliveries;
    spec.identical &= run_tape(false, &off_deliveries, nullptr);
    spec.identical &= run_tape(true, &on_deliveries, nullptr);
    spec.identical &= off_deliveries.size() == on_deliveries.size();
    if (spec.identical) {
      for (std::size_t d = 0; d < off_deliveries.size(); ++d) {
        const StreamDelivery& a = off_deliveries[d];
        const StreamDelivery& b = on_deliveries[d];
        spec.identical &=
            a.first_job == b.first_job &&
            a.placements.start == b.placements.start &&
            a.placements.duration == b.placements.duration &&
            a.placements.proc_begin == b.placements.proc_begin &&
            a.placements.proc_count == b.placements.proc_count &&
            a.placements.proc_ids == b.placements.proc_ids &&
            a.completion == b.completion &&
            a.batch_starts == b.batch_starts &&
            a.cmax == b.cmax &&
            a.weighted_completion_sum == b.weighted_completion_sum &&
            a.weighted_flow_sum == b.weighted_flow_sum &&
            a.num_batches == b.num_batches &&
            a.final_delivery == b.final_delivery;
      }
    }

    // Feed-to-decision latency, reps passes per mode (warm-up pass each).
    std::vector<double> off_ms;
    std::vector<double> on_ms;
    off_ms.reserve(static_cast<std::size_t>(spec.batches * reps));
    on_ms.reserve(static_cast<std::size_t>(spec.batches * reps));
    (void)run_tape(false, nullptr, nullptr);
    for (int r = 0; r < reps; ++r) (void)run_tape(false, nullptr, &off_ms);
    (void)run_tape(true, nullptr, nullptr);
    for (int r = 0; r < reps; ++r) (void)run_tape(true, nullptr, &on_ms);
    spec.off_ms = percentiles(off_ms);
    spec.on_ms = percentiles(on_ms);
    const AsyncStats stats = async.stats();
    spec.decided = stats.spec_decided;
    spec.committed = stats.spec_committed;
    spec.rolled_back = stats.spec_rolled_back;

    // Steady-state allocations with speculation on: after warm-up rounds
    // that cycle every pooled slot and session (same tape size each round,
    // so the staged-record pool, fill scratch and delivery buffers are all
    // sized), further passes must not touch the allocator.
    if (kAllocHookEnabled) {
      for (int r = 0; r < 16; ++r) (void)run_tape(true, nullptr, nullptr);
      const std::uint64_t before = g_alloc_count.load();
      for (int r = 0; r < reps; ++r) (void)run_tape(true, nullptr, nullptr);
      spec.allocs_per_feed =
          static_cast<double>(g_alloc_count.load() - before) /
          static_cast<double>((spec.batches + 1) * reps);
    }

    const bool spec_fired = spec.decided > 0 && spec.committed > 0;
    const bool spec_allocs_ok =
        !kAllocHookEnabled || spec.allocs_per_feed == 0.0;
    std::cout << strfmt(
        "\n# speculation (sparse watermark, %d batches x %d jobs, demt):\n"
        "#   deliveries identical off vs on: %s\n"
        "#   staged %llu, committed %llu, rolled back %llu -> %s\n"
        "#   feed-to-decision p50/p99 ms: off %.3f/%.3f, on %.3f/%.3f\n"
        "#   allocs/feed at steady state (speculate on): %.2f -> %s\n",
        spec.batches, spec.per_batch, spec.identical ? "yes" : "NO",
        static_cast<unsigned long long>(spec.decided),
        static_cast<unsigned long long>(spec.committed),
        static_cast<unsigned long long>(spec.rolled_back),
        spec_fired ? "ok" : "FAIL", spec.off_ms.p50, spec.off_ms.p99,
        spec.on_ms.p50, spec.on_ms.p99, spec.allocs_per_feed,
        spec_allocs_ok ? "ok" : "FAIL");
    if (!spec.identical) {
      std::cerr << "ERROR: speculate-on deliveries differ from "
                   "speculate-off\n";
    }
    if (!spec_fired) {
      std::cerr << "ERROR: speculation never staged/committed a decision "
                   "on the sparse-watermark tape\n";
    }
    if (!spec_allocs_ok) {
      std::cerr << "ERROR: speculative stream serving allocated at steady "
                   "state\n";
    }
    all_ok &= spec.identical && spec_fired && spec_allocs_ok;
  }

  const std::string json_path = args.get_string("json", "BENCH_serve.json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << strfmt(
        "{\n  \"benchmark\": \"serve_throughput\",\n"
        "  \"requests\": %d,\n  \"n\": %d,\n  \"m\": %d,\n  \"reps\": %d,\n"
        "  \"shuffles\": %d,\n  \"max_batch\": %d,\n"
        "  \"flush_after_ms\": %.3f,\n  \"queue_capacity\": %d,\n"
        "  \"pool_workers\": %zu,\n",
        num_requests, n, m, reps, shuffles, max_batch, flush_ms, capacity,
        shared_thread_pool().size());
    out << "  \"lane_weights\": [";
    for (int l = 0; l < num_lanes; ++l) {
      out << strfmt("%d%s", lane_specs[static_cast<std::size_t>(l)].weight,
                    l + 1 < num_lanes ? ", " : "");
    }
    out << "],\n";
    out << "  \"determinism\": [\n";
    for (std::size_t i = 0; i < determinism_rows.size(); ++i) {
      const auto& row = determinism_rows[i];
      out << strfmt(
          "    {\"shards\": %d, "
          "\"policy_lanes_identical_to_sync\": %s}%s\n",
          row.shards, row.policy_identical ? "true" : "false",
          i + 1 < determinism_rows.size() ? "," : "");
    }
    out << "  ],\n  \"throughput\": [\n";
    for (std::size_t i = 0; i < throughput_rows.size(); ++i) {
      const auto& row = throughput_rows[i];
      out << strfmt(
          "    {\"shards\": %d, \"algorithm\": \"%s\", "
          "\"requests_per_s\": %.1f, \"latency_ms\": {\"p50\": %.3f, "
          "\"p90\": %.3f, \"p99\": %.3f, \"max\": %.3f}}%s\n",
          row.shards, row.algorithm.c_str(), row.per_s, row.latency.p50,
          row.latency.p90, row.latency.p99, row.latency.max,
          i + 1 < throughput_rows.size() ? "," : "");
    }
    out << strfmt(
        "  ],\n  \"admission\": {\"capacity\": %d, \"offered\": %d, "
        "\"accepted\": %llu, \"rejected\": %llu},\n",
        admission.capacity, admission.offered,
        static_cast<unsigned long long>(admission.accepted),
        static_cast<unsigned long long>(admission.rejected));
    out << "  \"lane_latency\": [\n";
    for (std::size_t l = 0; l < lane_rows.size(); ++l) {
      const auto& row = lane_rows[l];
      out << strfmt(
          "    {\"lane\": \"%s\", \"weight\": %d, \"served\": %llu, "
          "\"latency_ms\": {\"p50\": %.3f, \"p90\": %.3f, \"p99\": %.3f, "
          "\"max\": %.3f}}%s\n",
          row.name.c_str(), row.weight,
          static_cast<unsigned long long>(row.served), row.latency.p50,
          row.latency.p90, row.latency.p99, row.latency.max,
          l + 1 < lane_rows.size() ? "," : "");
    }
    out << strfmt(
        "  ],\n  \"weighted_admission\": {\"per_lane_capacity\": %d, "
        "\"offered\": %d, \"lanes\": [\n",
        per_lane_capacity, num_requests);
    for (std::size_t l = 0; l < lane_admission_rows.size(); ++l) {
      const auto& row = lane_admission_rows[l];
      out << strfmt(
          "    {\"lane\": \"%s\", \"accepted\": %llu, \"rejected\": "
          "%llu}%s\n",
          row.name.c_str(), static_cast<unsigned long long>(row.accepted),
          static_cast<unsigned long long>(row.rejected),
          l + 1 < lane_admission_rows.size() ? "," : "");
    }
    out << "  ]},\n";
    out << strfmt(
        "  \"fault_recovery\": {\"seed\": %llu, \"submitted\": %llu, "
        "\"done\": %llu, \"failed\": %llu, \"retried\": %llu, "
        "\"failed_over\": %llu, \"shards_failed\": %llu, "
        "\"streams_migrated\": %llu, \"faults_injected\": %llu, "
        "\"lost\": %llu, \"duplicated\": %llu, "
        "\"streams_identical\": %s},\n",
        static_cast<unsigned long long>(chaos.chaos_seed),
        static_cast<unsigned long long>(chaos.submitted),
        static_cast<unsigned long long>(chaos.done),
        static_cast<unsigned long long>(chaos.failed),
        static_cast<unsigned long long>(chaos.retried),
        static_cast<unsigned long long>(chaos.failed_over),
        static_cast<unsigned long long>(chaos.shards_failed),
        static_cast<unsigned long long>(chaos.streams_migrated),
        static_cast<unsigned long long>(chaos.faults_injected),
        static_cast<unsigned long long>(chaos.lost),
        static_cast<unsigned long long>(chaos.duplicated),
        chaos.streams_identical ? "true" : "false");
    if (zipf.ran) {
      out << strfmt(
          "  \"zipf_cache\": {\"exponent\": %.1f, \"shapes\": %d, "
          "\"requests\": %d,\n    \"identical\": [\n",
          zipf.exponent, zipf.shapes, zipf.requests);
      for (std::size_t i = 0; i < zipf.identical.size(); ++i) {
        out << strfmt(
            "      {\"shards\": %d, \"identical_to_uncached\": %s}%s\n",
            zipf.identical[i].first,
            zipf.identical[i].second ? "true" : "false",
            i + 1 < zipf.identical.size() ? "," : "");
      }
      out << strfmt(
          "    ],\n    \"hits\": %llu, \"misses\": %llu, "
          "\"evictions\": %llu, \"hit_rate\": %.3f,\n"
          "    \"cache_off_requests_per_s\": %.1f, "
          "\"cache_on_requests_per_s\": %.1f,\n"
          "    \"allocs_per_request_on_hit\": %.2f},\n",
          static_cast<unsigned long long>(zipf.hits),
          static_cast<unsigned long long>(zipf.misses),
          static_cast<unsigned long long>(zipf.evictions), zipf.hit_rate,
          zipf.off_per_s, zipf.on_per_s, zipf.allocs_per_request_on_hit);
    }
    if (spec.ran) {
      out << strfmt(
          "  \"speculation\": {\"batches\": %d, \"per_batch\": %d, "
          "\"identical\": %s,\n"
          "    \"decided\": %llu, \"committed\": %llu, "
          "\"rolled_back\": %llu,\n"
          "    \"feed_to_decision_ms_off\": {\"p50\": %.3f, \"p90\": %.3f, "
          "\"p99\": %.3f, \"max\": %.3f},\n"
          "    \"feed_to_decision_ms_on\": {\"p50\": %.3f, \"p90\": %.3f, "
          "\"p99\": %.3f, \"max\": %.3f},\n"
          "    \"allocs_per_feed\": %.2f},\n",
          spec.batches, spec.per_batch, spec.identical ? "true" : "false",
          static_cast<unsigned long long>(spec.decided),
          static_cast<unsigned long long>(spec.committed),
          static_cast<unsigned long long>(spec.rolled_back), spec.off_ms.p50,
          spec.off_ms.p90, spec.off_ms.p99, spec.off_ms.max, spec.on_ms.p50,
          spec.on_ms.p90, spec.on_ms.p99, spec.on_ms.max,
          spec.allocs_per_feed);
    }
    out << strfmt(
        "  \"allocs\": [\n    {\"path\": \"serve_flatlist_metrics_only\", "
        "\"lanes_active\": %d, \"allocs_per_request\": %.2f}\n  ]\n}\n",
        num_lanes, allocs_per_request);
    std::cout << "# json written to " << json_path << "\n";
  }

  if (!all_ok) {
    std::cerr << "ERROR: serve_throughput contract violated (see above)\n";
    return 1;
  }
  return 0;
}
