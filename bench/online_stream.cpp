/// Streaming serving bench for the online path: verifies that arrivals fed
/// chunk by chunk through AsyncScheduler streams reproduce the off-line
/// batch simulator bit for bit — every placement, completion, batch
/// boundary and metric — for shard counts {1, 2, 4} and both off-line
/// plug-ins, with one-shot batch traffic interleaved (checked against the
/// synchronous engine); sweeps feed-decision latency percentiles and
/// arrival throughput over the shard counts on a mixed §5 workload
/// (moldable + rigid + divisible); and counts steady-state heap
/// allocations per arrival on the FlatList stream path with the global
/// operator-new hook (must be 0.00; the process exits non-zero otherwise,
/// same as on a determinism failure).
///
/// Run `online_stream --help` for flags; all BENCH_*.json schemas are
/// documented centrally in docs/BENCHMARKS.md, the streaming architecture
/// in docs/ONLINE.md.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "alloc_hook.hpp"
#include "core/policy.hpp"
#include "engine/engine.hpp"
#include "serve/async_scheduler.hpp"
#include "sim/online.hpp"
#include "sim/stream.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/strfmt.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "workloads/generators.hpp"

// Allocation counting uses the shared operator-new hook in alloc_hook.hpp
// (whole process, all threads). Under AddressSanitizer the hook is
// compiled out; the sanitized CI job still gates determinism while the
// allocation contract is enforced by the plain Release build (-1 here).

namespace {

using namespace moldsched;

constexpr const char* kHelp = R"(online_stream -- streaming online-scheduling bench

Feeds release-ordered arrivals chunk by chunk through AsyncScheduler
streams and compares every decision against the off-line batch simulator
(online_batch_schedule_reference) on the completed job list.

Flags
  --streams N       concurrent streams per round                [6]
  --jobs N          batch jobs per stream                       [40]
  --m N             processors per stream machine               [16]
  --shards a,b,c    shard counts to sweep                       [1,2,4]
  --max-batch N     coalescing batch bound                      [8]
  --flush-ms X      deadline flush (ms; 0 = every submit)       [0.5]
  --reps N          timed rounds per shard setting              [3]
  --shuffles N      DEMT shuffle candidates per batch decision  [4]
  --gap X           mean inter-arrival gap (Poisson process)    [0.8]
  --seed S          base RNG seed                               [20040627]
  --quick           small preset (3 streams, 16 jobs, 2 reps)
  --json PATH       JSON report path ("" disables)              [BENCH_online.json]
  --help            this text

The BENCH_online.json schema (and every other BENCH_*.json schema) is
documented in docs/BENCHMARKS.md; the streaming lifecycle and its
determinism/allocation contracts in docs/ONLINE.md.

Exit status: non-zero when any stream decision differs from the off-line
reference, an interleaved one-shot differs from the synchronous engine, or
the steady-state FlatList stream path allocates per arrival (allocation
counting is compiled out under AddressSanitizer and reported as -1).
)";

struct Percentiles {
  double p50 = 0.0, p90 = 0.0, p99 = 0.0, max = 0.0;
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

/// One stream's workload: a release-ordered moldable job list.
std::vector<OnlineJob> make_jobs(int count, int m, double mean_gap,
                                 Rng& rng) {
  std::vector<OnlineJob> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  const std::vector<WorkloadFamily> families = {
      WorkloadFamily::WeaklyParallel, WorkloadFamily::Cirne,
      WorkloadFamily::HighlyParallel, WorkloadFamily::Mixed};
  double release = 0.0;
  for (int i = 0; i < count; ++i) {
    Instance tmp = generate_instance(
        families[static_cast<std::size_t>(i) % families.size()], 1, m, rng);
    jobs.push_back(OnlineJob{tmp.task(0), release});
    release += rng.exponential(mean_gap);
  }
  return jobs;
}

/// A stream result assembled from its deliveries, for comparison.
struct AssembledStream {
  std::vector<double> start, duration, completion;
  std::vector<std::vector<int>> procs;
  std::vector<double> batch_starts;
  double cmax = 0.0, wcs = 0.0, wfs = 0.0;
  int num_batches = 0;
  bool contiguous = true;  ///< deliveries arrived in stream order
};

void absorb(AssembledStream& acc, const StreamDelivery& delivery) {
  if (delivery.first_job != static_cast<int>(acc.start.size())) {
    acc.contiguous = false;
  }
  for (int e = 0; e < delivery.num_jobs(); ++e) {
    const auto entry = static_cast<std::size_t>(e);
    acc.start.push_back(delivery.placements.start[entry]);
    acc.duration.push_back(delivery.placements.duration[entry]);
    acc.completion.push_back(delivery.completion[entry]);
    const auto begin =
        static_cast<std::size_t>(delivery.placements.proc_begin[entry]);
    const auto count =
        static_cast<std::size_t>(delivery.placements.proc_count[entry]);
    acc.procs.emplace_back(
        delivery.placements.proc_ids.begin() +
            static_cast<std::ptrdiff_t>(begin),
        delivery.placements.proc_ids.begin() +
            static_cast<std::ptrdiff_t>(begin + count));
  }
  acc.batch_starts.insert(acc.batch_starts.end(),
                          delivery.batch_starts.begin(),
                          delivery.batch_starts.end());
  acc.cmax = delivery.cmax;
  acc.wcs = delivery.weighted_completion_sum;
  acc.wfs = delivery.weighted_flow_sum;
  acc.num_batches = delivery.num_batches;
}

bool identical_to_reference(const AssembledStream& acc,
                            const OnlineResult& reference,
                            const std::vector<OnlineJob>& jobs) {
  if (!acc.contiguous) return false;
  if (acc.start.size() != jobs.size()) return false;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Placement& p = reference.schedule.placement(static_cast<int>(j));
    if (acc.start[j] != p.start || acc.duration[j] != p.duration ||
        acc.procs[j] != p.procs ||
        acc.completion[j] != reference.completion[j]) {
      return false;
    }
  }
  return acc.batch_starts == reference.batch_starts &&
         acc.cmax == reference.cmax &&
         acc.wcs == reference.weighted_completion_sum &&
         acc.wfs == reference.weighted_flow_sum &&
         acc.num_batches == reference.num_batches;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace moldsched;
  const ArgParser args(argc, argv);
  if (args.help_requested()) {
    std::cout << kHelp;
    return 0;
  }
  int num_streams = static_cast<int>(args.get_int("streams", 6));
  int jobs_per_stream = static_cast<int>(args.get_int("jobs", 40));
  int reps = static_cast<int>(args.get_int("reps", 3));
  if (args.has("quick")) {
    num_streams = 3;
    jobs_per_stream = 16;
    reps = 2;
  }
  const int m = static_cast<int>(args.get_int("m", 16));
  const std::vector<int> shard_settings =
      args.get_int_list("shards", {1, 2, 4});
  const int max_batch = static_cast<int>(args.get_int("max-batch", 8));
  const double flush_ms = args.get_double("flush-ms", 0.5);
  const int shuffles = static_cast<int>(args.get_int("shuffles", 4));
  const double mean_gap = args.get_double("gap", 0.8);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20040627));

  DemtOptions demt_options;
  demt_options.shuffles = shuffles;
  const DemtPolicy demt_policy(demt_options);
  const FlatListPolicy flat_policy;

  std::cout << strfmt(
      "# online_stream: %d streams x %d jobs (m=%d), gap=%.2f, "
      "max_batch=%d, flush=%.2fms, %d reps, pool=%zu workers\n\n",
      num_streams, jobs_per_stream, m, mean_gap, max_batch, flush_ms, reps,
      shared_thread_pool().size());

  bool all_ok = true;

  // Shared workloads: one job list per stream, plus a one-shot instance
  // set interleaved with the feeds.
  Rng rng(seed);
  std::vector<std::vector<OnlineJob>> stream_jobs;
  for (int s = 0; s < num_streams; ++s) {
    stream_jobs.push_back(make_jobs(jobs_per_stream, m, mean_gap, rng));
  }
  std::vector<Instance> oneshot_instances;
  for (int s = 0; s < num_streams; ++s) {
    oneshot_instances.push_back(
        generate_instance(WorkloadFamily::Mixed, 24, m, rng));
  }
  std::vector<EngineRequest> oneshot_requests(oneshot_instances.size());
  for (std::size_t i = 0; i < oneshot_instances.size(); ++i) {
    oneshot_requests[i].instance = &oneshot_instances[i];
    oneshot_requests[i].policy = &flat_policy;
  }

  // --- determinism: streamed chunks vs the off-line reference ----------
  struct DeterminismRow {
    std::string algorithm;
    int shards = 0;
    bool streams_identical = true;
    bool oneshots_identical = true;
  };
  std::vector<DeterminismRow> determinism_rows;
  {
    SchedulerEngine sync(EngineOptions{1, false});
    std::vector<EngineResult> oneshot_reference;
    sync.schedule_batch(oneshot_requests, oneshot_reference);

    std::cout << strfmt("%-10s %-8s %10s %10s\n", "algorithm", "shards",
                        "streams", "one-shots");
    for (const bool flat : {true, false}) {
      const SchedulingPolicy* policy =
          flat ? static_cast<const SchedulingPolicy*>(&flat_policy)
               : &demt_policy;
      // Off-line oracle with the matching per-batch plug-in.
      const OfflineScheduler oracle_offline =
          flat ? OfflineScheduler([](const Instance& batch) {
              ListPassWorkspace list;
              FlatPlacements out;
              flat_list_schedule(batch, list, out);
              return out.to_schedule(batch.procs());
            })
               : OfflineScheduler([&](const Instance& batch) {
                   return demt_schedule(batch, demt_options).schedule;
                 });
      std::vector<OnlineResult> references;
      for (const auto& jobs : stream_jobs) {
        references.push_back(
            online_batch_schedule_reference(m, jobs, oracle_offline));
      }

      for (int shards : shard_settings) {
        AsyncOptions options;
        options.shards = shards;
        options.max_batch = max_batch;
        options.flush_after_ms = flush_ms;
        options.queue_capacity = 4096;
        options.max_streams = std::max(8, num_streams);
        AsyncScheduler async(options);

        std::vector<StreamTicket> streams;
        for (int s = 0; s < num_streams; ++s) {
          StreamConfig stream_config;
          stream_config.m = m;
          stream_config.policy = policy;
          streams.push_back(async.open_stream(stream_config));
        }
        // Feed chunks round-robin across streams, one-shots in between.
        Rng chunk_rng(seed ^ 0xC0FFEEULL);
        std::vector<std::size_t> fed(static_cast<std::size_t>(num_streams), 0);
        std::vector<std::vector<Ticket>> feed_tickets(
            static_cast<std::size_t>(num_streams));
        std::vector<Ticket> oneshot_tickets;
        bool feeding = true;
        while (feeding) {
          feeding = false;
          for (int s = 0; s < num_streams; ++s) {
            const auto& jobs = stream_jobs[static_cast<std::size_t>(s)];
            auto& done = fed[static_cast<std::size_t>(s)];
            if (done >= jobs.size()) continue;
            feeding = true;
            const auto chunk = std::min<std::size_t>(
                jobs.size() - done,
                static_cast<std::size_t>(chunk_rng.uniform_int(1, 5)));
            // The arrivals borrow the OnlineJob tasks; watermark promises
            // nothing earlier than the next un-fed release.
            static thread_local std::vector<StreamArrival> arrivals;
            arrivals.clear();
            for (std::size_t i = done; i < done + chunk; ++i) {
              arrivals.push_back(
                  moldable_arrival(jobs[i].task, jobs[i].release));
            }
            done += chunk;
            const double watermark = done < jobs.size()
                                         ? jobs[done].release
                                         : jobs.back().release;
            const Ticket ticket = async.submit_stream(
                streams[static_cast<std::size_t>(s)], arrivals.data(),
                arrivals.size(), watermark);
            if (!ticket.accepted()) {
              all_ok = false;
              continue;
            }
            // Feed deliveries must be taken in order; wait right away so
            // the borrowed arrivals buffer can be reused next iteration.
            (void)async.wait(ticket);
            feed_tickets[static_cast<std::size_t>(s)].push_back(ticket);
          }
          if (!oneshot_tickets.empty() ||
              fed[0] >= stream_jobs[0].size() / 2) {
            // Interleave one-shot traffic once the streams are flowing.
            if (oneshot_tickets.size() < oneshot_requests.size()) {
              oneshot_tickets.push_back(
                  async.submit(oneshot_requests[oneshot_tickets.size()]));
            }
          }
        }
        for (int s = 0; s < num_streams; ++s) {
          feed_tickets[static_cast<std::size_t>(s)].push_back(
              async.close_stream(streams[static_cast<std::size_t>(s)]));
        }
        async.drain();

        bool streams_identical = true;
        StreamDelivery delivery;
        for (int s = 0; s < num_streams; ++s) {
          AssembledStream acc;
          for (const Ticket& ticket :
               feed_tickets[static_cast<std::size_t>(s)]) {
            if (!ticket.accepted() ||
                async.poll(ticket) != TicketStatus::Done ||
                !async.take_stream(ticket, delivery)) {
              streams_identical = false;
              continue;
            }
            absorb(acc, delivery);
          }
          streams_identical &= identical_to_reference(
              acc, references[static_cast<std::size_t>(s)],
              stream_jobs[static_cast<std::size_t>(s)]);
        }
        bool oneshots_identical = true;
        EngineResult result;
        for (std::size_t i = 0; i < oneshot_tickets.size(); ++i) {
          oneshots_identical &=
              async.take(oneshot_tickets[i], result) &&
              result.cmax == oneshot_reference[i].cmax &&
              result.weighted_completion_sum ==
                  oneshot_reference[i].weighted_completion_sum;
        }
        oneshots_identical &=
            oneshot_tickets.size() == oneshot_requests.size();

        determinism_rows.push_back(DeterminismRow{
            flat ? "flatlist" : "demt", shards, streams_identical,
            oneshots_identical});
        all_ok &= streams_identical && oneshots_identical;
        std::cout << strfmt("%-10s %-8d %10s %10s\n",
                            flat ? "flatlist" : "demt", shards,
                            streams_identical ? "yes" : "NO",
                            oneshots_identical ? "yes" : "NO");
      }
    }
  }

  // --- decision latency + arrival throughput (mixed §5 workload) -------
  struct LatencyRow {
    int shards = 0;
    double arrivals_per_s = 0.0;
    Percentiles latency;
  };
  std::vector<LatencyRow> latency_rows;
  {
    // A mixed arrival tape per stream: moldable + rigid + divisible.
    std::vector<std::vector<StreamArrival>> tapes;
    Rng mix_rng(seed ^ 0x5EEDULL);
    for (int s = 0; s < num_streams; ++s) {
      std::vector<StreamArrival> tape;
      double release = 0.0;
      for (int i = 0; i < jobs_per_stream; ++i) {
        const double pick = mix_rng.uniform();
        if (pick < 0.70) {
          Instance tmp = generate_instance(WorkloadFamily::Mixed, 1, m,
                                           mix_rng);
          tape.push_back(moldable_arrival(tmp.task(0), release));
        } else if (pick < 0.85) {
          tape.push_back(rigid_arrival(
              static_cast<int>(mix_rng.uniform_int(1, std::max(1, m / 2))),
              mix_rng.uniform(0.5, 3.0), mix_rng.uniform(0.5, 2.0),
              release));
        } else {
          tape.push_back(divisible_arrival(mix_rng.uniform(1.0, 8.0),
                                           mix_rng.uniform(0.5, 2.0),
                                           release));
        }
        release += mix_rng.exponential(mean_gap);
      }
      tapes.push_back(std::move(tape));
    }
    const int chunk = 4;
    std::cout << strfmt("\n%-8s %14s %10s %10s %10s %10s\n", "shards",
                        "arrivals/s", "p50 ms", "p90 ms", "p99 ms",
                        "max ms");
    for (int shards : shard_settings) {
      AsyncOptions options;
      options.shards = shards;
      options.max_batch = max_batch;
      options.flush_after_ms = flush_ms;
      options.queue_capacity = 4096;
      options.max_streams = std::max(8, num_streams);
      AsyncScheduler async(options);
      std::vector<double> latencies;
      StreamDelivery delivery;
      std::size_t arrivals_served = 0;
      WallTimer timer;
      for (int r = 0; r < reps; ++r) {
        std::vector<StreamTicket> streams;
        StreamConfig stream_config;
        stream_config.m = m;
        stream_config.policy = &flat_policy;
        for (int s = 0; s < num_streams; ++s) {
          streams.push_back(async.open_stream(stream_config));
        }
        std::vector<Ticket> tickets;
        for (int s = 0; s < num_streams; ++s) {
          const auto& tape = tapes[static_cast<std::size_t>(s)];
          for (std::size_t i = 0; i < tape.size();
               i += static_cast<std::size_t>(chunk)) {
            const auto count =
                std::min<std::size_t>(chunk, tape.size() - i);
            const double watermark =
                i + count < tape.size() ? tape[i + count].release
                                        : tape.back().release;
            tickets.push_back(
                async.submit_stream(streams[static_cast<std::size_t>(s)],
                                    tape.data() + i, count, watermark));
            arrivals_served += count;
          }
          tickets.push_back(
              async.close_stream(streams[static_cast<std::size_t>(s)]));
        }
        async.drain();
        for (const Ticket& ticket : tickets) {
          if (!ticket.accepted()) {
            all_ok = false;
            continue;
          }
          latencies.push_back(async.latency_seconds(ticket) * 1e3);
          (void)async.take_stream(ticket, delivery);
        }
      }
      const double elapsed = timer.seconds();
      LatencyRow row;
      row.shards = shards;
      row.arrivals_per_s = static_cast<double>(arrivals_served) / elapsed;
      row.latency = percentiles(latencies);
      latency_rows.push_back(row);
      std::cout << strfmt("%-8d %14.1f %10.3f %10.3f %10.3f %10.3f\n",
                          row.shards, row.arrivals_per_s, row.latency.p50,
                          row.latency.p90, row.latency.p99,
                          row.latency.max);
    }
  }

  // --- steady-state allocations per arrival (FlatList stream path) -----
  double allocs_per_arrival = -1.0;  // -1 = not measured (sanitizer build)
  if (kAllocHookEnabled) {
    AsyncOptions options;
    options.shards = 1;
    options.max_batch = max_batch;
    options.flush_after_ms = flush_ms;
    options.queue_capacity = 8;  // small slot ring: warm-up visits every slot
    options.max_streams = 4;
    AsyncScheduler async(options);
    const auto& jobs = stream_jobs[0];
    std::vector<StreamArrival> tape;
    for (const auto& job : jobs) {
      tape.push_back(moldable_arrival(job.task, job.release));
    }
    StreamConfig stream_config;
    stream_config.m = m;
    stream_config.policy = &flat_policy;
    StreamDelivery delivery;
    const auto round = [&] {
      const StreamTicket stream = async.open_stream(stream_config);
      const Ticket feed = async.submit_stream(stream, tape.data(),
                                              tape.size(),
                                              tape.back().release);
      (void)async.wait(feed);
      (void)async.take_stream(feed, delivery);
      const Ticket close = async.close_stream(stream);
      (void)async.wait(close);
      (void)async.take_stream(close, delivery);
    };
    // Warm-up: cycle the slot and stream rings until every pooled buffer
    // hosted both feed shapes.
    for (int r = 0; r < 16; ++r) round();
    const std::uint64_t before = g_alloc_count.load();
    for (int r = 0; r < reps; ++r) round();
    allocs_per_arrival =
        static_cast<double>(g_alloc_count.load() - before) /
        static_cast<double>(tape.size() * static_cast<std::size_t>(reps));
    std::cout << strfmt(
        "\n# steady-state allocations (1 shard, flatlist stream): "
        "%.2f allocs/arrival\n",
        allocs_per_arrival);
    if (allocs_per_arrival != 0.0) {
      std::cerr << "ERROR: steady-state stream path allocated\n";
      all_ok = false;
    }
  } else {
    std::cout << "\n# steady-state allocations: not measured "
                 "(operator-new hook disabled under AddressSanitizer)\n";
  }

  const std::string json_path = args.get_string("json", "BENCH_online.json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << strfmt(
        "{\n  \"benchmark\": \"online_stream\",\n"
        "  \"streams\": %d,\n  \"jobs_per_stream\": %d,\n  \"m\": %d,\n"
        "  \"mean_gap\": %.3f,\n  \"max_batch\": %d,\n"
        "  \"flush_after_ms\": %.3f,\n  \"reps\": %d,\n"
        "  \"shuffles\": %d,\n  \"pool_workers\": %zu,\n",
        num_streams, jobs_per_stream, m, mean_gap, max_batch, flush_ms,
        reps, shuffles, shared_thread_pool().size());
    out << "  \"determinism\": [\n";
    for (std::size_t i = 0; i < determinism_rows.size(); ++i) {
      const auto& row = determinism_rows[i];
      out << strfmt(
          "    {\"algorithm\": \"%s\", \"shards\": %d, "
          "\"streams_identical_to_reference\": %s, "
          "\"oneshots_identical_to_sync\": %s}%s\n",
          row.algorithm.c_str(), row.shards,
          row.streams_identical ? "true" : "false",
          row.oneshots_identical ? "true" : "false",
          i + 1 < determinism_rows.size() ? "," : "");
    }
    out << "  ],\n  \"latency\": [\n";
    for (std::size_t i = 0; i < latency_rows.size(); ++i) {
      const auto& row = latency_rows[i];
      out << strfmt(
          "    {\"shards\": %d, \"arrivals_per_s\": %.1f, "
          "\"feed_latency_ms\": {\"p50\": %.3f, \"p90\": %.3f, "
          "\"p99\": %.3f, \"max\": %.3f}}%s\n",
          row.shards, row.arrivals_per_s, row.latency.p50, row.latency.p90,
          row.latency.p99, row.latency.max,
          i + 1 < latency_rows.size() ? "," : "");
    }
    out << strfmt(
        "  ],\n  \"allocs\": [\n    {\"path\": \"stream_flatlist\", "
        "\"allocs_per_arrival\": %.2f}\n  ]\n}\n",
        allocs_per_arrival);
    std::cout << "# json written to " << json_path << "\n";
  }

  if (!all_ok) {
    std::cerr << "ERROR: online_stream contract violated (see above)\n";
    return 1;
  }
  return 0;
}
