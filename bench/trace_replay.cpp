/// Trace-driven workload replay: parses an SWF cluster log (trace/swf.hpp),
/// compiles it onto the streaming machinery (trace/tape.hpp), and replays
/// the tape through OnlineStream directly and through AsyncScheduler stream
/// sessions for shard counts {1, 2, 4} — exit-gated bit-identical to the
/// off-line batch simulator on the same tape for every policy (DEMT,
/// FlatList, LPT) and every path. Per-lane SLO percentiles (latency,
/// stretch, deadline attainment; trace/slo.hpp) are reported with the
/// baseline policies as columns next to DEMT, and the steady-state stream
/// path is gated at 0.00 heap allocations per arrival with the global
/// operator-new hook while an SLO accumulator is live.
///
/// Run `trace_replay --help` for flags; the BENCH_trace.json schema is
/// documented in docs/BENCHMARKS.md, the trace pipeline in docs/TRACES.md.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "alloc_hook.hpp"
#include "baselines/lpt_policy.hpp"
#include "core/policy.hpp"
#include "serve/async_scheduler.hpp"
#include "sim/online.hpp"
#include "sim/stream.hpp"
#include "trace/slo.hpp"
#include "trace/swf.hpp"
#include "trace/swf_write.hpp"
#include "trace/tape.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/strfmt.hpp"
#include "util/timer.hpp"

namespace {

using namespace moldsched;

constexpr const char* kHelp = R"(trace_replay -- SWF trace replay bench

Parses an SWF workload log, compiles it into a StreamArrival tape, and
replays the tape through OnlineStream and through AsyncScheduler stream
sessions, comparing every decision against the off-line batch simulator
(online_batch_schedule_reference) for DEMT, FlatList, and LPT.

Flags
  --trace PATH      SWF log to replay (bundled mini-trace when absent)
  --synth-out PATH  write the deterministic synthetic SWF log and exit
  --synth-jobs N    jobs in the synthetic log                   [200]
  --m N             machine size (0 = the log's MaxProcs)       [0]
  --scale X         time compression divisor                    [1]
  --stride N        keep every stride-th usable job             [1]
  --max-jobs N      cap on kept jobs (0 = all)                  [0]
  --moldable        compile moldable Downey tasks, not rigid
  --sigma X         Downey sigma for --moldable                 [1.0]
  --quantize N      runtime grid sub-steps per doubling (0=off) [0]
  --lanes N         SLO lanes (queue id mod lanes)              [4]
  --target-stretch X  deadline rule: stretch <= X               [10]
  --shards a,b,c    shard counts to sweep                       [1,2,4]
  --chunk N         max arrivals per feed                       [8]
  --max-batch N     coalescing batch bound                      [8]
  --flush-ms X      deadline flush (ms; 0 = every submit)       [0.5]
  --shuffles N      DEMT shuffle candidates per batch decision  [4]
  --reps N          alloc-gate measurement rounds               [3]
  --seed S          RNG seed (synthesis and chunk sizes)        [20040627]
  --quick           small preset (--max-jobs 80, 2 reps)
  --json PATH       JSON report path ("" disables)              [BENCH_trace.json]
  --help            this text

Exit status: non-zero when any replay path differs from the off-line
reference on any policy, or the steady-state stream path allocates per
arrival (allocation counting is compiled out under AddressSanitizer and
reported as -1).
)";

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
                            std::size_t num_jobs) {
  if (!acc.contiguous) return false;
  if (acc.start.size() != num_jobs) return false;
  for (std::size_t j = 0; j < num_jobs; ++j) {
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

/// Object-path off-line oracle running `policy` (shared workspace keeps the
/// std::function copyable).
OfflineScheduler make_oracle(const SchedulingPolicy& policy) {
  std::shared_ptr<PolicyWorkspace> ws(policy.make_workspace());
  return [&policy, ws](const Instance& batch) {
    FlatPlacements out;
    policy.schedule_into(batch, *ws, out);
    return out.to_schedule(batch.procs());
  };
}

/// Replay the tape through a bare OnlineStream in chunked feeds; the chunk
/// sizes come from `rng` so feed boundaries never align with batches.
void replay_online_stream(const Tape& tape, const SchedulingPolicy& policy,
                          Rng& rng, int max_chunk, AssembledStream& acc) {
  OnlineStream stream;
  stream.open(tape.m, {});
  const std::unique_ptr<PolicyWorkspace> ws = policy.make_workspace();
  StreamDelivery delivery;
  std::size_t fed = 0;
  while (fed < tape.arrivals.size()) {
    const auto chunk = std::min<std::size_t>(
        tape.arrivals.size() - fed,
        static_cast<std::size_t>(
            rng.uniform_int(1, std::max(1, max_chunk))));
    const std::size_t next = fed + chunk;
    const double watermark = next < tape.arrivals.size()
                                 ? tape.arrivals[next].release
                                 : tape.arrivals.back().release;
    stream.feed(tape.arrivals.data() + fed, chunk, watermark, policy, *ws,
                delivery);
    absorb(acc, delivery);
    fed = next;
  }
  stream.finish(policy, *ws, delivery);
  absorb(acc, delivery);
}

/// Replay the tape through one AsyncScheduler stream session.
bool replay_async(AsyncScheduler& async, const Tape& tape,
                  const SchedulingPolicy& policy, int chunk,
                  AssembledStream& acc) {
  StreamConfig options;
  options.m = tape.m;
  options.policy = &policy;
  const StreamTicket stream = async.open_stream(options);
  std::vector<Ticket> tickets;
  for (std::size_t i = 0; i < tape.arrivals.size();
       i += static_cast<std::size_t>(chunk)) {
    const auto count =
        std::min<std::size_t>(static_cast<std::size_t>(chunk),
                              tape.arrivals.size() - i);
    const double watermark = i + count < tape.arrivals.size()
                                 ? tape.arrivals[i + count].release
                                 : tape.arrivals.back().release;
    const Ticket ticket = async.submit_stream(
        stream, tape.arrivals.data() + i, count, watermark);
    if (!ticket.accepted()) return false;
    // Feeds of one stream run in order; waiting keeps the ticket list
    // small and the borrowed arrival window valid semantics simple.
    (void)async.wait(ticket);
    tickets.push_back(ticket);
  }
  tickets.push_back(async.close_stream(stream));
  async.drain();
  bool ok = true;
  StreamDelivery delivery;
  for (const Ticket& ticket : tickets) {
    if (!ticket.accepted() || async.poll(ticket) != TicketStatus::Done ||
        !async.take_stream(ticket, delivery)) {
      ok = false;
      continue;
    }
    absorb(acc, delivery);
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace moldsched;
  const ArgParser args(argc, argv);
  if (args.help_requested()) {
    std::cout << kHelp;
    return 0;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20040627));
  const int synth_jobs = static_cast<int>(args.get_int("synth-jobs", 200));

  // --synth-out: regenerate the deterministic synthetic log and exit. The
  // bundled tests/data/mini_trace.swf is exactly this output.
  const std::string synth_out = args.get_string("synth-out", "");
  if (!synth_out.empty()) {
    SynthSwfOptions synth;
    synth.jobs = synth_jobs;
    Rng rng(seed);
    SwfTrace trace;
    synthesize_swf(synth, rng, trace);
    std::ofstream out(synth_out);
    if (!out) {
      std::cerr << "ERROR: cannot write " << synth_out << "\n";
      return 1;
    }
    write_swf(trace, out);
    std::cout << strfmt("# wrote %d-job synthetic SWF log to %s\n",
                        synth.jobs, synth_out.c_str());
    return 0;
  }

  TapeOptions tape_options;
  tape_options.m = static_cast<int>(args.get_int("m", 0));
  tape_options.time_scale = args.get_double("scale", 1.0);
  tape_options.stride = static_cast<int>(args.get_int("stride", 1));
  tape_options.max_jobs = static_cast<int>(args.get_int("max-jobs", 0));
  tape_options.moldable = args.has("moldable");
  tape_options.downey_sigma = args.get_double("sigma", 1.0);
  tape_options.quantize_steps = static_cast<int>(args.get_int("quantize", 0));
  tape_options.lanes = static_cast<int>(args.get_int("lanes", 4));
  int reps = static_cast<int>(args.get_int("reps", 3));
  if (args.has("quick")) {
    if (tape_options.max_jobs == 0) tape_options.max_jobs = 80;
    reps = 2;
  }
  const double target_stretch = args.get_double("target-stretch", 10.0);
  const std::vector<int> shard_settings =
      args.get_int_list("shards", {1, 2, 4});
  const int chunk = static_cast<int>(args.get_int("chunk", 8));
  const int max_batch = static_cast<int>(args.get_int("max-batch", 8));
  const double flush_ms = args.get_double("flush-ms", 0.5);
  const int shuffles = static_cast<int>(args.get_int("shuffles", 4));

  // --- load (or synthesize) the log ------------------------------------
  std::string trace_path = args.get_string("trace", "");
  const bool explicit_trace = !trace_path.empty();
  if (!explicit_trace) {
    trace_path = MOLDSCHED_SOURCE_DIR "/tests/data/mini_trace.swf";
  }
  SwfTrace trace;
  try {
    load_swf_file(trace_path, trace);
  } catch (const std::exception& error) {
    if (explicit_trace) {
      std::cerr << "ERROR: " << error.what() << "\n";
      return 1;
    }
    // No bundled file (source tree not at hand): the bundled trace is the
    // deterministic synthetic log, so synthesize the identical one.
    SynthSwfOptions synth;
    synth.jobs = synth_jobs;
    Rng rng(seed);
    synthesize_swf(synth, rng, trace);
    trace_path = "<synthetic>";
  }

  Tape tape;
  try {
    compile_tape(trace, tape_options, tape);
  } catch (const std::exception& error) {
    std::cerr << "ERROR: " << error.what() << "\n";
    return 1;
  }
  std::cout << strfmt(
      "# trace_replay: %s\n"
      "# %lld records -> %lld arrivals (m=%d, %s, scale=%.3g, stride=%d, "
      "quantize=%d, lanes=%d), span %.1f\n\n",
      trace_path.c_str(), static_cast<long long>(tape.jobs_in_trace),
      static_cast<long long>(tape.jobs_kept()), tape.m,
      tape_options.moldable ? "moldable" : "rigid", tape_options.time_scale,
      tape_options.stride, tape_options.quantize_steps, tape_options.lanes,
      tape.span);

  DemtOptions demt_options;
  demt_options.shuffles = shuffles;
  const DemtPolicy demt_policy(demt_options);
  const FlatListPolicy flat_policy;
  const LptRigidPolicy lpt_policy;
  const std::vector<const SchedulingPolicy*> policies = {
      &demt_policy, &flat_policy, &lpt_policy};

  // The off-line reference treats the tape as a job list received up
  // front (a rigid arrival is the degenerate moldable task).
  std::vector<OnlineJob> jobs;
  jobs.reserve(tape.arrivals.size());
  for (const StreamArrival& arrival : tape.arrivals) {
    jobs.push_back(OnlineJob{arrival.task, arrival.release});
  }

  bool all_ok = true;

  // --- determinism + SLO per policy ------------------------------------
  struct DeterminismRow {
    std::string policy;
    std::string path;  ///< "online_stream" or "async_shards_N"
    bool identical = true;
  };
  struct PolicyRow {
    std::string policy;
    double cmax = 0.0;
    double weighted_flow_sum = 0.0;
    SloReport slo;
  };
  std::vector<DeterminismRow> determinism_rows;
  std::vector<PolicyRow> policy_rows;

  std::cout << strfmt("%-10s %-16s %10s\n", "policy", "path", "identical");
  for (const SchedulingPolicy* policy : policies) {
    const OnlineResult reference = online_batch_schedule_reference(
        tape.m, jobs, make_oracle(*policy));

    // Bare OnlineStream, randomized chunk boundaries.
    AssembledStream direct;
    Rng chunk_rng(seed ^ 0xC0FFEEULL);
    replay_online_stream(tape, *policy, chunk_rng, chunk, direct);
    const bool direct_ok =
        identical_to_reference(direct, reference, jobs.size());
    determinism_rows.push_back(
        DeterminismRow{policy->name(), "online_stream", direct_ok});
    all_ok &= direct_ok;
    std::cout << strfmt("%-10s %-16s %10s\n", policy->name(),
                        "online_stream", direct_ok ? "yes" : "NO");

    for (const int shards : shard_settings) {
      AsyncOptions options;
      options.shards = shards;
      options.max_batch = max_batch;
      options.flush_after_ms = flush_ms;
      options.queue_capacity = 4096;
      options.max_streams = 8;
      AsyncScheduler async(options);
      AssembledStream acc;
      const bool fed_ok = replay_async(async, tape, *policy, chunk, acc);
      const bool ok =
          fed_ok && identical_to_reference(acc, reference, jobs.size());
      determinism_rows.push_back(DeterminismRow{
          policy->name(), strfmt("async_shards_%d", shards), ok});
      all_ok &= ok;
      std::cout << strfmt("%-10s %-16s %10s\n", policy->name(),
                          strfmt("async_shards_%d", shards).c_str(),
                          ok ? "yes" : "NO");
    }

    // SLO report from the replayed completions (identical on every path).
    PolicyRow row;
    row.policy = policy->name();
    row.cmax = direct.cmax;
    row.weighted_flow_sum = direct.wfs;
    if (direct.completion.size() == tape.info.size()) {
      SloAccumulator slo;
      slo.open(tape_options.lanes, tape.info.size());
      for (std::size_t j = 0; j < tape.info.size(); ++j) {
        slo.record(tape.info[j].lane, tape.info[j].release,
                   tape.info[j].min_time, direct.completion[j]);
      }
      slo.report(target_stretch, row.slo);
    }
    policy_rows.push_back(std::move(row));
  }

  // --- SLO summary: DEMT next to the baselines -------------------------
  std::cout << strfmt("\n%-10s %10s %14s %12s %12s %12s\n", "policy",
                      "cmax", "wt_flow_sum", "latency_p50", "stretch_p99",
                      "attainment");
  for (const PolicyRow& row : policy_rows) {
    // Job-weighted whole-machine percentile view: lane rows are in the
    // JSON; the console shows the worst lane for a quick read.
    double latency_p50 = 0.0, stretch_p99 = 0.0;
    for (const SloLaneReport& lane : row.slo.lanes) {
      latency_p50 = std::max(latency_p50, lane.latency.p50);
      stretch_p99 = std::max(stretch_p99, lane.stretch.p99);
    }
    std::cout << strfmt("%-10s %10.1f %14.1f %12.1f %12.2f %12.4f\n",
                        row.policy.c_str(), row.cmax, row.weighted_flow_sum,
                        latency_p50, stretch_p99, row.slo.attainment);
  }
  std::cout << strfmt(
      "# worst-lane latency p50 / stretch p99; deadline rule: stretch <= "
      "%.3g\n",
      target_stretch);

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
    StreamConfig stream_options;
    stream_options.m = tape.m;
    stream_options.policy = &flat_policy;
    StreamDelivery delivery;
    SloAccumulator slo;
    SloReport report;
    const auto round = [&] {
      // One full replay round with a live accumulator: open resets the
      // pooled sample buffers, record runs once per decided job.
      slo.open(tape_options.lanes, tape.info.size());
      const StreamTicket stream = async.open_stream(stream_options);
      std::size_t decided = 0;
      for (std::size_t i = 0; i < tape.arrivals.size();
           i += static_cast<std::size_t>(chunk)) {
        const auto count =
            std::min<std::size_t>(static_cast<std::size_t>(chunk),
                                  tape.arrivals.size() - i);
        const double watermark = i + count < tape.arrivals.size()
                                     ? tape.arrivals[i + count].release
                                     : tape.arrivals.back().release;
        const Ticket feed = async.submit_stream(
            stream, tape.arrivals.data() + i, count, watermark);
        (void)async.wait(feed);
        (void)async.take_stream(feed, delivery);
        for (int e = 0; e < delivery.num_jobs(); ++e) {
          const std::size_t j =
              static_cast<std::size_t>(delivery.first_job + e);
          slo.record(tape.info[j].lane, tape.info[j].release,
                     tape.info[j].min_time,
                     delivery.completion[static_cast<std::size_t>(e)]);
          ++decided;
        }
      }
      const Ticket close = async.close_stream(stream);
      (void)async.wait(close);
      (void)async.take_stream(close, delivery);
      for (int e = 0; e < delivery.num_jobs(); ++e) {
        const std::size_t j =
            static_cast<std::size_t>(delivery.first_job + e);
        slo.record(tape.info[j].lane, tape.info[j].release,
                   tape.info[j].min_time,
                   delivery.completion[static_cast<std::size_t>(e)]);
        ++decided;
      }
      (void)decided;
    };
    // Warm-up: cycle the slot and stream rings until every pooled buffer
    // hosted the tape.
    for (int r = 0; r < 16; ++r) round();
    const std::uint64_t before = g_alloc_count.load();
    for (int r = 0; r < reps; ++r) round();
    allocs_per_arrival =
        static_cast<double>(g_alloc_count.load() - before) /
        static_cast<double>(tape.arrivals.size() *
                            static_cast<std::size_t>(reps));
    slo.report(target_stretch, report);  // post-measurement reduction
    std::cout << strfmt(
        "\n# steady-state allocations (1 shard, flatlist stream + SLO "
        "accumulator): %.2f allocs/arrival\n",
        allocs_per_arrival);
    if (allocs_per_arrival != 0.0) {
      std::cerr << "ERROR: steady-state trace replay allocated\n";
      all_ok = false;
    }
  } else {
    std::cout << "\n# steady-state allocations: not measured "
                 "(operator-new hook disabled under AddressSanitizer)\n";
  }

  // --- JSON report ------------------------------------------------------
  const std::string json_path = args.get_string("json", "BENCH_trace.json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << strfmt(
        "{\n  \"benchmark\": \"trace_replay\",\n"
        "  \"trace\": \"%s\",\n"
        "  \"jobs_in_trace\": %lld,\n  \"jobs_kept\": %lld,\n"
        "  \"jobs_skipped\": %lld,\n  \"jobs_sampled_out\": %lld,\n"
        "  \"m\": %d,\n  \"moldable\": %s,\n  \"time_scale\": %.6g,\n"
        "  \"stride\": %d,\n  \"quantize_steps\": %d,\n  \"lanes\": %d,\n"
        "  \"span\": %.6g,\n  \"target_stretch\": %.6g,\n",
        trace_path.c_str(), static_cast<long long>(tape.jobs_in_trace),
        static_cast<long long>(tape.jobs_kept()),
        static_cast<long long>(tape.jobs_skipped),
        static_cast<long long>(tape.jobs_sampled_out), tape.m,
        tape_options.moldable ? "true" : "false", tape_options.time_scale,
        tape_options.stride, tape_options.quantize_steps,
        tape_options.lanes, tape.span, target_stretch);
    out << "  \"determinism\": [\n";
    for (std::size_t i = 0; i < determinism_rows.size(); ++i) {
      const DeterminismRow& row = determinism_rows[i];
      out << strfmt(
          "    {\"policy\": \"%s\", \"path\": \"%s\", "
          "\"identical_to_reference\": %s}%s\n",
          row.policy.c_str(), row.path.c_str(),
          row.identical ? "true" : "false",
          i + 1 < determinism_rows.size() ? "," : "");
    }
    out << "  ],\n  \"policies\": [\n";
    for (std::size_t i = 0; i < policy_rows.size(); ++i) {
      const PolicyRow& row = policy_rows[i];
      out << strfmt(
          "    {\"policy\": \"%s\", \"cmax\": %.6g, "
          "\"weighted_flow_sum\": %.6g, \"attainment\": %.4f,\n"
          "     \"slo_lanes\":\n",
          row.policy.c_str(), row.cmax, row.weighted_flow_sum,
          row.slo.attainment);
      out << slo_report_json(row.slo, "      ");
      out << strfmt("}%s\n", i + 1 < policy_rows.size() ? "," : "");
    }
    out << strfmt(
        "  ],\n  \"allocs\": [\n    {\"path\": \"stream_flatlist_trace\", "
        "\"allocs_per_arrival\": %.2f}\n  ]\n}\n",
        allocs_per_arrival);
    std::cout << "# json written to " << json_path << "\n";
  }

  if (!all_ok) {
    std::cerr << "ERROR: trace_replay contract violated (see above)\n";
    return 1;
  }
  return 0;
}
