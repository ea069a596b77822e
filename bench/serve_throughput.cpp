/// Speculation latency bench for the serving layer: a sparse-watermark DEMT
/// stream — every feed carries one batch of arrivals with the watermark
/// held exactly at the batch's open instant, so each decision becomes
/// final only at the *next* feed — served with StreamConfig::speculate off
/// and on. It reports the feed-to-decision latency percentiles of both
/// modes (the latency of the feeds that deliver finalised batch
/// decisions): with speculation the confirming feed only replays the
/// staged decision. Timing only; the bit-identity, speculation-fires and
/// 0.00-allocation gates of this tape live in ctest
/// (Speculation.SparseWatermarkServeTapeIsBitIdenticalAndFires,
/// Alloc.SpeculativeStreamFeeds).
///
/// Run `serve_throughput --help` for flags; the BENCH_serve.json schema is
/// documented in docs/BENCHMARKS.md.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "serve/async_scheduler.hpp"
#include "sim/stream.hpp"
#include "trace/slo.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/strfmt.hpp"
#include "workloads/generators.hpp"

namespace {

using namespace moldsched;

constexpr const char* kHelp = R"(serve_throughput -- speculative decision latency

Serves a sparse-watermark DEMT stream (m=32, 8 shuffles) through one
AsyncScheduler shard with speculation off and on and reports the
feed-to-decision latency percentiles of each mode. Timing only: the run
has no exit gate.

Flags
  --quick           small preset (6 batches x 48 jobs, 2 passes)
                    [default 12 batches x 96 jobs, 5 passes]
  --json PATH       JSON report path ("" disables)   [BENCH_serve.json]
  --help            this text

The BENCH_serve.json schema is documented in docs/BENCHMARKS.md.
)";

void write_percentiles(std::ostream& out, const char* name,
                       const SloPercentiles& p) {
  out << strfmt("  \"%s\": {\"p50\": %.3f, \"p90\": %.3f, \"p99\": %.3f, "
                "\"max\": %.3f},\n",
                name, p.p50, p.p90, p.p99, p.max);
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  if (args.help_requested()) {
    std::cout << kHelp;
    return 0;
  }
  const bool quick = args.has("quick");
  const int batches = quick ? 6 : 12;
  const int per_batch = quick ? 48 : 96;
  const int passes = quick ? 2 : 5;
  const int m = 32;
  const std::uint64_t seed = 20040627;

  DemtOptions demt_options;
  demt_options.shuffles = 8;
  const DemtPolicy demt_policy(demt_options);

  // The tape: per_batch moldable arrivals at each batch instant, one feed
  // per instant, watermark pinned to the instant itself (sparse).
  struct Feed {
    std::vector<StreamArrival> arrivals;
    double watermark = 0.0;
  };
  const WorkloadFamily families[] = {
      WorkloadFamily::WeaklyParallel, WorkloadFamily::Cirne,
      WorkloadFamily::HighlyParallel, WorkloadFamily::Mixed};
  Rng rng(seed ^ 0x53504543ULL);  // "SPEC"
  std::vector<Feed> tape(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    const double release = 10.0 * b;
    Feed& feed = tape[static_cast<std::size_t>(b)];
    feed.watermark = release;
    for (int j = 0; j < per_batch; ++j) {
      Instance tmp = generate_instance(families[j % 4], 1, m, rng);
      feed.arrivals.push_back(moldable_arrival(tmp.task(0), release));
    }
  }

  AsyncOptions options;
  options.shards = 1;
  options.max_batch = 16;
  options.flush_after_ms = 0.0;  // dispatch every feed immediately
  options.queue_capacity = 8;
  options.max_streams = 4;
  AsyncScheduler async(options);

  // One tape pass: open, feed each instant (waited, so the latency is pure
  // decide time, not queueing), close. Feeds whose delivery holds newly
  // finalised batch jobs are the decision points the client waits on.
  StreamDelivery delivery;
  const auto run_tape = [&](bool speculate, std::vector<double>* decision_ms) {
    StreamConfig config;
    config.m = m;
    config.policy = &demt_policy;
    config.speculate = speculate;
    const StreamTicket stream = async.open_stream(config);
    const auto settle = [&](const Ticket& ticket) {
      (void)async.wait(ticket);
      const double ms = async.latency_seconds(ticket) * 1e3;  // pre-take
      (void)async.take_stream(ticket, delivery);
      if (decision_ms != nullptr && delivery.num_jobs() > 0) {
        decision_ms->push_back(ms);
      }
    };
    for (const Feed& feed : tape) {
      settle(async.submit_stream(stream, feed.arrivals.data(),
                                 feed.arrivals.size(), feed.watermark));
    }
    settle(async.close_stream(stream));
  };

  std::vector<double> off_ms;
  std::vector<double> on_ms;
  run_tape(false, nullptr);  // warm-up pass per mode
  for (int r = 0; r < passes; ++r) run_tape(false, &off_ms);
  run_tape(true, nullptr);
  for (int r = 0; r < passes; ++r) run_tape(true, &on_ms);
  const SloPercentiles off = percentiles_of(off_ms);
  const SloPercentiles on = percentiles_of(on_ms);
  const AsyncStats stats = async.stats();

  std::cout << strfmt(
      "# serve_throughput: sparse watermark, %d batches x %d jobs, demt, "
      "%d passes per mode\n"
      "feed-to-decision ms   %8s %8s %8s %8s\n"
      "  speculate off       %8.3f %8.3f %8.3f %8.3f\n"
      "  speculate on        %8.3f %8.3f %8.3f %8.3f\n"
      "# staged %llu, committed %llu, rolled back %llu\n",
      batches, per_batch, passes, "p50", "p90", "p99", "max", off.p50, off.p90,
      off.p99, off.max, on.p50, on.p90, on.p99, on.max,
      static_cast<unsigned long long>(stats.spec_decided),
      static_cast<unsigned long long>(stats.spec_committed),
      static_cast<unsigned long long>(stats.spec_rolled_back));

  const std::string json_path = args.get_string("json", "BENCH_serve.json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << strfmt(
        "{\n  \"benchmark\": \"serve_throughput\",\n  \"m\": %d,\n"
        "  \"batches\": %d,\n  \"per_batch\": %d,\n  \"passes\": %d,\n",
        m, batches, per_batch, passes);
    write_percentiles(out, "feed_to_decision_ms_off", off);
    write_percentiles(out, "feed_to_decision_ms_on", on);
    out << strfmt(
        "  \"decided\": %llu,\n  \"committed\": %llu,\n"
        "  \"rolled_back\": %llu\n}\n",
        static_cast<unsigned long long>(stats.spec_decided),
        static_cast<unsigned long long>(stats.spec_committed),
        static_cast<unsigned long long>(stats.spec_rolled_back));
    std::cout << "# json written to " << json_path << "\n";
  }
  return 0;
}
