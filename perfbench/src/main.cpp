/// The repository benchmark: one system configuration, three closed-loop
/// traffic mixes, end-to-end metrics from untraced runs and per-layer
/// metrics from a separate traced run. See perfbench/README.md.
///
///   perfbench --workload fresh_paper|recurring_zipf|trace_stream
///             --seed N --seconds S --trace 0|1 [--spans PATH]
///
/// The last stdout line is one JSON object: correct, attempted, failed and
/// metrics. The exit status is non-zero when any output differs from its
/// reference, any operation fails, or a quality ratio falls below 1.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(args.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be > 0");
  }
  return args;
}

/// Build and warm a fresh system kSetupReps times; setup_s is the median,
/// the last system serves the timed phase.
constexpr int kSetupReps = 7;
/// Every slot of a round (a call, or a generation of calls) does the same
/// kind of work in every round, and is read at its 90th percentile over
/// the rounds. The host's speed comes in a fast and a slow mode, each
/// lasting from a second to minutes (perfbench/STEADINESS.md): a median
/// over rounds jumps between the modes with their mix, while nearly every
/// run spends a tenth of its rounds in the slow mode, which holds a steady
/// speed. A slowdown of the code moves every round, and so this reading.
constexpr double kSlotRank = 0.90;
/// A latency percentile needs ten samples beyond it: p99 needs 1000.
constexpr std::size_t kMinLatencySamples = 1000;

/// Samples of every round, slot by slot: rows[round][slot].
using Rows = std::vector<std::vector<double>>;

/// Whether every round recorded the same number of slots.
bool same_shape(const Rows& rows) {
  return std::all_of(rows.begin(), rows.end(), [&](const auto& row) {
    return row.size() == rows.front().size();
  });
}

/// Sorted samples of slot `slot` over the rounds.
std::vector<double> slot_samples(const Rows& rows, std::size_t slot) {
  std::vector<double> out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(row[slot]);
  std::sort(out.begin(), out.end());
  return out;
}

/// Wall time of one round: each generation's kSlotRank quantile over the
/// rounds, summed over the round's generations.
double round_ms(const Rows& group_ms) {
  double total = 0.0;
  for (std::size_t g = 0; g < group_ms.front().size(); ++g) {
    total += quantile(slot_samples(group_ms, g), kSlotRank);
  }
  return total;
}

/// The latency samples the percentiles are read from: from each call
/// slot, the tenth of its rounds ranked just below its kSlotRank quantile,
/// or more of the rounds below it when the pool needs kMinLatencySamples.
std::vector<double> latency_pool(const Rows& latency_ms) {
  const std::size_t rounds = latency_ms.size();
  const std::size_t slots = latency_ms.front().size();
  const auto rank = [&](double share) {
    return static_cast<std::size_t>(
        std::ceil(share * static_cast<double>(rounds) - 1e-9));
  };
  const std::size_t end = std::max<std::size_t>(1, rank(kSlotRank));
  const std::size_t take = std::min(
      end, std::max({std::size_t{1}, rank(1.0 - kSlotRank),
                     (kMinLatencySamples + slots - 1) / slots}));
  std::vector<double> pool;
  pool.reserve(take * slots);
  for (std::size_t i = 0; i < slots; ++i) {
    const std::vector<double> sorted = slot_samples(latency_ms, i);
    pool.insert(pool.end(),
                sorted.begin() + static_cast<std::ptrdiff_t>(end - take),
                sorted.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return pool;
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed);
  Tally tally;

  std::vector<double> setup_s;
  std::unique_ptr<System> system;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    system.reset();  // teardown of the previous system is not set-up time
    const std::int64_t t0 = now_ns();
    system = std::make_unique<System>();
    workload->setup(*system, tally);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  std::printf("# set-up reps (s):");
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  std::vector<Metric> metrics;
  if (!args.trace) {
    Rows latency_ms;
    Rows group_ms;
    std::vector<double> round_rate;
    std::int64_t placed = 0;
    double timed_s = 0.0;
    RoundSamples samples;
    samples.latency_ms.reserve(1 << 14);
    samples.group_ms.reserve(1 << 12);
    const int rounds = workload->timed_rounds(args.seconds);
    for (int round = 0; round < rounds; ++round) {
      workload->prepare_round(round);
      samples.clear();
      const std::int64_t t0 = now_ns();
      const std::int64_t round_placed =
          workload->serve_round(*system, &samples, tally, nullptr);
      const double round_s = static_cast<double>(now_ns() - t0) * 1e-9;
      placed += round_placed;
      timed_s += round_s;
      round_rate.push_back(static_cast<double>(round_placed) / round_s);
      latency_ms.push_back(samples.latency_ms);
      group_ms.push_back(samples.group_ms);
      workload->check_round(round, tally);
    }
    if (!same_shape(latency_ms) || !same_shape(group_ms)) {
      throw std::logic_error("rounds of one run differ in shape");
    }
    const std::vector<double> pool = latency_pool(latency_ms);
    if (pool.size() < kMinLatencySamples) {
      tally.fail("fewer than 1000 latency samples: p99 is not resolved");
    }
    const double per_round = static_cast<double>(placed) / rounds;
    const Quality q = workload->quality();
    std::printf("# round throughput (1/s):");
    for (const double r : round_rate) std::printf(" %.0f", r);
    std::printf("\n");
    std::printf("# %s seed=%llu rounds=%d timed=%.3fs calls=%zu "
                "generations=%zu per round, latency_samples=%zu "
                "whole_phase_jobs_per_s=%.0f setup_reps=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), rounds, timed_s,
                latency_ms.front().size(), group_ms.front().size(),
                pool.size(), static_cast<double>(placed) / timed_s,
                kSetupReps);
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"jobs_per_s", per_round / (round_ms(group_ms) * 1e-3), "1/s"},
        {"latency_p50_ms", quantile(pool, 0.50), "ms"},
        {"latency_p99_ms", quantile(pool, 0.99), "ms"},
        {"cmax_ratio", q.cmax_ratio(), "ratio"},
        {"minsum_ratio", q.minsum_ratio(), "ratio"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
    if (!(q.cmax_ratio() >= 1.0) || !(q.minsum_ratio() >= 1.0)) {
      tally.fail("a quality ratio is below 1: a lower bound is not a bound");
    }
  } else {
    Tracer tracer;
    metrics = workload->trace_layers(*system, tracer, args.seconds, tally);
    if (!args.spans.empty() && !tracer.write(args.spans)) {
      tally.fail("cannot write spans to " + args.spans);
    }
    std::printf("# %s seed=%llu traced spans=%zu\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), tracer.size());
  }
  system.reset();

  for (const Metric& m : metrics) {
    std::printf("%-30s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& error : tally.errors) {
    std::fprintf(stderr, "FAILED: %s\n", error.c_str());
  }
  const bool correct = tally.failed == 0;
  std::printf("%s\n",
              result_json(correct, tally.attempted, tally.failed, metrics)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
