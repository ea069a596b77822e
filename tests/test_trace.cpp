/// Trace subsystem tests: the SWF parser's tolerance and hard-error
/// contracts plus per-byte truncation/flip fuzz (throw or parse, never
/// UB), the writer round-trip and the bundled mini-trace's provenance
/// (bit-equal to the deterministic synthesizer), the tape compiler's
/// property suite — release monotonicity, stride-k sub-tape determinism,
/// time-scale linearity, quantization idempotence/bounds, moldable
/// calibration — a replay-vs-offline differential on the bundled trace,
/// and the per-lane SLO accumulator's known-value arithmetic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/lpt_policy.hpp"
#include "core/policy.hpp"
#include "gate_workloads.hpp"
#include "reference/online_reference.hpp"
#include "serve/async_scheduler.hpp"
#include "sim/online.hpp"
#include "sim/stream.hpp"
#include "tasks/time_grid.hpp"
#include "trace/slo.hpp"
#include "trace/swf.hpp"
#include "trace/swf_write.hpp"
#include "trace/tape.hpp"
#include "util/rng.hpp"
#include "workloads/speedup_models.hpp"

namespace moldsched {
namespace {

constexpr const char* kMiniTracePath =
    MOLDSCHED_SOURCE_DIR "/tests/data/mini_trace.swf";

/// A small deterministic synthetic log for fuzzing and property tests.
SwfTrace synth_trace(int jobs = 30, std::uint64_t seed = 7) {
  SynthSwfOptions options;
  options.jobs = jobs;
  Rng rng(seed);
  SwfTrace trace;
  synthesize_swf(options, rng, trace);
  return trace;
}

std::string to_swf_text(const SwfTrace& trace) {
  std::ostringstream out;
  write_swf(trace, out);
  return out.str();
}

void expect_jobs_equal(const SwfJob& a, const SwfJob& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.submit, b.submit);
  EXPECT_EQ(a.wait, b.wait);
  EXPECT_EQ(a.run_time, b.run_time);
  EXPECT_EQ(a.used_procs, b.used_procs);
  EXPECT_EQ(a.avg_cpu, b.avg_cpu);
  EXPECT_EQ(a.used_mem, b.used_mem);
  EXPECT_EQ(a.req_procs, b.req_procs);
  EXPECT_EQ(a.req_time, b.req_time);
  EXPECT_EQ(a.req_mem, b.req_mem);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.user, b.user);
  EXPECT_EQ(a.group, b.group);
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.queue, b.queue);
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.prev_job, b.prev_job);
  EXPECT_EQ(a.think_time, b.think_time);
}

// ------------------------------------------------------------- parser

TEST(Trace, ParsesWellFormedLog) {
  const char* text =
      "; MaxProcs: 128\n"
      "; MaxQueues: 2\n"
      "1 0 5 100 4 -1 -1 8 200 -1 1 3 2 7 1 0 -1 -1\n"
      "2 60 0 50.5 1 -1 -1 1 60 -1 0 4 2 7 0 0 -1 -1\n";
  SwfTrace trace;
  parse_swf(text, trace);
  ASSERT_EQ(trace.jobs.size(), 2u);
  EXPECT_EQ(trace.max_procs, 128);
  EXPECT_EQ(trace.max_queues, 2);
  EXPECT_EQ(trace.comment_lines, 2);
  EXPECT_EQ(trace.jobs[0].id, 1);
  EXPECT_EQ(trace.jobs[0].submit, 0.0);
  EXPECT_EQ(trace.jobs[0].run_time, 100.0);
  EXPECT_EQ(trace.jobs[0].used_procs, 4);
  EXPECT_EQ(trace.jobs[0].req_procs, 8);
  EXPECT_EQ(trace.jobs[0].status, 1);
  EXPECT_EQ(trace.jobs[0].queue, 1);
  EXPECT_EQ(trace.jobs[1].run_time, 50.5);
  EXPECT_EQ(trace.jobs[1].status, 0);
  EXPECT_EQ(trace.observed_max_procs(), 8);
}

TEST(Trace, ToleratesCommentsBlanksAndShortRecords) {
  const char* text =
      "; free-form comment\n"
      "\n"
      "   \n"
      "1 10 2 30\n"  // only the first 4 fields: the rest defaults to -1
      ";; another\n"
      "2 20 1 40 2\n";
  SwfTrace trace;
  parse_swf(text, trace);
  ASSERT_EQ(trace.jobs.size(), 2u);
  EXPECT_EQ(trace.jobs[0].run_time, 30.0);
  EXPECT_EQ(trace.jobs[0].used_procs, -1);
  EXPECT_EQ(trace.jobs[0].req_procs, -1);
  EXPECT_EQ(trace.jobs[0].status, -1);
  EXPECT_EQ(trace.jobs[1].used_procs, 2);
  EXPECT_EQ(trace.max_procs, -1);  // no header directive
}

TEST(Trace, HardErrorsOnMalformedRecords) {
  SwfTrace trace;
  // Non-numeric token.
  EXPECT_THROW(parse_swf("1 0 abc 30\n", trace), std::invalid_argument);
  // Too few fields.
  EXPECT_THROW(parse_swf("1 0 5\n", trace), std::invalid_argument);
  // Too many fields.
  EXPECT_THROW(
      parse_swf("1 0 5 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 99\n", trace),
      std::invalid_argument);
  // Non-finite values.
  EXPECT_THROW(parse_swf("1 inf 5 30\n", trace), std::invalid_argument);
  EXPECT_THROW(parse_swf("1 nan 5 30\n", trace), std::invalid_argument);
  // Fractional value in an integer field (job id).
  EXPECT_THROW(parse_swf("1.5 0 5 30\n", trace), std::invalid_argument);
  // Trailing garbage glued to a number.
  EXPECT_THROW(parse_swf("1 0 5 30x\n", trace), std::invalid_argument);
}

TEST(Trace, ErrorMessagesCarryTheLineNumber) {
  SwfTrace trace;
  try {
    parse_swf("; ok\n1 0 5 30\nbad line here\n", trace);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
        << error.what();
  }
}

TEST(Trace, MalformedHeaderDirectivesAreIgnored) {
  SwfTrace trace;
  parse_swf("; MaxProcs: banana\n; MaxProcs:\n1 0 5 30\n", trace);
  EXPECT_EQ(trace.max_procs, -1);
  ASSERT_EQ(trace.jobs.size(), 1u);
}

TEST(Trace, MissingFinalNewlineStillParses) {
  SwfTrace trace;
  parse_swf("1 0 5 30 2", trace);
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.jobs[0].used_procs, 2);
}

// ------------------------------------------------- writer + provenance

TEST(Trace, WriterRoundTripIsBitExact) {
  const SwfTrace original = synth_trace(40, 99);
  SwfTrace reparsed;
  parse_swf(to_swf_text(original), reparsed);
  ASSERT_EQ(reparsed.jobs.size(), original.jobs.size());
  EXPECT_EQ(reparsed.max_procs, original.max_procs);
  EXPECT_EQ(reparsed.max_queues, original.max_queues);
  for (std::size_t i = 0; i < original.jobs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "job " << i);
    expect_jobs_equal(reparsed.jobs[i], original.jobs[i]);
  }
}

TEST(Trace, BundledMiniTraceMatchesTheSynthesizer) {
  // tests/data/mini_trace.swf is exactly write_swf of the synthesizer's
  // default 200-job log (seed 20040627); regenerating it must be a no-op.
  SwfTrace bundled;
  load_swf_file(kMiniTracePath, bundled);
  SynthSwfOptions options;
  Rng rng(20040627);
  SwfTrace expected;
  synthesize_swf(options, rng, expected);
  ASSERT_EQ(bundled.jobs.size(), expected.jobs.size());
  EXPECT_EQ(bundled.max_procs, expected.max_procs);
  EXPECT_EQ(bundled.max_queues, expected.max_queues);
  for (std::size_t i = 0; i < expected.jobs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "job " << i);
    expect_jobs_equal(bundled.jobs[i], expected.jobs[i]);
  }
}

TEST(Trace, LoadRejectsMissingFile) {
  SwfTrace trace;
  EXPECT_THROW(load_swf_file("/nonexistent/path.swf", trace),
               std::runtime_error);
}

// ----------------------------------------------------------- fuzzing

TEST(Trace, TruncationFuzzThrowsOrParsesNeverBreaks) {
  const std::string text = to_swf_text(synth_trace(30, 11));
  SwfTrace trace;
  for (std::size_t len = 0; len <= text.size(); ++len) {
    try {
      parse_swf(text.data(), len, trace);
      // A clean prefix must hold only complete records.
      for (const SwfJob& job : trace.jobs) EXPECT_GE(job.id, 0);
    } catch (const std::invalid_argument&) {
      // Truncation mid-record is a malformed record: expected.
    }
  }
}

TEST(Trace, ByteFlipFuzzThrowsOrParsesNeverBreaks) {
  const std::string original = to_swf_text(synth_trace(30, 12));
  // Every position x a spread of replacement bytes, including control
  // characters, separators, and sign/exponent characters that stress the
  // numeric parser.
  const char replacements[] = {'\0', '\n', ';',  ' ', '-', '+',
                               'e',  '.',  'x',  '9', char(0xFF)};
  SwfTrace trace;
  for (std::size_t pos = 0; pos < original.size(); ++pos) {
    for (const char replacement : replacements) {
      std::string mutated = original;
      mutated[pos] = replacement;
      try {
        parse_swf(mutated, trace);
      } catch (const std::invalid_argument&) {
      }
    }
  }
}

// ------------------------------------------------------- tape compiler

TEST(Trace, TapeReleasesAreNonDecreasingFromZero) {
  const SwfTrace trace = synth_trace(60, 21);
  TapeOptions options;
  Tape tape;
  compile_tape(trace, options, tape);
  ASSERT_GT(tape.jobs_kept(), 0);
  EXPECT_EQ(tape.arrivals.front().release, 0.0);
  for (std::size_t i = 1; i < tape.arrivals.size(); ++i) {
    EXPECT_GE(tape.arrivals[i].release, tape.arrivals[i - 1].release);
  }
  EXPECT_EQ(tape.jobs_in_trace,
            static_cast<std::int64_t>(trace.jobs.size()));
  EXPECT_EQ(tape.jobs_kept() + tape.jobs_skipped, tape.jobs_in_trace);
  EXPECT_EQ(tape.info.size(), tape.arrivals.size());
}

TEST(Trace, TapeFiltersFailedAndCancelledRecords) {
  const SwfTrace trace = synth_trace(80, 31);
  TapeOptions options;
  Tape tape;
  compile_tape(trace, options, tape);
  std::int64_t usable = 0;
  for (const SwfJob& job : trace.jobs) {
    const bool status_ok = job.status == 1 || job.status == -1;
    if (status_ok && job.run_time > 0.0 &&
        (job.req_procs >= 1 || job.used_procs >= 1)) {
      ++usable;
    }
  }
  EXPECT_EQ(tape.jobs_kept(), usable);
  EXPECT_GT(tape.jobs_skipped, 0);  // the synthesizer plants failures
}

TEST(Trace, StrideTapeIsAnExactSubTape) {
  const SwfTrace trace = synth_trace(90, 41);
  TapeOptions full_options;
  full_options.quantize_steps = 3;  // grid must not depend on the stride
  Tape full;
  compile_tape(trace, full_options, full);
  for (const int stride : {2, 3, 5}) {
    TapeOptions options = full_options;
    options.stride = stride;
    Tape sampled;
    compile_tape(trace, options, sampled);
    ASSERT_GT(sampled.jobs_kept(), 0) << "stride " << stride;
    for (std::size_t i = 0; i < sampled.arrivals.size(); ++i) {
      const std::size_t j = i * static_cast<std::size_t>(stride);
      ASSERT_LT(j, full.arrivals.size());
      SCOPED_TRACE(testing::Message()
                   << "stride " << stride << " arrival " << i);
      EXPECT_EQ(sampled.arrivals[i].release, full.arrivals[j].release);
      EXPECT_EQ(sampled.info[i].swf_id, full.info[j].swf_id);
      EXPECT_EQ(sampled.info[i].procs, full.info[j].procs);
      EXPECT_EQ(sampled.info[i].min_time, full.info[j].min_time);
      EXPECT_EQ(sampled.info[i].lane, full.info[j].lane);
    }
    EXPECT_EQ(sampled.jobs_kept() + sampled.jobs_sampled_out,
              full.jobs_kept());
  }
}

TEST(Trace, MaxJobsCapsTheTapeDeterministically) {
  const SwfTrace trace = synth_trace(60, 51);
  TapeOptions options;
  Tape full;
  compile_tape(trace, options, full);
  options.max_jobs = 10;
  Tape capped;
  compile_tape(trace, options, capped);
  ASSERT_EQ(capped.jobs_kept(), 10);
  for (std::size_t i = 0; i < capped.arrivals.size(); ++i) {
    EXPECT_EQ(capped.arrivals[i].release, full.arrivals[i].release);
    EXPECT_EQ(capped.info[i].swf_id, full.info[i].swf_id);
  }
}

TEST(Trace, TimeScaleCompressesLinearly) {
  const SwfTrace trace = synth_trace(50, 61);
  TapeOptions options;
  Tape real_time;
  compile_tape(trace, options, real_time);
  options.time_scale = 2.0;  // power of two: exact division
  Tape compressed;
  compile_tape(trace, options, compressed);
  ASSERT_EQ(compressed.jobs_kept(), real_time.jobs_kept());
  for (std::size_t i = 0; i < compressed.arrivals.size(); ++i) {
    EXPECT_EQ(compressed.arrivals[i].release,
              real_time.arrivals[i].release / 2.0);
    EXPECT_EQ(compressed.info[i].min_time,
              real_time.info[i].min_time / 2.0);
  }
  EXPECT_EQ(compressed.span, real_time.span / 2.0);
}

TEST(Trace, QuantizeRuntimeIsIdempotentAndBounded) {
  const TimeGrid grid(1000.0, 1.0);
  Rng rng(71);
  for (const int steps : {1, 2, 4, 8}) {
    const double factor = std::exp2(1.0 / static_cast<double>(steps));
    for (int i = 0; i < 200; ++i) {
      const double runtime = std::exp(rng.uniform(std::log(0.5),
                                                  std::log(2000.0)));
      const double q = quantize_runtime(runtime, grid, steps);
      EXPECT_GE(q, std::min(runtime, grid.t(0)));
      if (runtime > grid.t(0)) {
        EXPECT_LE(q, runtime * factor * (1.0 + 1e-12))
            << "steps " << steps << " runtime " << runtime;
      }
      EXPECT_EQ(quantize_runtime(q, grid, steps), q)
          << "steps " << steps << " runtime " << runtime;
    }
  }
  EXPECT_EQ(quantize_runtime(0.25, grid, 4), grid.t(0));
  EXPECT_THROW(static_cast<void>(quantize_runtime(1.0, grid, 0)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(quantize_runtime(0.0, grid, 2)),
               std::invalid_argument);
}

TEST(Trace, QuantizedTapeCollapsesRecurringRuntimes) {
  const SwfTrace trace = synth_trace(120, 81);
  TapeOptions options;
  options.quantize_steps = 2;
  Tape tape;
  compile_tape(trace, options, tape);
  std::vector<double> durations;
  for (const StreamArrival& arrival : tape.arrivals) {
    durations.push_back(arrival.task.time(arrival.task.min_procs()));
  }
  std::sort(durations.begin(), durations.end());
  durations.erase(std::unique(durations.begin(), durations.end()),
                  durations.end());
  // 2 sub-steps per doubling over the log's runtime range leaves far
  // fewer distinct values than jobs.
  EXPECT_LT(static_cast<std::int64_t>(durations.size()),
            tape.jobs_kept() / 2);
}

TEST(Trace, MoldableCompilationReproducesLoggedRuntime) {
  const SwfTrace trace = synth_trace(50, 91);
  TapeOptions options;
  options.moldable = true;
  Tape tape;
  compile_tape(trace, options, tape);
  ASSERT_GT(tape.jobs_kept(), 0);
  for (std::size_t i = 0; i < tape.info.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "row " << i);
    // Locate the source record by its (unique) job id.
    const SwfJob* source = nullptr;
    for (const SwfJob& job : trace.jobs) {
      if (job.id == tape.info[i].swf_id) {
        source = &job;
        break;
      }
    }
    ASSERT_NE(source, nullptr);
    const StreamArrival& arrival = tape.arrivals[i];
    ASSERT_EQ(arrival.kind, ArrivalKind::Moldable);
    const int procs = tape.info[i].procs;
    EXPECT_NEAR(arrival.task.time(procs), source->run_time,
                1e-9 * source->run_time);
    // More processors never slow the task down.
    EXPECT_LE(arrival.task.time(tape.m), arrival.task.time(procs) + 1e-12);
  }
}

TEST(Trace, CompileTapeRejectsBadOptionsAndEmptyTraces) {
  const SwfTrace trace = synth_trace(10, 101);
  Tape tape;
  TapeOptions options;
  options.time_scale = 0.0;
  EXPECT_THROW(compile_tape(trace, options, tape), std::invalid_argument);
  options = TapeOptions{};
  options.stride = 0;
  EXPECT_THROW(compile_tape(trace, options, tape), std::invalid_argument);
  options = TapeOptions{};
  options.lanes = 0;
  EXPECT_THROW(compile_tape(trace, options, tape), std::invalid_argument);
  options = TapeOptions{};
  options.weight = 0.0;
  EXPECT_THROW(compile_tape(trace, options, tape), std::invalid_argument);
  // No usable record: every job failed.
  SwfTrace empty;
  parse_swf("1 0 5 30 2 -1 -1 2 60 -1 0 1 1 1 0 0 -1 -1\n", empty);
  options = TapeOptions{};
  EXPECT_THROW(compile_tape(empty, options, tape), std::invalid_argument);
  // No resolvable machine size: no header, no processor counts.
  SwfTrace no_m;
  parse_swf("1 0 5 30\n", no_m);
  EXPECT_THROW(compile_tape(no_m, options, tape), std::invalid_argument);
}

// ----------------------------------------- replay-vs-offline differential

TEST(Trace, ChunkedReplayMatchesTheOfflineSimulator) {
  SwfTrace trace;
  load_swf_file(kMiniTracePath, trace);
  TapeOptions options;
  options.max_jobs = 48;
  Tape tape;
  compile_tape(trace, options, tape);
  ASSERT_EQ(tape.jobs_kept(), 48);

  std::vector<OnlineJob> jobs;
  for (const StreamArrival& arrival : tape.arrivals) {
    jobs.push_back(OnlineJob{arrival.task, arrival.release});
  }
  const OnlineResult reference = online_batch_schedule_reference(
      tape.m, jobs, [](const Instance& batch) {
        ListPassWorkspace list;
        FlatPlacements out;
        flat_list_schedule(batch, list, out);
        return out;
      });

  const FlatListPolicy policy;
  const auto ws = policy.make_workspace();
  for (const int chunk : {1, 5, 17}) {
    OnlineStream stream;
    stream.open(tape.m, {});
    StreamDelivery delivery;
    std::vector<double> completion;
    std::size_t fed = 0;
    while (fed < tape.arrivals.size()) {
      const auto count = std::min<std::size_t>(
          static_cast<std::size_t>(chunk), tape.arrivals.size() - fed);
      const std::size_t next = fed + count;
      const double watermark = next < tape.arrivals.size()
                                   ? tape.arrivals[next].release
                                   : tape.arrivals.back().release;
      stream.feed(tape.arrivals.data() + fed, count, watermark, policy,
                  *ws, delivery);
      completion.insert(completion.end(), delivery.completion.begin(),
                        delivery.completion.end());
      fed = next;
    }
    stream.finish(policy, *ws, delivery);
    completion.insert(completion.end(), delivery.completion.begin(),
                      delivery.completion.end());
    EXPECT_EQ(completion, reference.completion) << "chunk " << chunk;
    const FlatOnlineResult& result = stream.result();
    EXPECT_EQ(result.cmax, reference.cmax) << "chunk " << chunk;
    EXPECT_EQ(result.batch_starts, reference.batch_starts)
        << "chunk " << chunk;
  }
}

TEST(Trace, MiniTraceReplayEveryPolicyAndPathMatchesTheOfflineSimulator) {
  // The replay gate: the first 80 jobs of the bundled mini-trace (rigid),
  // under DEMT, FlatList and LPT, through a bare OnlineStream fed random
  // 1..8-arrival chunks and through AsyncScheduler sessions fed 8-arrival
  // chunks for shards {1, 2, 4}.
  SwfTrace trace;
  load_swf_file(kMiniTracePath, trace);
  TapeOptions tape_options;
  tape_options.max_jobs = gate::kTraceMaxJobs;
  Tape tape;
  compile_tape(trace, tape_options, tape);
  ASSERT_EQ(tape.jobs_kept(), gate::kTraceMaxJobs);
  std::vector<OnlineJob> jobs;
  for (const StreamArrival& arrival : tape.arrivals) {
    jobs.push_back(OnlineJob{arrival.task, arrival.release});
  }
  const auto watermark_after = [&](std::size_t end) {
    return end < tape.arrivals.size() ? tape.arrivals[end].release
                                      : tape.arrivals.back().release;
  };

  DemtOptions demt;
  demt.shuffles = gate::kStreamShuffles;
  const DemtPolicy demt_policy(demt);
  const FlatListPolicy flat_policy;
  const LptRigidPolicy lpt_policy;
  for (const SchedulingPolicy* policy :
       {static_cast<const SchedulingPolicy*>(&demt_policy),
        static_cast<const SchedulingPolicy*>(&flat_policy),
        static_cast<const SchedulingPolicy*>(&lpt_policy)}) {
    SCOPED_TRACE(policy->name());
    const std::shared_ptr<PolicyWorkspace> oracle_ws(policy->make_workspace());
    const OnlineResult reference = online_batch_schedule_reference(
        tape.m, jobs, [&](const Instance& batch) {
          FlatPlacements out;
          policy->schedule_into(batch, *oracle_ws, out);
          return out;
        });

    {
      SCOPED_TRACE("bare OnlineStream");
      OnlineStream stream;
      stream.open(tape.m, {});
      const auto ws = policy->make_workspace();
      Rng chunk_rng(gate::kSeed ^ 0xC0FFEEULL);
      std::vector<StreamDelivery> deliveries;
      StreamDelivery delivery;
      for (std::size_t fed = 0; fed < tape.arrivals.size();) {
        const auto count = std::min<std::size_t>(
            tape.arrivals.size() - fed,
            static_cast<std::size_t>(
                chunk_rng.uniform_int(1, gate::kTraceChunk)));
        stream.feed(tape.arrivals.data() + fed, count,
                    watermark_after(fed + count), *policy, *ws, delivery);
        deliveries.push_back(delivery);
        fed += count;
      }
      stream.finish(*policy, *ws, delivery);
      deliveries.push_back(delivery);
      gate::expect_replays_reference(deliveries, reference, jobs.size());
    }

    for (const int shards : {1, 2, 4}) {
      SCOPED_TRACE(testing::Message() << "async shards=" << shards);
      AsyncOptions options;
      options.shards = shards;
      options.max_batch = gate::kStreamMaxBatch;
      options.flush_after_ms = 0.5;
      options.queue_capacity = 4096;
      options.max_streams = 8;
      AsyncScheduler async(options);
      StreamConfig config;
      config.m = tape.m;
      config.policy = policy;
      const StreamTicket stream = async.open_stream(config);
      ASSERT_TRUE(stream.accepted());
      std::vector<Ticket> tickets;
      const auto chunk = static_cast<std::size_t>(gate::kTraceChunk);
      for (std::size_t i = 0; i < tape.arrivals.size(); i += chunk) {
        const std::size_t count = std::min(chunk, tape.arrivals.size() - i);
        tickets.push_back(async.submit_stream(stream, tape.arrivals.data() + i,
                                              count,
                                              watermark_after(i + count)));
        ASSERT_TRUE(tickets.back().accepted());
        (void)async.wait(tickets.back());
      }
      tickets.push_back(async.close_stream(stream));
      async.drain();
      std::vector<StreamDelivery> deliveries;
      StreamDelivery delivery;
      for (const Ticket& ticket : tickets) {
        ASSERT_TRUE(ticket.accepted());
        ASSERT_EQ(async.poll(ticket), TicketStatus::Done);
        ASSERT_TRUE(async.take_stream(ticket, delivery));
        deliveries.push_back(delivery);
      }
      gate::expect_replays_reference(deliveries, reference, jobs.size());
    }
  }
}

// ------------------------------------------------------------------ SLO

TEST(Slo, SingleLaneKnownValues) {
  SloAccumulator accumulator;
  accumulator.open(1, 4);
  // (release, min_time, completion): latencies 2, 4, 6, 8; stretches
  // 2, 2, 6, 8.
  accumulator.record(0, 0.0, 1.0, 2.0);
  accumulator.record(0, 1.0, 2.0, 5.0);
  accumulator.record(0, 2.0, 1.0, 8.0);
  accumulator.record(0, 0.0, 1.0, 8.0);
  EXPECT_EQ(accumulator.total_recorded(), 4);
  SloReport report;
  accumulator.report(4.0, report);
  ASSERT_EQ(report.lanes.size(), 1u);
  const SloLaneReport& lane = report.lanes[0];
  EXPECT_EQ(lane.jobs, 4);
  // Percentile convention: sorted, index q * (n - 1).
  EXPECT_EQ(lane.latency.p50, 4.0);   // index 1.5 -> 1 -> value 4
  EXPECT_EQ(lane.latency.p90, 6.0);   // index 2.7 -> 2 -> value 6
  EXPECT_EQ(lane.latency.max, 8.0);
  EXPECT_EQ(lane.mean_latency, 5.0);
  EXPECT_EQ(lane.stretch.max, 8.0);
  // Stretches {2, 2, 6, 8} against target 4: 2 of 4 attained.
  EXPECT_EQ(lane.attainment, 0.5);
  EXPECT_EQ(report.attainment, 0.5);
  EXPECT_EQ(report.target_stretch, 4.0);
}

TEST(Slo, AttainmentRuleIsInclusive) {
  SloAccumulator accumulator;
  accumulator.open(1, 1);
  accumulator.record(0, 0.0, 1.0, 3.0);  // stretch exactly 3
  SloReport report;
  accumulator.report(3.0, report);
  EXPECT_EQ(report.attainment, 1.0);
}

TEST(Slo, LanesPartitionJobsAndClampOutOfRange) {
  SloAccumulator accumulator;
  accumulator.open(2, 4);
  accumulator.record(0, 0.0, 1.0, 1.0);
  accumulator.record(1, 0.0, 1.0, 2.0);
  accumulator.record(1, 0.0, 1.0, 3.0);
  accumulator.record(7, 0.0, 1.0, 4.0);   // clamped into lane 1
  accumulator.record(-2, 0.0, 1.0, 5.0);  // clamped into lane 0
  SloReport report;
  accumulator.report(10.0, report);
  ASSERT_EQ(report.lanes.size(), 2u);
  EXPECT_EQ(report.lanes[0].jobs, 2);
  EXPECT_EQ(report.lanes[1].jobs, 3);
  EXPECT_EQ(report.total_jobs, 5);
  // Job-weighted total attainment: all stretches <= 10.
  EXPECT_EQ(report.attainment, 1.0);
}

TEST(Slo, ReopenResetsCounts) {
  SloAccumulator accumulator;
  accumulator.open(2, 2);
  accumulator.record(0, 0.0, 1.0, 100.0);
  accumulator.open(2, 2);
  EXPECT_EQ(accumulator.total_recorded(), 0);
  SloReport report;
  accumulator.report(1.0, report);
  EXPECT_EQ(report.total_jobs, 0);
  EXPECT_EQ(report.lanes[0].jobs, 0);
  EXPECT_EQ(report.lanes[0].attainment, 1.0);  // vacuous lane
}

TEST(Slo, ContractErrors) {
  SloAccumulator accumulator;
  EXPECT_THROW(accumulator.record(0, 0.0, 1.0, 1.0), std::logic_error);
  EXPECT_THROW(accumulator.open(0, 4), std::invalid_argument);
  accumulator.open(1, 1);
  SloReport report;
  EXPECT_THROW(accumulator.report(0.0, report), std::invalid_argument);
}

}  // namespace
}  // namespace moldsched
