/// Rollback differential harness for speculative frontier decisions
/// (sim/stream.hpp set_speculate): speculation-on is locked bit-identical to
/// speculation-off — every delivery field and the accumulated result —
/// across >1000 seeded tapes x random watermark chunkings of the §5
/// moldable/rigid/divisible mix, including late arrivals landing exactly
/// on a staged batch's open instant; crafted tapes pin the commit,
/// rollback and toggle-off paths individually and assert the speculation
/// counters are not vacuous. The same lock runs through the serving layer
/// (StreamConfig::speculate) for shards {1, 2, 4} x both policies.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/policy.hpp"
#include "gate_workloads.hpp"
#include "serve/async_scheduler.hpp"
#include "sim/online.hpp"
#include "sim/stream.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace moldsched {
namespace {

const FlatListPolicy kFlatList;
const DemtPolicy kDemt;

// ------------------------------------------------------- tape generation

/// A release-sorted arrival tape of the §5 mix. Releases live on a coarse
/// half-unit grid so exact ties — and arrivals landing exactly on a staged
/// batch's open instant, the boundary case of the invalidation rule —
/// occur constantly rather than with probability zero.
struct Tape {
  int m = 1;
  std::vector<StreamArrival> arrivals;
};

Tape make_tape(std::uint64_t seed) {
  Rng rng(seed);
  static const int kMachines[] = {1, 2, 3, 5, 8};
  Tape tape;
  tape.m = kMachines[rng.uniform_int(0, 4)];
  const int count = static_cast<int>(rng.uniform_int(4, 10));
  double release = 0.0;
  for (int i = 0; i < count; ++i) {
    if (i > 0 && !rng.bernoulli(0.35)) {
      release += 0.5 * static_cast<double>(rng.uniform_int(1, 4));
    }
    const double roll = rng.uniform();
    if (roll < 0.55) {
      Instance tmp = generate_instance(WorkloadFamily::Mixed, 1, tape.m, rng);
      tape.arrivals.push_back(moldable_arrival(tmp.task(0), release));
    } else if (roll < 0.80) {
      const int procs = static_cast<int>(rng.uniform_int(1, tape.m));
      tape.arrivals.push_back(rigid_arrival(procs, rng.uniform(0.2, 2.0),
                                            rng.uniform(0.5, 3.0), release));
    } else {
      tape.arrivals.push_back(divisible_arrival(
          rng.uniform(0.5, 6.0), rng.uniform(0.5, 3.0), release));
    }
  }
  return tape;
}

/// One feed call: arrivals [begin, end) plus the watermark to advance to.
struct FeedStep {
  std::size_t begin = 0;
  std::size_t end = 0;
  double watermark = 0.0;
};

/// Chunk a tape into a random feed plan. Watermarks are drawn from the
/// legal interval [last release fed, next release]: the low edge leaves
/// open batches undecided (speculation territory — the next arrival can
/// still tie the open instant exactly and force a rollback), the high edge
/// confirms everything fed so far. Empty feeds (watermark-only) ride
/// along.
std::vector<FeedStep> plan_chunks(const Tape& tape, Rng& rng) {
  std::vector<FeedStep> plan;
  const std::size_t total = tape.arrivals.size();
  std::size_t i = 0;
  double watermark = 0.0;
  bool last_was_empty = false;
  while (i < total) {
    std::size_t take =
        static_cast<std::size_t>(rng.uniform_int(last_was_empty ? 1 : 0, 3));
    take = std::min(take, total - i);
    const std::size_t end = i + take;
    double lo = watermark;
    if (end > i) lo = std::max(lo, tape.arrivals[end - 1].release);
    double hi = end < total ? tape.arrivals[end].release : lo + 1.0;
    hi = std::max(hi, lo);
    double wm = lo;
    switch (rng.uniform_int(0, 2)) {
      case 0: wm = lo; break;
      case 1: wm = hi; break;
      default: wm = lo + (hi - lo) * rng.uniform(); break;
    }
    plan.push_back(FeedStep{i, end, wm});
    watermark = wm;
    last_was_empty = take == 0;
    i = end;
  }
  return plan;
}

// --------------------------------------------------- exact comparators

void expect_identical_delivery(const StreamDelivery& a,
                               const StreamDelivery& b) {
  EXPECT_EQ(a.first_job, b.first_job);
  gate::expect_identical_placements(a.placements, b.placements);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.batch_starts, b.batch_starts);
  ASSERT_EQ(a.chunks.size(), b.chunks.size());
  for (std::size_t c = 0; c < a.chunks.size(); ++c) {
    EXPECT_EQ(a.chunks[c].job, b.chunks[c].job) << "chunk " << c;
    EXPECT_EQ(a.chunks[c].proc, b.chunks[c].proc) << "chunk " << c;
    EXPECT_EQ(a.chunks[c].start, b.chunks[c].start) << "chunk " << c;
    EXPECT_EQ(a.chunks[c].duration, b.chunks[c].duration) << "chunk " << c;
  }
  EXPECT_EQ(a.divisible_done, b.divisible_done);
  EXPECT_EQ(a.divisible_completion, b.divisible_completion);
  EXPECT_EQ(a.final_delivery, b.final_delivery);
  EXPECT_EQ(a.cmax, b.cmax);
  EXPECT_EQ(a.weighted_completion_sum, b.weighted_completion_sum);
  EXPECT_EQ(a.weighted_flow_sum, b.weighted_flow_sum);
  EXPECT_EQ(a.divisible_weighted_completion_sum,
            b.divisible_weighted_completion_sum);
  EXPECT_EQ(a.num_batches, b.num_batches);
}

void expect_identical_deliveries(const std::vector<StreamDelivery>& a,
                                 const std::vector<StreamDelivery>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t d = 0; d < a.size(); ++d) {
    SCOPED_TRACE(testing::Message() << "delivery " << d);
    expect_identical_delivery(a[d], b[d]);
  }
}

void expect_identical_result(const FlatOnlineResult& a,
                             const FlatOnlineResult& b) {
  gate::expect_identical_placements(a.schedule, b.schedule);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.flow, b.flow);
  EXPECT_EQ(a.cmax, b.cmax);
  EXPECT_EQ(a.weighted_completion_sum, b.weighted_completion_sum);
  EXPECT_EQ(a.weighted_flow_sum, b.weighted_flow_sum);
  EXPECT_EQ(a.num_batches, b.num_batches);
  EXPECT_EQ(a.batch_starts, b.batch_starts);
}

// ----------------------------------------------------------- tape runner

struct RunOutput {
  std::vector<StreamDelivery> deliveries;
  FlatOnlineResult result;
  std::uint64_t decided = 0;
  std::uint64_t committed = 0;
  std::uint64_t rolled_back = 0;
};

RunOutput run_tape(const Tape& tape, const std::vector<FeedStep>& plan,
                   bool speculate, const SchedulingPolicy& policy,
                   PolicyWorkspace& policy_ws) {
  OnlineStream stream;
  stream.open(tape.m, {});
  stream.set_speculate(speculate);
  EXPECT_EQ(stream.speculate(), speculate);
  RunOutput out;
  StreamDelivery delivery;
  for (const FeedStep& step : plan) {
    stream.feed(tape.arrivals.data() + step.begin, step.end - step.begin,
                step.watermark, policy, policy_ws, delivery);
    out.deliveries.push_back(delivery);
  }
  stream.finish(policy, policy_ws, delivery);
  EXPECT_TRUE(delivery.final_delivery);
  out.deliveries.push_back(delivery);
  out.result = stream.result();
  out.decided = stream.speculated_batches();
  out.committed = stream.committed_speculations();
  out.rolled_back = stream.rolled_back_speculations();
  return out;
}

// ------------------------------------------------- differential fuzzing

TEST(Speculation, FuzzedTapesAndChunkingsAreBitIdentical) {
  std::uint64_t total_decided = 0;
  std::uint64_t total_committed = 0;
  std::uint64_t total_rolled_back = 0;
  int runs = 0;
  const auto ws = kFlatList.make_workspace();
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const Tape tape = make_tape(seed);
    for (std::uint64_t chunking = 0; chunking < 3; ++chunking) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << " chunking " << chunking);
      Rng plan_rng(seed * 1000 + chunking);
      const std::vector<FeedStep> plan = plan_chunks(tape, plan_rng);
      const RunOutput off = run_tape(tape, plan, false, kFlatList, *ws);
      const RunOutput on = run_tape(tape, plan, true, kFlatList, *ws);
      expect_identical_deliveries(off.deliveries, on.deliveries);
      expect_identical_result(off.result, on.result);
      EXPECT_EQ(off.decided, 0u);
      EXPECT_EQ(off.committed, 0u);
      EXPECT_EQ(off.rolled_back, 0u);
      total_decided += on.decided;
      total_committed += on.committed;
      total_rolled_back += on.rolled_back;
      ++runs;
    }
  }
  // The differential is meaningless if speculation never fires: across the
  // fuzz corpus stages, commits and rollbacks must all have happened.
  EXPECT_GE(runs, 1000);
  EXPECT_GT(total_decided, 0u);
  EXPECT_GT(total_committed, 0u);
  EXPECT_GT(total_rolled_back, 0u);
}

TEST(Speculation, PolicyFeedFormIsBitIdentical) {
  const DemtPolicy demt_policy;
  const FlatListPolicy flat_policy;
  const SchedulingPolicy* policies[] = {&flat_policy, &demt_policy};
  for (const SchedulingPolicy* policy : policies) {
    const auto off_ws = policy->make_workspace();
    const auto on_ws = policy->make_workspace();
    for (std::uint64_t seed = 500; seed < 540; ++seed) {
      SCOPED_TRACE(testing::Message()
                   << policy->name() << " seed " << seed);
      const Tape tape = make_tape(seed);
      Rng plan_rng(seed);
      const std::vector<FeedStep> plan = plan_chunks(tape, plan_rng);
      const RunOutput off = run_tape(tape, plan, false, *policy, *off_ws);
      const RunOutput on = run_tape(tape, plan, true, *policy, *on_ws);
      expect_identical_deliveries(off.deliveries, on.deliveries);
      expect_identical_result(off.result, on.result);
    }
  }
}

// ------------------------------------------------- crafted boundary tapes

TEST(Speculation, WatermarkConfirmationCommitsStagedDecision) {
  OnlineStream stream;
  stream.open(4, {});
  stream.set_speculate(true);
  const auto ws = kFlatList.make_workspace();
  StreamDelivery out;
  const StreamArrival a = rigid_arrival(2, 1.0, 1.0, 0.0);
  // Watermark == open instant: the batch is not final, but speculation
  // decides it anyway and stages the decision off to the side.
  stream.feed(&a, 1, 0.0, kFlatList, *ws, out);
  EXPECT_EQ(out.num_jobs(), 0);
  EXPECT_EQ(stream.speculated_batches(), 1u);
  EXPECT_EQ(stream.committed_speculations(), 0u);
  EXPECT_EQ(stream.batch_jobs_decided(), 0);
  // The confirming watermark commits the staged record without re-deciding.
  stream.feed(nullptr, 0, 2.0, kFlatList, *ws, out);
  EXPECT_EQ(out.num_jobs(), 1);
  EXPECT_EQ(stream.committed_speculations(), 1u);
  EXPECT_EQ(stream.rolled_back_speculations(), 0u);
  EXPECT_EQ(out.placements.start[0], 0.0);
  EXPECT_EQ(out.placements.duration[0], 1.0);
  stream.finish(kFlatList, *ws, out);
  EXPECT_EQ(stream.result().cmax, 1.0);
}

TEST(Speculation, LateArrivalExactlyOnOpenRollsBack) {
  const auto ws = kFlatList.make_workspace();
  const StreamArrival a = rigid_arrival(2, 1.0, 2.0, 0.0);
  const StreamArrival b = rigid_arrival(1, 2.0, 1.0, 0.0);  // ties the open

  OnlineStream spec;
  spec.open(4, {});
  spec.set_speculate(true);
  StreamDelivery out;
  spec.feed(&a, 1, 0.0, kFlatList, *ws, out);
  EXPECT_EQ(spec.speculated_batches(), 1u);
  // b releases exactly on the staged batch's open instant — it belongs to
  // that batch, so the stage must roll back and the batch re-decides with
  // both members.
  spec.feed(&b, 1, 0.0, kFlatList, *ws, out);
  EXPECT_EQ(spec.rolled_back_speculations(), 1u);
  // The same feed immediately re-speculates the merged {a, b} batch...
  EXPECT_EQ(spec.speculated_batches(), 2u);
  spec.finish(kFlatList, *ws, out);
  // ...which finish() then confirms.
  EXPECT_EQ(spec.committed_speculations(), 1u);

  OnlineStream plain;
  plain.open(4, {});
  StreamDelivery plain_out;
  plain.feed(&a, 1, 0.0, kFlatList, *ws, plain_out);
  plain.feed(&b, 1, 0.0, kFlatList, *ws, plain_out);
  plain.finish(kFlatList, *ws, plain_out);
  expect_identical_result(plain.result(), spec.result());
  EXPECT_EQ(spec.result().num_batches, 1);
}

TEST(Speculation, TogglingOffRollsBackStagedRecords) {
  const auto ws = kFlatList.make_workspace();
  const StreamArrival a = rigid_arrival(1, 1.0, 1.0, 0.0);
  OnlineStream stream;
  stream.open(2, {});
  stream.set_speculate(true);
  StreamDelivery out;
  stream.feed(&a, 1, 0.0, kFlatList, *ws, out);
  EXPECT_EQ(stream.speculated_batches(), 1u);
  stream.set_speculate(false);
  EXPECT_EQ(stream.rolled_back_speculations(), 1u);
  EXPECT_FALSE(stream.speculate());
  stream.finish(kFlatList, *ws, out);
  EXPECT_EQ(stream.committed_speculations(), 0u);
  EXPECT_EQ(out.num_jobs(), 1);
  EXPECT_EQ(stream.result().cmax, 1.0);
}

TEST(Speculation, SparseWatermarkChainsMultipleStagedBatches) {
  // Distinct release instants fed together under a held-back watermark:
  // speculation must chain several staged batches (each building on the
  // previous record's frontier and divisible residue), then commit them
  // all when the watermark finally advances.
  const auto ws = kFlatList.make_workspace();
  std::vector<StreamArrival> arrivals = {
      rigid_arrival(2, 1.0, 1.0, 0.0),
      divisible_arrival(3.0, 1.0, 0.0),
      rigid_arrival(1, 0.5, 2.0, 4.0),
      rigid_arrival(2, 0.75, 1.0, 8.0),
  };
  OnlineStream spec;
  spec.open(2, {});
  spec.set_speculate(true);
  StreamDelivery out;
  spec.feed(arrivals.data(), arrivals.size(), 8.0, kFlatList, *ws, out);
  // Batches at 0 and 4 are final (watermark 8 passed them); the batch at 8
  // is staged speculatively.
  EXPECT_EQ(spec.batch_jobs_decided(), 2);
  EXPECT_GE(spec.speculated_batches(), 1u);
  spec.feed(nullptr, 0, 9.0, kFlatList, *ws, out);
  EXPECT_EQ(spec.batch_jobs_decided(), 3);
  EXPECT_GE(spec.committed_speculations(), 1u);
  spec.finish(kFlatList, *ws, out);

  OnlineStream plain;
  plain.open(2, {});
  StreamDelivery plain_out;
  plain.feed(arrivals.data(), arrivals.size(), 8.0, kFlatList, *ws,
             plain_out);
  plain.feed(nullptr, 0, 9.0, kFlatList, *ws, plain_out);
  plain.finish(kFlatList, *ws, plain_out);
  expect_identical_result(plain.result(), spec.result());
}

// ----------------------------------------------------------- serve lock

TEST(Speculation, EngineStreamSpeculationIsBitIdenticalAndCounted) {
  // One shard serves every stream in turn, so sessions are recycled
  // through its free list between speculating and plain streams.
  AsyncOptions options;
  options.flush_after_ms = 0.0;
  AsyncScheduler async(options);
  for (std::uint64_t seed = 600; seed < 620; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const Tape tape = make_tape(seed);
    Rng plan_rng(seed);
    const std::vector<FeedStep> plan = plan_chunks(tape, plan_rng);
    std::vector<StreamDelivery> off_deliveries;
    std::vector<StreamDelivery> on_deliveries;
    for (const bool speculate : {false, true}) {
      StreamConfig config;
      config.m = tape.m;
      config.policy = &kFlatList;
      config.speculate = speculate;
      const StreamTicket stream = async.open_stream(config);
      ASSERT_TRUE(stream.accepted());
      std::vector<Ticket> tickets;
      for (const FeedStep& step : plan) {
        tickets.push_back(async.submit_stream(
            stream, tape.arrivals.data() + step.begin, step.end - step.begin,
            step.watermark));
      }
      tickets.push_back(async.close_stream(stream));
      StreamDelivery out;
      auto& sink = speculate ? on_deliveries : off_deliveries;
      for (const Ticket& ticket : tickets) {
        ASSERT_EQ(async.wait(ticket), TicketStatus::Done)
            << async.error(ticket);
        ASSERT_TRUE(async.take_stream(ticket, out));
        sink.push_back(out);
      }
    }
    expect_identical_deliveries(off_deliveries, on_deliveries);
  }
  const AsyncStats stats = async.stats();
  EXPECT_GT(stats.spec_decided, 0u);
  EXPECT_GT(stats.spec_committed, 0u);
  EXPECT_EQ(stats.spec_decided, stats.spec_committed + stats.spec_rolled_back);
}

TEST(Speculation, ServeLayerIsBitIdenticalAcrossShardsAndPolicies) {
  const Tape tape = make_tape(901);
  Rng plan_rng(901);
  const std::vector<FeedStep> plan = plan_chunks(tape, plan_rng);
  for (int shards : {1, 2, 4}) {
    for (const bool use_demt : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "shards " << shards << (use_demt ? " demt" : " flat"));
      std::vector<StreamDelivery> per_mode[2];
      std::uint64_t on_decided = 0;
      for (const bool speculate : {false, true}) {
        AsyncOptions options;
        options.shards = shards;
        options.flush_after_ms = 0.1;
        AsyncScheduler async(options);
        StreamConfig stream_config;
        stream_config.m = tape.m;
        stream_config.policy =
            use_demt ? static_cast<const SchedulingPolicy*>(&kDemt)
                     : &kFlatList;
        stream_config.speculate = speculate;
        const StreamTicket stream = async.open_stream(stream_config);
        ASSERT_TRUE(stream.accepted());
        std::vector<Ticket> tickets;
        for (const FeedStep& step : plan) {
          tickets.push_back(async.submit_stream(
              stream, tape.arrivals.data() + step.begin,
              step.end - step.begin, step.watermark));
          ASSERT_TRUE(tickets.back().accepted());
        }
        tickets.push_back(async.close_stream(stream));
        ASSERT_TRUE(tickets.back().accepted());
        async.drain();
        StreamDelivery delivery;
        for (const Ticket& ticket : tickets) {
          ASSERT_EQ(async.wait(ticket), TicketStatus::Done);
          ASSERT_TRUE(async.take_stream(ticket, delivery));
          per_mode[speculate ? 1 : 0].push_back(delivery);
        }
        const AsyncStats stats = async.stats();
        if (speculate) {
          on_decided = stats.spec_decided;
          EXPECT_EQ(stats.spec_decided,
                    stats.spec_committed + stats.spec_rolled_back);
        } else {
          EXPECT_EQ(stats.spec_decided, 0u);
        }
      }
      expect_identical_deliveries(per_mode[0], per_mode[1]);
      EXPECT_GT(on_decided, 0u);
    }
  }
}

TEST(Speculation, SparseWatermarkServeTapeIsBitIdenticalAndFires) {
  // The sparse-watermark gate tape (6 feeds x 48 DEMT arrivals, m=32):
  // each feed's batch only becomes final at the next feed, so with
  // speculation on every decision is staged first and committed later.
  const std::vector<gate::SparseFeed> tape = gate::sparse_watermark_tape();
  DemtOptions demt;
  demt.shuffles = gate::kShuffles;
  const DemtPolicy policy(demt);
  AsyncOptions options;
  options.max_batch = gate::kServeMaxBatch;
  options.flush_after_ms = 0.0;
  options.queue_capacity = 8;
  options.max_streams = 4;
  AsyncScheduler async(options);
  std::vector<StreamDelivery> per_mode[2];
  for (const bool speculate : {false, true}) {
    StreamConfig config;
    config.m = gate::kM;
    config.policy = &policy;
    config.speculate = speculate;
    const StreamTicket stream = async.open_stream(config);
    ASSERT_TRUE(stream.accepted());
    StreamDelivery delivery;
    for (const gate::SparseFeed& feed : tape) {
      const Ticket ticket = async.submit_stream(
          stream, feed.arrivals.data(), feed.arrivals.size(), feed.watermark);
      ASSERT_TRUE(ticket.accepted());
      ASSERT_EQ(async.wait(ticket), TicketStatus::Done);
      ASSERT_TRUE(async.take_stream(ticket, delivery));
      per_mode[speculate ? 1 : 0].push_back(delivery);
    }
    const Ticket close = async.close_stream(stream);
    ASSERT_TRUE(close.accepted());
    ASSERT_EQ(async.wait(close), TicketStatus::Done);
    ASSERT_TRUE(async.take_stream(close, delivery));
    per_mode[speculate ? 1 : 0].push_back(delivery);
  }
  expect_identical_deliveries(per_mode[0], per_mode[1]);
  const AsyncStats stats = async.stats();
  EXPECT_GT(stats.spec_decided, 0u);
  EXPECT_GT(stats.spec_committed, 0u);
}

}  // namespace
}  // namespace moldsched
