/// Rollback differential harness for speculative frontier decisions
/// (sim/stream.hpp set_speculate) and the warm-started dual search
/// (dualapprox WarmDualBounds): speculation-on is locked bit-identical to
/// speculation-off — every delivery field and the accumulated result —
/// across >1000 seeded tapes x random watermark chunkings of the §5
/// moldable/rigid/divisible mix, including late arrivals landing exactly
/// on a staged batch's open instant; crafted tapes pin the commit,
/// rollback, toggle-off and checkpoint/restore paths individually and
/// assert the speculation counters are not vacuous. The same lock runs
/// through the engine and the serving layer (StreamConfig::speculate on
/// both) for shards {1, 2, 4} x both policies. The warm-start side
/// extends the dual-test call-count regression: a warm-seeded search
/// replays the cold trajectory bit-identically (estimate, lower bound,
/// partition, schedules) while performing strictly fewer dual tests on
/// consecutive near-identical batches, and falls back to exactly the cold
/// search (same call count) on its first use.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/demt.hpp"
#include "core/policy.hpp"
#include "dualapprox/cmax_estimator.hpp"
#include "dualapprox/dual_test.hpp"
#include "engine/engine.hpp"
#include "serve/async_scheduler.hpp"
#include "sim/checkpoint.hpp"
#include "sim/online.hpp"
#include "sim/stream.hpp"
#include "tasks/allotment_table.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace moldsched {
namespace {

const FlatListPolicy kFlatList;
const DemtPolicy kDemt;

FlatOfflineScheduler flat_offline() {
  return [](const Instance& batch, OnlineWorkspace& ws,
            FlatPlacements& out) { flat_list_schedule(batch, ws.list, out); };
}

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

void expect_identical_placements(const FlatPlacements& a,
                                 const FlatPlacements& b) {
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.proc_begin, b.proc_begin);
  EXPECT_EQ(a.proc_count, b.proc_count);
  EXPECT_EQ(a.proc_ids, b.proc_ids);
}

void expect_identical_delivery(const StreamDelivery& a,
                               const StreamDelivery& b) {
  EXPECT_EQ(a.first_job, b.first_job);
  expect_identical_placements(a.placements, b.placements);
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
  expect_identical_placements(a.schedule, b.schedule);
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
                   bool speculate,
                   const SchedulingPolicy* policy = nullptr,
                   PolicyWorkspace* policy_ws = nullptr) {
  OnlineStream stream;
  stream.open(tape.m, {});
  stream.set_speculate(speculate);
  EXPECT_EQ(stream.speculate(), speculate);
  const FlatOfflineScheduler offline = flat_offline();
  RunOutput out;
  StreamDelivery delivery;
  for (const FeedStep& step : plan) {
    if (policy != nullptr) {
      stream.feed(tape.arrivals.data() + step.begin, step.end - step.begin,
                  step.watermark, *policy, *policy_ws, delivery);
    } else {
      stream.feed(tape.arrivals.data() + step.begin, step.end - step.begin,
                  step.watermark, offline, delivery);
    }
    out.deliveries.push_back(delivery);
  }
  if (policy != nullptr) {
    stream.finish(*policy, *policy_ws, delivery);
  } else {
    stream.finish(offline, delivery);
  }
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
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const Tape tape = make_tape(seed);
    for (std::uint64_t chunking = 0; chunking < 3; ++chunking) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << " chunking " << chunking);
      Rng plan_rng(seed * 1000 + chunking);
      const std::vector<FeedStep> plan = plan_chunks(tape, plan_rng);
      const RunOutput off = run_tape(tape, plan, false);
      const RunOutput on = run_tape(tape, plan, true);
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
      const RunOutput off = run_tape(tape, plan, false, policy, off_ws.get());
      const RunOutput on = run_tape(tape, plan, true, policy, on_ws.get());
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
  const FlatOfflineScheduler offline = flat_offline();
  StreamDelivery out;
  const StreamArrival a = rigid_arrival(2, 1.0, 1.0, 0.0);
  // Watermark == open instant: the batch is not final, but speculation
  // decides it anyway and stages the decision off to the side.
  stream.feed(&a, 1, 0.0, offline, out);
  EXPECT_EQ(out.num_jobs(), 0);
  EXPECT_EQ(stream.speculated_batches(), 1u);
  EXPECT_EQ(stream.committed_speculations(), 0u);
  EXPECT_EQ(stream.batch_jobs_decided(), 0);
  // The confirming watermark commits the staged record without re-deciding.
  stream.feed(nullptr, 0, 2.0, offline, out);
  EXPECT_EQ(out.num_jobs(), 1);
  EXPECT_EQ(stream.committed_speculations(), 1u);
  EXPECT_EQ(stream.rolled_back_speculations(), 0u);
  EXPECT_EQ(out.placements.start[0], 0.0);
  EXPECT_EQ(out.placements.duration[0], 1.0);
  stream.finish(offline, out);
  EXPECT_EQ(stream.result().cmax, 1.0);
}

TEST(Speculation, LateArrivalExactlyOnOpenRollsBack) {
  const FlatOfflineScheduler offline = flat_offline();
  const StreamArrival a = rigid_arrival(2, 1.0, 2.0, 0.0);
  const StreamArrival b = rigid_arrival(1, 2.0, 1.0, 0.0);  // ties the open

  OnlineStream spec;
  spec.open(4, {});
  spec.set_speculate(true);
  StreamDelivery out;
  spec.feed(&a, 1, 0.0, offline, out);
  EXPECT_EQ(spec.speculated_batches(), 1u);
  // b releases exactly on the staged batch's open instant — it belongs to
  // that batch, so the stage must roll back and the batch re-decides with
  // both members.
  spec.feed(&b, 1, 0.0, offline, out);
  EXPECT_EQ(spec.rolled_back_speculations(), 1u);
  // The same feed immediately re-speculates the merged {a, b} batch...
  EXPECT_EQ(spec.speculated_batches(), 2u);
  spec.finish(offline, out);
  // ...which finish() then confirms.
  EXPECT_EQ(spec.committed_speculations(), 1u);

  OnlineStream plain;
  plain.open(4, {});
  StreamDelivery plain_out;
  plain.feed(&a, 1, 0.0, offline, plain_out);
  plain.feed(&b, 1, 0.0, offline, plain_out);
  plain.finish(offline, plain_out);
  expect_identical_result(plain.result(), spec.result());
  EXPECT_EQ(spec.result().num_batches, 1);
}

TEST(Speculation, TogglingOffRollsBackStagedRecords) {
  const FlatOfflineScheduler offline = flat_offline();
  const StreamArrival a = rigid_arrival(1, 1.0, 1.0, 0.0);
  OnlineStream stream;
  stream.open(2, {});
  stream.set_speculate(true);
  StreamDelivery out;
  stream.feed(&a, 1, 0.0, offline, out);
  EXPECT_EQ(stream.speculated_batches(), 1u);
  stream.set_speculate(false);
  EXPECT_EQ(stream.rolled_back_speculations(), 1u);
  EXPECT_FALSE(stream.speculate());
  stream.finish(offline, out);
  EXPECT_EQ(stream.committed_speculations(), 0u);
  EXPECT_EQ(out.num_jobs(), 1);
  EXPECT_EQ(stream.result().cmax, 1.0);
}

TEST(Speculation, CheckpointCarriesConfirmedStateOnly) {
  const Tape tape = make_tape(77);
  Rng plan_rng(77);
  const std::vector<FeedStep> plan = plan_chunks(tape, plan_rng);
  const FlatOfflineScheduler offline = flat_offline();

  // Run the first half speculating, checkpoint mid-stream (staged records
  // may be live), and resume the second half on a restored session.
  OnlineStream original;
  original.open(tape.m, {});
  original.set_speculate(true);
  StreamDelivery out;
  const std::size_t half = plan.size() / 2;
  for (std::size_t f = 0; f < half; ++f) {
    original.feed(tape.arrivals.data() + plan[f].begin,
                  plan[f].end - plan[f].begin, plan[f].watermark, offline,
                  out);
  }
  StreamCheckpoint ckpt;
  original.checkpoint(ckpt);

  OnlineStream restored;
  restored.restore(ckpt);
  EXPECT_FALSE(restored.speculate());  // restore resets to off
  restored.set_speculate(true);

  std::vector<StreamDelivery> original_tail;
  std::vector<StreamDelivery> restored_tail;
  for (std::size_t f = half; f < plan.size(); ++f) {
    original.feed(tape.arrivals.data() + plan[f].begin,
                  plan[f].end - plan[f].begin, plan[f].watermark, offline,
                  out);
    original_tail.push_back(out);
    restored.feed(tape.arrivals.data() + plan[f].begin,
                  plan[f].end - plan[f].begin, plan[f].watermark, offline,
                  out);
    restored_tail.push_back(out);
  }
  original.finish(offline, out);
  original_tail.push_back(out);
  restored.finish(offline, out);
  restored_tail.push_back(out);
  expect_identical_deliveries(original_tail, restored_tail);
}

TEST(Speculation, SparseWatermarkChainsMultipleStagedBatches) {
  // Distinct release instants fed together under a held-back watermark:
  // speculation must chain several staged batches (each building on the
  // previous record's frontier and divisible residue), then commit them
  // all when the watermark finally advances.
  const FlatOfflineScheduler offline = flat_offline();
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
  spec.feed(arrivals.data(), arrivals.size(), 8.0, offline, out);
  // Batches at 0 and 4 are final (watermark 8 passed them); the batch at 8
  // is staged speculatively.
  EXPECT_EQ(spec.batch_jobs_decided(), 2);
  EXPECT_GE(spec.speculated_batches(), 1u);
  spec.feed(nullptr, 0, 9.0, offline, out);
  EXPECT_EQ(spec.batch_jobs_decided(), 3);
  EXPECT_GE(spec.committed_speculations(), 1u);
  spec.finish(offline, out);

  OnlineStream plain;
  plain.open(2, {});
  StreamDelivery plain_out;
  plain.feed(arrivals.data(), arrivals.size(), 8.0, offline, plain_out);
  plain.feed(nullptr, 0, 9.0, offline, plain_out);
  plain.finish(offline, plain_out);
  expect_identical_result(plain.result(), spec.result());
}

// ------------------------------------------------------ depth cap

/// Live staged records = decided - committed - rolled back.
std::uint64_t live_staged(const OnlineStream& stream) {
  return stream.speculated_batches() - stream.committed_speculations() -
         stream.rolled_back_speculations();
}

TEST(Speculation, DepthBudgetPreservesDeliveriesAndCounters) {
  // The budget never changes what a stream delivers: a stage, a commit,
  // and a re-stage after the frontier advances look the same at every
  // depth (the commit refreshes the budget).
  const FlatOfflineScheduler offline = flat_offline();
  std::vector<StreamArrival> arrivals;
  for (int i = 0; i < 3; ++i) {
    arrivals.push_back(rigid_arrival(2, 1.0, 1.0, 0.0));
  }
  const StreamArrival late = rigid_arrival(1, 2.0, 1.0, 10.0);
  std::vector<FlatOnlineResult> results;
  for (const int depth : {0, 1, 2, 100}) {
    SCOPED_TRACE(testing::Message() << "depth " << depth);
    OnlineStream stream;
    stream.open(2, {});
    stream.set_speculate(true);
    stream.set_speculate_depth(depth);
    EXPECT_EQ(stream.speculate_depth(), depth);
    StreamDelivery out;
    // Releases tie the watermark, so the batch is not final: it is staged
    // speculatively (one record absorbs every tying arrival).
    stream.feed(arrivals.data(), arrivals.size(), 0.0, offline, out);
    EXPECT_EQ(out.num_jobs(), 0);
    EXPECT_EQ(live_staged(stream), 1u);
    // The confirming watermark commits the stage and refreshes the budget,
    // so the next held-back arrival stages again even at depth 1.
    stream.feed(&late, 1, 10.0, offline, out);
    EXPECT_EQ(out.num_jobs(), 3);
    EXPECT_EQ(stream.committed_speculations(), 1u);
    EXPECT_EQ(live_staged(stream), 1u);
    stream.finish(offline, out);
    EXPECT_EQ(stream.committed_speculations(), 2u);
    EXPECT_EQ(stream.rolled_back_speculations(), 0u);
    results.push_back(stream.result());
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    expect_identical_result(results[0], results[i]);
  }
  OnlineStream stream;
  stream.open(2, {});
  EXPECT_THROW(stream.set_speculate_depth(-1), std::invalid_argument);
}

TEST(Speculation, ChangingDepthMidStreamTakesEffectImmediately) {
  // Tightening the budget below what is already spent at the current
  // frontier suppresses re-staging; widening it back re-enables staging at
  // the next feed. The schedule never changes.
  const FlatOfflineScheduler offline = flat_offline();
  auto tie = [](double weight) { return rigid_arrival(1, 1.0, weight, 0.0); };
  const StreamArrival a = tie(1.0), b = tie(2.0), c = tie(3.0), d = tie(4.0),
                      e = tie(5.0);
  OnlineStream stream;
  stream.open(2, {});
  stream.set_speculate(true);
  StreamDelivery out;
  stream.feed(&a, 1, 0.0, offline, out);     // stages {a}
  EXPECT_EQ(stream.speculated_batches(), 1u);
  stream.feed(&b, 1, 0.0, offline, out);     // rolls back, re-stages {a,b}
  EXPECT_EQ(stream.speculated_batches(), 2u);
  EXPECT_EQ(stream.rolled_back_speculations(), 1u);
  EXPECT_EQ(live_staged(stream), 1u);
  // Two stages already spent at this frontier: a budget of one suppresses
  // any further staging until a batch becomes final.
  stream.set_speculate_depth(1);
  stream.feed(&c, 1, 0.0, offline, out);     // rolls back, does NOT re-stage
  EXPECT_EQ(stream.speculated_batches(), 2u);
  EXPECT_EQ(stream.rolled_back_speculations(), 2u);
  EXPECT_EQ(live_staged(stream), 0u);
  stream.feed(&d, 1, 0.0, offline, out);     // still suppressed
  EXPECT_EQ(stream.speculated_batches(), 2u);
  stream.set_speculate_depth(0);             // back to unlimited
  stream.feed(&e, 1, 0.0, offline, out);     // stages {a..e}
  EXPECT_EQ(stream.speculated_batches(), 3u);
  EXPECT_EQ(live_staged(stream), 1u);
  stream.feed(nullptr, 0, 10.0, offline, out);
  EXPECT_EQ(out.num_jobs(), 5);
  EXPECT_EQ(stream.committed_speculations(), 1u);
  stream.finish(offline, out);

  OnlineStream plain;
  plain.open(2, {});
  StreamDelivery plain_out;
  for (const StreamArrival* arr : {&a, &b, &c, &d, &e}) {
    plain.feed(arr, 1, 0.0, offline, plain_out);
  }
  plain.feed(nullptr, 0, 10.0, offline, plain_out);
  plain.finish(offline, plain_out);
  expect_identical_result(plain.result(), stream.result());
}

TEST(Speculation, DepthBoundsWastedWorkOnRollbackHeavyTape) {
  // Rollback-heavy tape: every group of arrivals ties the open watermark,
  // so each new arrival invalidates the staged batch and an unbounded
  // stream immediately re-stages the merged batch — two wasted decisions
  // per group. Depth 1 stages each group once, wasting at most one
  // decision per real batch. Deliveries are bit-identical throughout.
  const FlatOfflineScheduler offline = flat_offline();
  constexpr int kGroups = 5;
  struct Step {
    StreamArrival arrival;
    double watermark;
  };
  std::vector<Step> steps;
  for (int group = 0; group < kGroups; ++group) {
    const double base = 10.0 * group;
    for (int i = 0; i < 3; ++i) {
      steps.push_back(
          Step{rigid_arrival(2, 1.0, 1.0 + static_cast<double>(i), base),
               base});
    }
  }

  std::vector<StreamDelivery> per_depth[2];
  std::uint64_t rolled_back[2] = {0, 0};
  std::uint64_t decided[2] = {0, 0};
  std::uint64_t committed[2] = {0, 0};
  for (const int depth : {0, 1}) {
    OnlineStream stream;
    stream.open(2, {});
    stream.set_speculate(true);
    stream.set_speculate_depth(depth);
    StreamDelivery out;
    for (const Step& step : steps) {
      stream.feed(&step.arrival, 1, step.watermark, offline, out);
      per_depth[depth].push_back(out);
      EXPECT_LE(live_staged(stream), 1u);
    }
    stream.finish(offline, out);
    per_depth[depth].push_back(out);
    rolled_back[depth] = stream.rolled_back_speculations();
    decided[depth] = stream.speculated_batches();
    committed[depth] = stream.committed_speculations();
  }
  expect_identical_deliveries(per_depth[0], per_depth[1]);
  // Unlimited: stage, roll back + re-stage twice per group (three
  // decisions, two wasted), commit the survivor.
  EXPECT_EQ(decided[0], 3u * kGroups);
  EXPECT_EQ(rolled_back[0], 2u * kGroups);
  EXPECT_EQ(committed[0], static_cast<std::uint64_t>(kGroups));
  // Depth 1: one stage per group; once the first late arrival rolls it
  // back the budget is spent and the batch is decided fresh instead —
  // wasted work bounded at depth decisions per real batch.
  EXPECT_EQ(decided[1], static_cast<std::uint64_t>(kGroups));
  EXPECT_EQ(rolled_back[1], static_cast<std::uint64_t>(kGroups));
  EXPECT_LT(decided[1], decided[0]);
}

// --------------------------------------------------- engine + serve lock

TEST(Speculation, EngineStreamSpeculationIsBitIdenticalAndCounted) {
  SchedulerEngine engine(EngineOptions{1, false});
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
      const EngineStreamId id = engine.open_stream(config);
      StreamDelivery out;
      auto& sink = speculate ? on_deliveries : off_deliveries;
      for (const FeedStep& step : plan) {
        engine.feed_stream(id, tape.arrivals.data() + step.begin,
                           step.end - step.begin, step.watermark, out);
        sink.push_back(out);
      }
      engine.close_stream(id, out);
      sink.push_back(out);
    }
    expect_identical_deliveries(off_deliveries, on_deliveries);
  }
  const EngineStats& stats = engine.stats();
  EXPECT_GT(stats.spec_decided, 0u);
  EXPECT_GT(stats.spec_committed, 0u);
  EXPECT_EQ(stats.spec_decided, stats.spec_committed + stats.spec_rolled_back);
}

TEST(Speculation, DepthOptionRidesEngineAndServeConfigs) {
  // StreamConfig::speculate_depth reaches the session through the engine
  // and the serving layer: capped speculation stays bit-identical to the
  // unlimited run while rolling back no more than the cap allows.
  const Tape tape = make_tape(333);
  Rng plan_rng(333);
  const std::vector<FeedStep> plan = plan_chunks(tape, plan_rng);

  std::vector<StreamDelivery> engine_runs[2];
  for (const int depth : {0, 1}) {
    SchedulerEngine engine(EngineOptions{1, false});
    StreamConfig config;
    config.m = tape.m;
    config.policy = &kFlatList;
    config.speculate = true;
    config.speculate_depth = depth;
    const EngineStreamId id = engine.open_stream(config);
    StreamDelivery out;
    for (const FeedStep& step : plan) {
      engine.feed_stream(id, tape.arrivals.data() + step.begin,
                         step.end - step.begin, step.watermark, out);
      engine_runs[depth].push_back(out);
    }
    engine.close_stream(id, out);
    engine_runs[depth].push_back(out);
    if (depth == 1) {
      const EngineStats& stats = engine.stats();
      EXPECT_EQ(stats.spec_decided,
                stats.spec_committed + stats.spec_rolled_back);
    }
  }
  expect_identical_deliveries(engine_runs[0], engine_runs[1]);

  std::vector<StreamDelivery> serve_runs[2];
  for (const int depth : {0, 1}) {
    AsyncOptions options;
    options.shards = 2;
    options.flush_after_ms = 0.1;
    AsyncScheduler async(options);
    StreamConfig stream_config;
    stream_config.m = tape.m;
    stream_config.policy = &kFlatList;
    stream_config.speculate = true;
    stream_config.speculate_depth = depth;
    const StreamTicket stream = async.open_stream(stream_config);
    ASSERT_TRUE(stream.accepted());
    std::vector<Ticket> tickets;
    for (const FeedStep& step : plan) {
      tickets.push_back(async.submit_stream(stream,
                                            tape.arrivals.data() + step.begin,
                                            step.end - step.begin,
                                            step.watermark));
      ASSERT_TRUE(tickets.back().accepted());
    }
    tickets.push_back(async.close_stream(stream));
    ASSERT_TRUE(tickets.back().accepted());
    async.drain();
    StreamDelivery delivery;
    for (const Ticket& ticket : tickets) {
      ASSERT_EQ(async.wait(ticket), TicketStatus::Done);
      ASSERT_TRUE(async.take_stream(ticket, delivery));
      serve_runs[depth].push_back(delivery);
    }
  }
  expect_identical_deliveries(serve_runs[0], serve_runs[1]);
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

// ------------------------------------------------- warm-started dual tests

/// Moldable task with power-law speedup and occasional non-monotone bumps
/// (same shape the DEMT kernel fuzz uses) so the dual search bisects for
/// real instead of accepting the combinatorial bound outright.
MoldableTask make_warm_task(Rng& rng, int m) {
  const double seq = rng.uniform(0.5, 10.0);
  const double alpha = rng.uniform(0.3, 1.0);
  std::vector<double> times;
  for (int k = 1; k <= m; ++k) {
    double t = seq / std::pow(static_cast<double>(k), alpha);
    if (k > 1 && rng.bernoulli(0.15)) t *= rng.uniform(1.05, 1.5);
    times.push_back(t);
  }
  return MoldableTask(std::move(times), rng.uniform(1.0, 10.0));
}

Instance make_warm_instance(int n, int m, Rng& rng) {
  Instance instance(m);
  for (int i = 0; i < n; ++i) instance.add_task(make_warm_task(rng, m));
  return instance;
}

/// The consecutive-batch shape speculation produces: the same instance
/// with every processing time scaled by a hair.
Instance perturb_instance(const Instance& base, double scale) {
  Instance out(base.procs());
  for (int t = 0; t < base.num_tasks(); ++t) {
    const MoldableTask& task = base.task(t);
    std::vector<double> times;
    for (int k = 1; k <= task.max_procs(); ++k) {
      times.push_back(task.time(k) * scale);
    }
    out.add_task(
        MoldableTask(std::move(times), task.weight(), task.min_procs()));
  }
  return out;
}

void expect_identical_dual(const DualTestResult& a, const DualTestResult& b) {
  ASSERT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.total_work, b.total_work);
  if (!a.feasible) return;
  ASSERT_EQ(a.assignment.size(), b.assignment.size());
  for (std::size_t i = 0; i < a.assignment.size(); ++i) {
    EXPECT_EQ(a.assignment[i].shelf, b.assignment[i].shelf) << "task " << i;
    EXPECT_EQ(a.assignment[i].allotment, b.assignment[i].allotment)
        << "task " << i;
  }
}

void expect_identical_estimate(const CmaxEstimate& a, const CmaxEstimate& b) {
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.lower_bound, b.lower_bound);
  expect_identical_dual(a.partition, b.partition);
}

TEST(WarmStart, FirstCallFallsBackToExactlyTheColdSearch) {
  Rng rng(0x5EED);
  for (int trial = 0; trial < 30; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(2, 32));
    const int n = static_cast<int>(rng.uniform_int(2, 24));
    const Instance instance = make_warm_instance(n, m, rng);
    const InstanceAllotments tables(instance);
    DualTestWorkspace warm_ws;
    warm_ws.warm.enabled = true;  // enabled but no recorded bounds yet
    DualTestWorkspace cold_ws;
    CmaxEstimate warm_out;
    CmaxEstimate cold_out;
    estimate_cmax_into(instance, 1e-4, tables, warm_ws, warm_out);
    estimate_cmax_into(instance, 1e-4, tables, cold_ws, cold_out);
    expect_identical_estimate(warm_out, cold_out);
    // With no seed facts the replay infers nothing: same call count too.
    EXPECT_EQ(warm_out.dual_tests, cold_out.dual_tests);
    EXPECT_TRUE(warm_ws.warm.valid);  // bounds recorded for the next batch
  }
}

TEST(WarmStart, RepeatedBatchIsBitIdenticalWithStrictlyFewerTests) {
  Rng rng(0xFACADE);
  int bisecting_trials = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const Instance instance = make_warm_instance(16, 24, rng);
    const InstanceAllotments tables(instance);
    DualTestWorkspace warm_ws;
    warm_ws.warm.enabled = true;
    for (int step = 0; step < 3; ++step) {
      DualTestWorkspace cold_ws;
      CmaxEstimate warm_out;
      CmaxEstimate cold_out;
      estimate_cmax_into(instance, 1e-4, tables, warm_ws, warm_out);
      estimate_cmax_into(instance, 1e-4, tables, cold_ws, cold_out);
      expect_identical_estimate(warm_out, cold_out);
      if (step == 0) {
        EXPECT_EQ(warm_out.dual_tests, cold_out.dual_tests);
      } else {
        EXPECT_LE(warm_out.dual_tests, cold_out.dual_tests);
        if (cold_out.dual_tests > 2) {
          // A real bisection: the recorded bracket proves every probe by
          // monotonicity, so the warm replay needs only its seed tests.
          EXPECT_LT(warm_out.dual_tests, cold_out.dual_tests);
          ++bisecting_trials;
        }
      }
    }
  }
  EXPECT_GT(bisecting_trials, 0);  // the strict gate must not be vacuous
}

TEST(WarmStart, NearIdenticalBatchSequenceStaysBitIdenticalAndCheaper) {
  Rng rng(0xBEEF);
  int warm_total = 0;
  int cold_total = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const Instance base = make_warm_instance(14, 20, rng);
    DualTestWorkspace warm_ws;
    warm_ws.warm.enabled = true;
    const double scales[] = {1.0, 1.0 + 1e-7, 1.0 - 1e-7, 1.0 + 3e-7};
    for (int step = 0; step < 4; ++step) {
      const Instance instance = perturb_instance(base, scales[step]);
      const InstanceAllotments tables(instance);
      DualTestWorkspace cold_ws;
      CmaxEstimate warm_out;
      CmaxEstimate cold_out;
      estimate_cmax_into(instance, 1e-4, tables, warm_ws, warm_out);
      estimate_cmax_into(instance, 1e-4, tables, cold_ws, cold_out);
      expect_identical_estimate(warm_out, cold_out);
      if (step > 0) {
        warm_total += warm_out.dual_tests;
        cold_total += cold_out.dual_tests;
      }
    }
  }
  // Aggregate regression gate: warm-started searches over consecutive
  // near-identical batches must be strictly cheaper than cold ones.
  EXPECT_LT(warm_total, cold_total);
}

TEST(WarmStart, DemtWarmOptionKeepsSchedulesIdentical) {
  Rng rng(0xD137);
  DemtOptions cold_options;
  DemtOptions warm_options;
  warm_options.warm_dual_start = true;
  int warm_total = 0;
  int cold_total = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const Instance base = make_warm_instance(12, 16, rng);
    DemtWorkspace warm_ws;
    DemtWorkspace cold_ws;
    FlatPlacements warm_out;
    FlatPlacements cold_out;
    DemtDiagnostics warm_diag;
    DemtDiagnostics cold_diag;
    const double scales[] = {1.0, 1.0 + 1e-7, 1.0 - 2e-7};
    for (int step = 0; step < 3; ++step) {
      const Instance instance = perturb_instance(base, scales[step]);
      demt_schedule_into(instance, warm_options, warm_ws, warm_out, warm_diag);
      demt_schedule_into(instance, cold_options, cold_ws, cold_out, cold_diag);
      expect_identical_placements(warm_out, cold_out);
      EXPECT_EQ(warm_diag.cmax_estimate, cold_diag.cmax_estimate);
      EXPECT_EQ(warm_diag.cmax_lower_bound, cold_diag.cmax_lower_bound);
      EXPECT_EQ(warm_diag.grid_k, cold_diag.grid_k);
      EXPECT_EQ(warm_diag.num_batches, cold_diag.num_batches);
      EXPECT_EQ(warm_diag.merged_stacks, cold_diag.merged_stacks);
      EXPECT_EQ(warm_diag.shuffle_improvements,
                cold_diag.shuffle_improvements);
      if (step == 0) {
        // First call on a fresh workspace is a cold search either way.
        EXPECT_EQ(warm_diag.dual_tests, cold_diag.dual_tests);
      } else {
        EXPECT_LE(warm_diag.dual_tests, cold_diag.dual_tests);
        warm_total += warm_diag.dual_tests;
        cold_total += cold_diag.dual_tests;
      }
    }
  }
  EXPECT_LT(warm_total, cold_total);
}

TEST(WarmStart, CacheKeyIgnoresWarmDualStart) {
  DemtOptions cold_options;
  DemtOptions warm_options;
  warm_options.warm_dual_start = true;
  const DemtPolicy cold_policy(cold_options);
  const DemtPolicy warm_policy(warm_options);
  // Warm-starting never changes decisions, so cached entries must be
  // shareable across the toggle (mirrors the shuffle_workers exclusion).
  EXPECT_EQ(cold_policy.cache_key(), warm_policy.cache_key());
}

}  // namespace
}  // namespace moldsched
