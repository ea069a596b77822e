/// Contracts of stream checkpoint/restore (sim/checkpoint.hpp): a session
/// restored from a snapshot taken at ANY watermark boundary replays the
/// rest of the stream bit-identically to the uninterrupted run — for
/// moldable-only tapes and the §5 rigid/divisible mix, under FlatList and
/// DEMT. Also restore's validation and the engine-level
/// checkpoint_stream/restore_stream/abandon_stream surface.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/policy.hpp"
#include "engine/engine.hpp"
#include "sim/checkpoint.hpp"
#include "sim/stream.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace moldsched {
namespace {

const FlatListPolicy kFlatList;
const DemtPolicy kDemt;

/// A small §5 mix: moldable, rigid, and divisible arrivals with strictly
/// increasing releases (every chunk boundary is a watermark boundary).
std::vector<StreamArrival> make_mix(int count, int m, bool mixed,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<StreamArrival> arrivals;
  double release = 0.0;
  for (int i = 0; i < count; ++i) {
    release += rng.uniform(0.1, 2.0);
    if (!mixed || i % 3 == 0) {
      Instance tmp = generate_instance(WorkloadFamily::Mixed, 1, m, rng);
      arrivals.push_back(moldable_arrival(tmp.task(0), release));
    } else if (i % 3 == 1) {
      arrivals.push_back(rigid_arrival(1 + i % m, rng.uniform(0.5, 3.0),
                                       rng.uniform(0.5, 2.0), release));
    } else {
      arrivals.push_back(divisible_arrival(rng.uniform(1.0, 6.0),
                                           rng.uniform(0.5, 2.0), release));
    }
  }
  return arrivals;
}

void feed_one(OnlineStream& stream, const std::vector<StreamArrival>& tape,
              std::size_t i, const SchedulingPolicy& policy,
              PolicyWorkspace& policy_ws, StreamDelivery& out) {
  stream.feed(&tape[i], 1, tape[i].release, policy, policy_ws, out);
}

void expect_delivery_identical(const StreamDelivery& a,
                               const StreamDelivery& b) {
  EXPECT_EQ(a.first_job, b.first_job);
  ASSERT_EQ(a.placements.size(), b.placements.size());
  EXPECT_EQ(a.placements.start, b.placements.start);
  EXPECT_EQ(a.placements.duration, b.placements.duration);
  EXPECT_EQ(a.placements.proc_count, b.placements.proc_count);
  EXPECT_EQ(a.placements.proc_ids, b.placements.proc_ids);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.batch_starts, b.batch_starts);
  ASSERT_EQ(a.chunks.size(), b.chunks.size());
  for (std::size_t c = 0; c < a.chunks.size(); ++c) {
    EXPECT_EQ(a.chunks[c].job, b.chunks[c].job);
    EXPECT_EQ(a.chunks[c].proc, b.chunks[c].proc);
    EXPECT_EQ(a.chunks[c].start, b.chunks[c].start);
    EXPECT_EQ(a.chunks[c].duration, b.chunks[c].duration);
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

/// Reference: run the whole tape one arrival per feed, collecting every
/// delivery (finish delivery last).
std::vector<StreamDelivery> run_reference(
    const std::vector<StreamArrival>& tape, int m,
    const SchedulingPolicy& policy, PolicyWorkspace& policy_ws) {
  OnlineStream stream;
  stream.open(m, {});
  std::vector<StreamDelivery> deliveries;
  StreamDelivery out;
  for (std::size_t i = 0; i < tape.size(); ++i) {
    feed_one(stream, tape, i, policy, policy_ws, out);
    deliveries.push_back(out);
  }
  stream.finish(policy, policy_ws, out);
  deliveries.push_back(out);
  return deliveries;
}

/// Feed [0, cut) on one session, snapshot, restore, feed [cut, n) on the
/// restored session, finish, and demand every post-cut delivery match the
/// reference bit for bit.
void check_cut(const std::vector<StreamArrival>& tape, int m,
               const SchedulingPolicy& policy, PolicyWorkspace& policy_ws,
               const std::vector<StreamDelivery>& reference, std::size_t cut) {
  OnlineStream original;
  original.open(m, {});
  StreamDelivery out;
  for (std::size_t i = 0; i < cut; ++i) {
    feed_one(original, tape, i, policy, policy_ws, out);
  }
  StreamCheckpoint ckpt;
  original.checkpoint(ckpt);
  OnlineStream resumed;
  resumed.restore(ckpt);
  EXPECT_TRUE(resumed.is_open());
  EXPECT_EQ(resumed.batch_jobs_decided(), original.batch_jobs_decided());
  EXPECT_EQ(resumed.watermark(), original.watermark());
  for (std::size_t i = cut; i < tape.size(); ++i) {
    feed_one(resumed, tape, i, policy, policy_ws, out);
    expect_delivery_identical(out, reference[i]);
  }
  resumed.finish(policy, policy_ws, out);
  expect_delivery_identical(out, reference.back());
  // Running totals converge to the uninterrupted run's.
  EXPECT_EQ(resumed.result().cmax, reference.back().cmax);
  EXPECT_EQ(resumed.result().weighted_completion_sum,
            reference.back().weighted_completion_sum);
  EXPECT_EQ(resumed.result().weighted_flow_sum,
            reference.back().weighted_flow_sum);
}

TEST(StreamCheckpoint, MoldableRoundTripAtEveryWatermarkBoundary) {
  const int m = 8;
  const auto tape = make_mix(14, m, /*mixed=*/false, 20040627);
  const auto policy_ws = kFlatList.make_workspace();
  const auto reference = run_reference(tape, m, kFlatList, *policy_ws);
  for (std::size_t cut = 0; cut <= tape.size(); ++cut) {
    SCOPED_TRACE(cut);
    check_cut(tape, m, kFlatList, *policy_ws, reference, cut);
  }
}

TEST(StreamCheckpoint, MixedTapeRoundTripAtEveryWatermarkBoundary) {
  const int m = 6;
  const auto tape = make_mix(15, m, /*mixed=*/true, 77);
  const auto policy_ws = kFlatList.make_workspace();
  const auto reference = run_reference(tape, m, kFlatList, *policy_ws);
  for (std::size_t cut = 0; cut <= tape.size(); ++cut) {
    SCOPED_TRACE(cut);
    check_cut(tape, m, kFlatList, *policy_ws, reference, cut);
  }
}

TEST(StreamCheckpoint, DemtTapeRoundTrips) {
  const int m = 8;
  const auto tape = make_mix(10, m, /*mixed=*/true, 4242);
  const auto policy_ws = kDemt.make_workspace();
  const auto reference = run_reference(tape, m, kDemt, *policy_ws);
  for (std::size_t cut : {std::size_t{0}, tape.size() / 2, tape.size()}) {
    SCOPED_TRACE(cut);
    check_cut(tape, m, kDemt, *policy_ws, reference, cut);
  }
}

TEST(StreamCheckpoint, RestoreValidatesAndCheckpointNeedsOpenSession) {
  OnlineStream closed;
  StreamCheckpoint ckpt;
  EXPECT_THROW(closed.checkpoint(ckpt), std::logic_error);

  OnlineStream stream;
  stream.open(4, {});
  stream.checkpoint(ckpt);
  auto bad = ckpt;
  bad.m = 0;
  EXPECT_THROW(stream.restore(bad), std::invalid_argument);
  bad = ckpt;
  bad.reservations.push_back(NodeReservation{99, 0.0, 1.0});
  EXPECT_THROW(stream.restore(bad), std::invalid_argument);
  bad = ckpt;
  bad.job_release.push_back(0.0);  // SoA shape mismatch
  EXPECT_THROW(stream.restore(bad), std::invalid_argument);
}

TEST(SchedulerEngine, CheckpointRestoreAbandonStreams) {
  const int m = 6;
  const auto tape = make_mix(12, m, /*mixed=*/true, 11);
  const auto policy_ws = kFlatList.make_workspace();
  const auto reference = run_reference(tape, m, kFlatList, *policy_ws);

  const FlatListPolicy flat_policy;
  SchedulerEngine engine(EngineOptions{1, false});
  StreamConfig config;
  config.m = m;
  config.policy = &flat_policy;
  EngineStreamId id = engine.open_stream(config);
  StreamDelivery out;
  const std::size_t cut = tape.size() / 2;
  for (std::size_t i = 0; i < cut; ++i) {
    engine.feed_stream(id, &tape[i], 1, tape[i].release, out);
  }
  StreamCheckpoint ckpt;
  engine.checkpoint_stream(id, ckpt);
  engine.abandon_stream(id);
  StreamCheckpoint stale;
  EXPECT_THROW(engine.checkpoint_stream(id, stale), std::invalid_argument);
  engine.abandon_stream(id);  // unknown/stale id: quiet no-op

  const EngineStreamId restored = engine.restore_stream(config, ckpt);
  EXPECT_EQ(engine.stats().streams_restored, 1u);
  for (std::size_t i = cut; i < tape.size(); ++i) {
    engine.feed_stream(restored, &tape[i], 1, tape[i].release, out);
    expect_delivery_identical(out, reference[i]);
  }
  engine.close_stream(restored, out);
  expect_delivery_identical(out, reference.back());
  EXPECT_THROW(engine.feed_stream(restored, nullptr, 0, tape.back().release,
                                  out),
               std::invalid_argument);
}

}  // namespace
}  // namespace moldsched
