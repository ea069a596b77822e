/// Contracts of stream checkpoint/restore (sim/checkpoint.hpp): a session
/// restored from a snapshot taken at ANY watermark boundary replays the
/// rest of the stream bit-identically to the uninterrupted run — for
/// moldable-only tapes and the §5 rigid/divisible mix, under FlatList and
/// DEMT — through both the direct struct hand-off and the byte codec.
/// Also the codec's rejection of malformed images, restore's validation,
/// and the engine-level checkpoint_stream/restore_stream/abandon_stream
/// surface.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
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

FlatOfflineScheduler flat_offline() {
  return [](const Instance& batch, OnlineWorkspace& ws,
            FlatPlacements& out) { flat_list_schedule(batch, ws.list, out); };
}

FlatOfflineScheduler demt_offline() {
  auto policy = std::make_shared<DemtPolicy>();
  auto ws = std::shared_ptr<PolicyWorkspace>(policy->make_workspace());
  return [policy, ws](const Instance& batch, OnlineWorkspace&,
                      FlatPlacements& out) {
    policy->schedule_into(batch, *ws, out);
  };
}

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
              std::size_t i, const FlatOfflineScheduler& offline,
              StreamDelivery& out) {
  stream.feed(&tape[i], 1, tape[i].release, offline, out);
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
    const FlatOfflineScheduler& offline) {
  OnlineStream stream;
  stream.open(m, {});
  std::vector<StreamDelivery> deliveries;
  StreamDelivery out;
  for (std::size_t i = 0; i < tape.size(); ++i) {
    feed_one(stream, tape, i, offline, out);
    deliveries.push_back(out);
  }
  stream.finish(offline, out);
  deliveries.push_back(out);
  return deliveries;
}

/// Feed [0, cut) on one session, snapshot, restore (optionally through the
/// byte codec), feed [cut, n) on the restored session, finish, and demand
/// every post-cut delivery match the reference bit for bit.
void check_cut(const std::vector<StreamArrival>& tape, int m,
               const FlatOfflineScheduler& offline,
               const std::vector<StreamDelivery>& reference, std::size_t cut,
               bool through_bytes) {
  OnlineStream original;
  original.open(m, {});
  StreamDelivery out;
  for (std::size_t i = 0; i < cut; ++i) {
    feed_one(original, tape, i, offline, out);
  }
  StreamCheckpoint ckpt;
  original.checkpoint(ckpt);
  OnlineStream resumed;
  if (through_bytes) {
    std::vector<std::uint8_t> image;
    encode_checkpoint(ckpt, image);
    StreamCheckpoint decoded;
    decode_checkpoint(image.data(), image.size(), decoded);
    resumed.restore(decoded);
  } else {
    resumed.restore(ckpt);
  }
  EXPECT_TRUE(resumed.is_open());
  EXPECT_EQ(resumed.batch_jobs_decided(), original.batch_jobs_decided());
  EXPECT_EQ(resumed.watermark(), original.watermark());
  for (std::size_t i = cut; i < tape.size(); ++i) {
    feed_one(resumed, tape, i, offline, out);
    expect_delivery_identical(out, reference[i]);
  }
  resumed.finish(offline, out);
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
  const auto offline = flat_offline();
  const auto reference = run_reference(tape, m, offline);
  for (std::size_t cut = 0; cut <= tape.size(); ++cut) {
    SCOPED_TRACE(cut);
    check_cut(tape, m, offline, reference, cut, /*through_bytes=*/false);
  }
}

TEST(StreamCheckpoint, MixedTapeRoundTripsThroughByteCodec) {
  const int m = 6;
  const auto tape = make_mix(15, m, /*mixed=*/true, 77);
  const auto offline = flat_offline();
  const auto reference = run_reference(tape, m, offline);
  for (std::size_t cut = 0; cut <= tape.size(); ++cut) {
    SCOPED_TRACE(cut);
    check_cut(tape, m, offline, reference, cut, /*through_bytes=*/true);
  }
}

TEST(StreamCheckpoint, DemtTapeRoundTrips) {
  const int m = 8;
  const auto tape = make_mix(10, m, /*mixed=*/true, 4242);
  const auto offline = demt_offline();
  const auto reference = run_reference(tape, m, offline);
  for (std::size_t cut : {std::size_t{0}, tape.size() / 2, tape.size()}) {
    SCOPED_TRACE(cut);
    check_cut(tape, m, offline, reference, cut, /*through_bytes=*/true);
  }
}

TEST(StreamCheckpoint, CodecRejectsMalformedImages) {
  OnlineStream stream;
  stream.open(4, {});
  StreamCheckpoint ckpt;
  stream.checkpoint(ckpt);
  std::vector<std::uint8_t> image;
  encode_checkpoint(ckpt, image);
  StreamCheckpoint decoded;
  EXPECT_THROW(decode_checkpoint(nullptr, 0, decoded), std::invalid_argument);
  // Every strict prefix is truncated.
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, image.size() - 1}) {
    EXPECT_THROW(decode_checkpoint(image.data(), cut, decoded),
                 std::invalid_argument);
  }
  auto corrupt = image;
  corrupt[0] ^= 0xFF;  // magic
  EXPECT_THROW(decode_checkpoint(corrupt.data(), corrupt.size(), decoded),
               std::invalid_argument);
  corrupt = image;
  corrupt[4] = 0xEE;  // version
  EXPECT_THROW(decode_checkpoint(corrupt.data(), corrupt.size(), decoded),
               std::invalid_argument);
  decode_checkpoint(image.data(), image.size(), decoded);  // intact: fine
  EXPECT_EQ(decoded.m, 4);
}

/// Build a populated checkpoint — reservations, decided jobs, pending
/// divisible load — so every optional field region of the byte image is
/// non-empty and the fuzz tests below exercise all of them.
StreamCheckpoint make_rich_checkpoint() {
  const int m = 6;
  const auto tape = make_mix(12, m, /*mixed=*/true, 77);
  OnlineStream stream;
  stream.open(m, {NodeReservation{2, 0.5, 1.5}});
  StreamDelivery out;
  for (std::size_t i = 0; i + 1 < tape.size(); ++i) {
    feed_one(stream, tape, i, flat_offline(), out);
  }
  StreamCheckpoint ckpt;
  stream.checkpoint(ckpt);
  return ckpt;
}

TEST(StreamCheckpoint, CodecRejectsTruncationAtEveryByte) {
  std::vector<std::uint8_t> image;
  encode_checkpoint(make_rich_checkpoint(), image);
  ASSERT_GT(image.size(), 100u);  // really populated
  StreamCheckpoint decoded;
  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    EXPECT_THROW(decode_checkpoint(image.data(), cut, decoded),
                 std::invalid_argument)
        << "cut " << cut;
  }
  decode_checkpoint(image.data(), image.size(), decoded);
  EXPECT_EQ(decoded.m, 6);
}

TEST(StreamCheckpoint, CodecByteFlipFuzzThrowsOrDecodesNeverUB) {
  // Decode-only fuzz (a corrupted image is never restore()d — its values
  // are meaningless): flipping any single byte must either throw
  // std::invalid_argument or complete a decode with altered payload —
  // never crash, read out of bounds, or over-allocate (the count guards
  // bound every resize by the image size). The ASan+UBSan CI lane runs
  // this test, which is the actual gate.
  std::vector<std::uint8_t> image;
  encode_checkpoint(make_rich_checkpoint(), image);
  auto corrupt = image;
  std::size_t threw = 0;
  std::size_t decoded_ok = 0;
  for (std::size_t off = 0; off < image.size(); ++off) {
    corrupt[off] ^= 0xFF;
    StreamCheckpoint decoded;
    try {
      decode_checkpoint(corrupt.data(), corrupt.size(), decoded);
      ++decoded_ok;
    } catch (const std::invalid_argument&) {
      ++threw;
    }
    corrupt[off] = image[off];
  }
  EXPECT_EQ(threw + decoded_ok, image.size());
  // The structural regions (magic, version, counts) must actually reject.
  EXPECT_GT(threw, 0u);
}

TEST(StreamCheckpoint, CodecRejectsOversizedCount) {
  // Overwrite the reservations count (offset 32: magic, version, m, now,
  // watermark, flags precede it) with 2^64-1: the count guard must throw
  // before attempting any allocation.
  std::vector<std::uint8_t> image;
  encode_checkpoint(make_rich_checkpoint(), image);
  ASSERT_GE(image.size(), 40u);
  auto corrupt = image;
  for (std::size_t b = 0; b < 8; ++b) corrupt[32 + b] = 0xFF;
  StreamCheckpoint decoded;
  EXPECT_THROW(decode_checkpoint(corrupt.data(), corrupt.size(), decoded),
               std::invalid_argument);
}

TEST(StreamCheckpoint, CodecRejectsTrailingBytes) {
  std::vector<std::uint8_t> image;
  encode_checkpoint(make_rich_checkpoint(), image);
  StreamCheckpoint decoded;
  decode_checkpoint(image.data(), image.size(), decoded);  // exact: fine
  auto padded = image;
  padded.push_back(0x00);
  EXPECT_THROW(decode_checkpoint(padded.data(), padded.size(), decoded),
               std::invalid_argument);
  padded.insert(padded.end(), 16, 0xAB);
  EXPECT_THROW(decode_checkpoint(padded.data(), padded.size(), decoded),
               std::invalid_argument);
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
  const auto reference = run_reference(tape, m, flat_offline());

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
  EXPECT_FALSE(engine.stream_open(id));
  engine.abandon_stream(id);  // unknown/stale id: quiet no-op

  const EngineStreamId restored = engine.restore_stream(config, ckpt);
  EXPECT_TRUE(engine.stream_open(restored));
  EXPECT_EQ(engine.stats().streams_restored, 1u);
  for (std::size_t i = cut; i < tape.size(); ++i) {
    engine.feed_stream(restored, &tape[i], 1, tape[i].release, out);
    expect_delivery_identical(out, reference[i]);
  }
  engine.close_stream(restored, out);
  expect_delivery_identical(out, reference.back());
  EXPECT_FALSE(engine.stream_open(restored));
}

}  // namespace
}  // namespace moldsched
