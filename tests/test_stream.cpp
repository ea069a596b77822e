/// Contracts of the streaming online core (sim/stream.hpp) and the
/// engine's stream API: arrivals fed chunk by chunk reproduce the off-line
/// batch simulator bit for bit (including tied releases and reservations),
/// deliveries partition the stream in order, the §5 divisible/rigid mix
/// matches the off-line filler, carryover work drains at finish without
/// colliding with placed tasks, feeds validate before mutating, and the
/// engine pools sessions across open/close cycles. Also the flat divisible
/// fill's workspace-reuse contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/policy.hpp"
#include "engine/engine.hpp"
#include "sim/divisible.hpp"
#include "sim/online.hpp"
#include "sim/stream.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace moldsched {
namespace {

std::vector<OnlineJob> make_jobs(WorkloadFamily family, int count, int m,
                                 double max_gap, Rng& rng) {
  std::vector<OnlineJob> jobs;
  double release = 0.0;
  for (int i = 0; i < count; ++i) {
    Instance tmp = generate_instance(family, 1, m, rng);
    jobs.push_back(OnlineJob{tmp.task(0), release});
    release += rng.uniform(0.0, max_gap);
  }
  return jobs;
}

FlatOfflineScheduler flat_offline() {
  return [](const Instance& batch, OnlineWorkspace& ws,
            FlatPlacements& out) { flat_list_schedule(batch, ws.list, out); };
}

OfflineScheduler object_offline() {
  return [](const Instance& batch) {
    ListPassWorkspace list;
    FlatPlacements out;
    flat_list_schedule(batch, list, out);
    return out.to_schedule(batch.procs());
  };
}

/// Feed `jobs` through a fresh stream in chunks of `chunk_size` (0 = all
/// at once), collecting every delivery into `deliveries`.
FlatOnlineResult run_stream(const std::vector<OnlineJob>& jobs, int m,
                            const std::vector<NodeReservation>& reservations,
                            std::size_t chunk_size,
                            std::vector<StreamDelivery>* deliveries = nullptr) {
  OnlineStream stream;
  stream.open(m, reservations);
  const FlatOfflineScheduler offline = flat_offline();
  std::vector<StreamArrival> arrivals;
  StreamDelivery out;
  const std::size_t chunk = chunk_size == 0 ? jobs.size() : chunk_size;
  for (std::size_t i = 0; i < jobs.size(); i += chunk) {
    const std::size_t end = std::min(jobs.size(), i + chunk);
    arrivals.clear();
    for (std::size_t j = i; j < end; ++j) {
      arrivals.push_back(moldable_arrival(jobs[j].task, jobs[j].release));
    }
    const double watermark =
        end < jobs.size() ? jobs[end].release : jobs.back().release;
    stream.feed(arrivals.data(), arrivals.size(), watermark, offline, out);
    if (deliveries != nullptr) deliveries->push_back(out);
  }
  stream.finish(offline, out);
  EXPECT_TRUE(out.final_delivery);
  if (deliveries != nullptr) deliveries->push_back(out);
  EXPECT_TRUE(stream.finished());
  EXPECT_EQ(stream.batch_jobs_decided(), static_cast<int>(jobs.size()));
  return stream.result();
}

void expect_matches_reference(const FlatOnlineResult& flat,
                              const OnlineResult& reference) {
  ASSERT_EQ(flat.schedule.size(), reference.schedule.num_tasks());
  for (int t = 0; t < flat.schedule.size(); ++t) {
    const Placement& p = reference.schedule.placement(t);
    const auto e = static_cast<std::size_t>(t);
    EXPECT_EQ(flat.schedule.start[e], p.start) << "job " << t;
    EXPECT_EQ(flat.schedule.duration[e], p.duration) << "job " << t;
    const auto begin = static_cast<std::size_t>(flat.schedule.proc_begin[e]);
    const std::vector<int> procs(
        flat.schedule.proc_ids.begin() + static_cast<std::ptrdiff_t>(begin),
        flat.schedule.proc_ids.begin() +
            static_cast<std::ptrdiff_t>(
                begin + static_cast<std::size_t>(flat.schedule.proc_count[e])));
    EXPECT_EQ(procs, p.procs) << "job " << t;
  }
  EXPECT_EQ(flat.completion, reference.completion);
  EXPECT_EQ(flat.flow, reference.flow);
  EXPECT_EQ(flat.cmax, reference.cmax);
  EXPECT_EQ(flat.weighted_completion_sum, reference.weighted_completion_sum);
  EXPECT_EQ(flat.weighted_flow_sum, reference.weighted_flow_sum);
  EXPECT_EQ(flat.num_batches, reference.num_batches);
  EXPECT_EQ(flat.batch_starts, reference.batch_starts);
}

TEST(OnlineStream, ChunkedFeedsMatchOfflineReference) {
  Rng rng(20040627);
  for (auto family : {WorkloadFamily::Cirne, WorkloadFamily::Mixed,
                      WorkloadFamily::HighlyParallel}) {
    const auto jobs = make_jobs(family, 18, 8, 1.5, rng);
    const auto reference =
        online_batch_schedule_reference(8, jobs, object_offline());
    for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
      expect_matches_reference(run_stream(jobs, 8, {}, chunk), reference);
    }
  }
}

TEST(OnlineStream, SingleFeedMatchesOfflineReference) {
  Rng rng(5);
  const auto jobs = make_jobs(WorkloadFamily::Mixed, 15, 6, 1.0, rng);
  const auto reference =
      online_batch_schedule_reference(6, jobs, object_offline());
  expect_matches_reference(run_stream(jobs, 6, {}, 0), reference);
}

TEST(OnlineStream, TiedReleasesMatchOfflineReference) {
  Rng rng(9);
  std::vector<OnlineJob> jobs;
  for (int group = 0; group < 4; ++group) {
    for (int i = 0; i < 4; ++i) {
      Instance tmp = generate_instance(WorkloadFamily::Cirne, 1, 8, rng);
      jobs.push_back(OnlineJob{tmp.task(0), group * 1.5});
    }
  }
  const auto reference =
      online_batch_schedule_reference(8, jobs, object_offline());
  for (std::size_t chunk : {std::size_t{1}, std::size_t{5}}) {
    expect_matches_reference(run_stream(jobs, 8, {}, chunk), reference);
  }
}

TEST(OnlineStream, ReservationsMatchOfflineReference) {
  Rng rng(99);
  const auto jobs = make_jobs(WorkloadFamily::Cirne, 14, 8, 1.0, rng);
  const std::vector<NodeReservation> reservations = {
      {0, 2.0, 6.0}, {1, 2.0, 6.0}, {7, 0.0, 3.0}};
  const auto reference = online_batch_schedule_reference(
      8, jobs, object_offline(), reservations);
  expect_matches_reference(run_stream(jobs, 8, reservations, 2), reference);
}

TEST(OnlineStream, DeliveriesPartitionTheStreamInOrder) {
  Rng rng(13);
  const auto jobs = make_jobs(WorkloadFamily::Mixed, 20, 8, 1.2, rng);
  std::vector<StreamDelivery> deliveries;
  const auto result = run_stream(jobs, 8, {}, 3, &deliveries);
  int next_job = 0;
  int batches = 0;
  for (const auto& delivery : deliveries) {
    EXPECT_EQ(delivery.first_job, next_job);
    for (int e = 0; e < delivery.num_jobs(); ++e) {
      const auto job = static_cast<std::size_t>(next_job + e);
      const auto entry = static_cast<std::size_t>(e);
      EXPECT_EQ(delivery.placements.start[entry], result.schedule.start[job]);
      EXPECT_EQ(delivery.completion[entry], result.completion[job]);
    }
    next_job += delivery.num_jobs();
    batches += static_cast<int>(delivery.batch_starts.size());
  }
  EXPECT_EQ(next_job, static_cast<int>(jobs.size()));
  EXPECT_EQ(batches, result.num_batches);
}

TEST(OnlineStream, DivisibleSingleBatchMatchesOfflineFill) {
  // Everything arrives at t=0: one batch, so the stream's in-batch fill
  // must equal the off-line filler run on the batch schedule.
  Rng rng(21);
  const int m = 8;
  std::vector<OnlineJob> jobs = make_jobs(WorkloadFamily::Mixed, 10, m, 0.0, rng);
  for (auto& job : jobs) job.release = 0.0;
  const std::vector<DivisibleJob> filler = {{4.0, 2.0}, {2.5, 1.0}, {6.0, 0.5}};

  const auto offline_result =
      online_batch_schedule(m, jobs, object_offline());
  const auto offline_fill = fill_idle_with_divisible(
      offline_result.schedule, filler, offline_result.cmax);

  OnlineStream stream;
  stream.open(m, {});
  std::vector<StreamArrival> arrivals;
  for (const auto& job : jobs) {
    arrivals.push_back(moldable_arrival(job.task, 0.0));
  }
  for (const auto& job : filler) {
    arrivals.push_back(divisible_arrival(job.work, job.weight, 0.0));
  }
  StreamDelivery out;
  stream.feed(arrivals.data(), arrivals.size(), 0.0, flat_offline(), out);
  StreamDelivery final_out;
  stream.finish(flat_offline(), final_out);

  // The batch decides at finish (watermark 0 cannot close it earlier), so
  // chunks land in the final delivery.
  ASSERT_EQ(final_out.chunks.size(), offline_fill.chunks.size());
  for (std::size_t c = 0; c < final_out.chunks.size(); ++c) {
    EXPECT_EQ(final_out.chunks[c].job, offline_fill.chunks[c].job);
    EXPECT_EQ(final_out.chunks[c].proc, offline_fill.chunks[c].proc);
    EXPECT_EQ(final_out.chunks[c].start, offline_fill.chunks[c].start);
    EXPECT_EQ(final_out.chunks[c].duration, offline_fill.chunks[c].duration);
  }
  ASSERT_EQ(final_out.divisible_done.size(), filler.size());
  for (std::size_t i = 0; i < final_out.divisible_done.size(); ++i) {
    const auto id = static_cast<std::size_t>(final_out.divisible_done[i]);
    EXPECT_EQ(final_out.divisible_completion[i], offline_fill.completion[id]);
  }
}

TEST(OnlineStream, DivisibleCarryoverDrainsWithoutCollisions) {
  Rng rng(31);
  const int m = 6;
  const auto jobs = make_jobs(WorkloadFamily::Cirne, 8, m, 0.8, rng);
  OnlineStream stream;
  stream.open(m, {});
  std::vector<StreamArrival> arrivals;
  for (const auto& job : jobs) {
    arrivals.push_back(moldable_arrival(job.task, job.release));
  }
  // Far more divisible work than the holes of any batch can hold.
  const double big_work = 200.0;
  arrivals.insert(arrivals.begin() + 2,
                  divisible_arrival(big_work, 1.0, arrivals[2].release));
  std::vector<DivisibleChunk> chunks;
  StreamDelivery out;
  stream.feed(arrivals.data(), arrivals.size(), jobs.back().release,
              flat_offline(), out);
  chunks.insert(chunks.end(), out.chunks.begin(), out.chunks.end());
  stream.finish(flat_offline(), out);
  chunks.insert(chunks.end(), out.chunks.begin(), out.chunks.end());

  EXPECT_NEAR(stream.divisible_work_pending(), 0.0, 1e-6);
  double placed = 0.0;
  for (const auto& chunk : chunks) placed += chunk.duration;
  EXPECT_NEAR(placed, big_work, 1e-6);
  ASSERT_EQ(out.divisible_done.size(), 1u);
  EXPECT_GT(out.divisible_completion[0], 0.0);

  // No chunk may overlap a placed batch job on the same processor.
  const FlatOnlineResult& result = stream.result();
  for (const auto& chunk : chunks) {
    for (int t = 0; t < result.schedule.size(); ++t) {
      const auto e = static_cast<std::size_t>(t);
      const auto begin = static_cast<std::size_t>(result.schedule.proc_begin[e]);
      const auto count = static_cast<std::size_t>(result.schedule.proc_count[e]);
      for (std::size_t p = begin; p < begin + count; ++p) {
        if (result.schedule.proc_ids[p] != chunk.proc) continue;
        const double task_start = result.schedule.start[e];
        const double task_finish = task_start + result.schedule.duration[e];
        const bool overlaps = chunk.start < task_finish - 1e-9 &&
                              chunk.finish() > task_start + 1e-9;
        EXPECT_FALSE(overlaps)
            << "chunk [" << chunk.start << ", " << chunk.finish()
            << ") on proc " << chunk.proc << " overlaps job " << t;
      }
    }
  }
}

TEST(OnlineStream, DivisibleOnlyStreamDrainsAtFinish) {
  OnlineStream stream;
  stream.open(4, {});
  const StreamArrival arrival = divisible_arrival(8.0, 1.0, 0.0);
  StreamDelivery out;
  stream.feed(&arrival, 1, 0.0, flat_offline(), out);
  EXPECT_TRUE(out.chunks.empty());  // no batch to pour into yet
  stream.finish(flat_offline(), out);
  EXPECT_TRUE(out.final_delivery);
  ASSERT_EQ(out.divisible_done.size(), 1u);
  // 8 units over 4 free processors from t=0 complete at ~2.
  EXPECT_NEAR(out.divisible_completion[0], 2.0, 1e-6);
  EXPECT_EQ(out.num_batches, 0);
}

TEST(OnlineStream, RigidArrivalKeepsItsAllotment) {
  OnlineStream stream;
  stream.open(8, {});
  const StreamArrival arrival = rigid_arrival(3, 2.0, 1.0, 0.0);
  StreamDelivery out;
  stream.feed(&arrival, 1, 0.0, flat_offline(), out);
  stream.finish(flat_offline(), out);
  ASSERT_EQ(out.num_jobs(), 1);
  EXPECT_EQ(out.placements.proc_count[0], 3);
  EXPECT_EQ(out.placements.duration[0], 2.0);
}

TEST(OnlineStream, FeedValidatesBeforeMutating) {
  Rng rng(44);
  const auto jobs = make_jobs(WorkloadFamily::Mixed, 6, 4, 1.0, rng);
  OnlineStream stream;
  stream.open(4, {});
  const FlatOfflineScheduler offline = flat_offline();
  StreamDelivery out;
  std::vector<StreamArrival> arrivals;
  for (const auto& job : jobs) {
    arrivals.push_back(moldable_arrival(job.task, job.release));
  }
  stream.feed(arrivals.data(), 3, jobs[3].release, offline, out);

  // Watermark regress.
  EXPECT_THROW(stream.feed(arrivals.data() + 3, 1, 0.0, offline, out),
               std::invalid_argument);
  // Arrival released before the previous watermark.
  StreamArrival early = arrivals[0];
  EXPECT_THROW(
      stream.feed(&early, 1, jobs[5].release + 1.0, offline, out),
      std::invalid_argument);
  // Arrival released after the new watermark.
  StreamArrival late = arrivals[4];
  EXPECT_THROW(
      stream.feed(&late, 1, arrivals[4].release - 1e-3, offline, out),
      std::invalid_argument);
  // Out-of-order arrivals inside one feed.
  StreamArrival pair[2] = {arrivals[4], arrivals[3]};
  EXPECT_THROW(
      stream.feed(pair, 2, jobs.back().release, offline, out),
      std::invalid_argument);
  // A job that can never fit the machine.
  StreamArrival wide = rigid_arrival(9, 1.0, 1.0, jobs[4].release);
  EXPECT_THROW(
      stream.feed(&wide, 1, jobs.back().release, offline, out),
      std::invalid_argument);
  EXPECT_FALSE(stream.broken());

  // Every rejection above left the stream usable: finish the run and
  // compare against the reference on the prefix actually fed.
  stream.feed(arrivals.data() + 3, 3, jobs.back().release, offline, out);
  stream.finish(offline, out);
  const std::vector<OnlineJob> fed(jobs.begin(), jobs.end());
  expect_matches_reference(
      stream.result(),
      online_batch_schedule_reference(4, fed, object_offline()));
}

TEST(OnlineStream, DecideTimeErrorBreaksTheStream) {
  // m=2 with one processor reserved across the whole horizon: a job with
  // min_procs=2 passes feed validation (fits the machine) but cannot fit
  // the reduced batch — the decide throws and poisons the stream.
  OnlineStream stream;
  stream.open(2, {{1, 0.0, 1e6}});
  const StreamArrival arrival = rigid_arrival(2, 1.0, 1.0, 0.0);
  StreamDelivery out;
  EXPECT_THROW(stream.feed(&arrival, 1, 1.0, flat_offline(), out),
               std::invalid_argument);
  EXPECT_TRUE(stream.broken());
  const StreamArrival ok = rigid_arrival(1, 1.0, 1.0, 2.0);
  EXPECT_THROW(stream.feed(&ok, 1, 3.0, flat_offline(), out),
               std::logic_error);
  // finish() closes a broken stream quietly with an empty final delivery.
  stream.finish(flat_offline(), out);
  EXPECT_TRUE(out.final_delivery);
  EXPECT_EQ(out.num_jobs(), 0);
}

TEST(OnlineStream, EngineStreamLifecycleAndPooling) {
  Rng rng(77);
  const int m = 8;
  const auto jobs = make_jobs(WorkloadFamily::Cirne, 12, m, 1.0, rng);
  const auto reference =
      online_batch_schedule_reference(m, jobs, object_offline());
  std::vector<StreamArrival> arrivals;
  for (const auto& job : jobs) {
    arrivals.push_back(moldable_arrival(job.task, job.release));
  }

  const FlatListPolicy flat_policy;
  SchedulerEngine engine(EngineOptions{1, false});
  StreamDelivery out;
  for (int round = 0; round < 3; ++round) {
    StreamConfig config;
    config.m = m;
    config.policy = &flat_policy;
    const EngineStreamId id = engine.open_stream(config);
    ASSERT_TRUE(engine.stream_open(id));
    std::vector<double> completions;
    engine.feed_stream(id, arrivals.data(), arrivals.size() / 2,
                       jobs[arrivals.size() / 2].release, out);
    completions.insert(completions.end(), out.completion.begin(),
                       out.completion.end());
    engine.feed_stream(id, arrivals.data() + arrivals.size() / 2,
                       arrivals.size() - arrivals.size() / 2,
                       jobs.back().release, out);
    completions.insert(completions.end(), out.completion.begin(),
                       out.completion.end());
    engine.close_stream(id, out);
    completions.insert(completions.end(), out.completion.begin(),
                       out.completion.end());
    EXPECT_TRUE(out.final_delivery);
    EXPECT_FALSE(engine.stream_open(id));
    EXPECT_EQ(completions, reference.completion) << "round " << round;
    // A recycled id must be rejected.
    EXPECT_THROW(engine.feed_stream(id, arrivals.data(), 0,
                                    jobs.back().release, out),
                 std::invalid_argument);
  }
  EXPECT_EQ(engine.stats().streams_opened, 3u);
  EXPECT_EQ(engine.stats().stream_feeds, 6u);
  EXPECT_EQ(engine.stats().stream_arrivals, 3 * jobs.size());
}

TEST(DivisibleFlat, WorkspaceReuseMatchesFreshRuns) {
  Rng rng(8);
  DivisibleFillWorkspace ws;
  DivisibleFillResult pooled;
  for (int round = 0; round < 3; ++round) {
    const Instance instance =
        generate_instance(WorkloadFamily::Mixed, 12 + round * 5, 8, rng);
    const auto demt = demt_schedule(instance);
    std::vector<DivisibleJob> jobs;
    for (int j = 0; j < 3 + round; ++j) {
      jobs.push_back(DivisibleJob{rng.uniform(0.5, 5.0),
                                  rng.uniform(0.5, 2.0)});
    }
    const double horizon = demt.schedule.cmax() * 1.2;
    const auto fresh =
        fill_idle_with_divisible(demt.schedule, jobs, horizon);
    FlatPlacements flat;
    flat.assign_from(demt.schedule);
    fill_idle_with_divisible_into(flat, instance.procs(), jobs.data(),
                                  jobs.size(), horizon, ws, pooled);
    ASSERT_EQ(pooled.chunks.size(), fresh.chunks.size());
    for (std::size_t c = 0; c < fresh.chunks.size(); ++c) {
      EXPECT_EQ(pooled.chunks[c].job, fresh.chunks[c].job);
      EXPECT_EQ(pooled.chunks[c].proc, fresh.chunks[c].proc);
      EXPECT_EQ(pooled.chunks[c].start, fresh.chunks[c].start);
      EXPECT_EQ(pooled.chunks[c].duration, fresh.chunks[c].duration);
    }
    EXPECT_EQ(pooled.completion, fresh.completion);
    EXPECT_EQ(pooled.placed_work, fresh.placed_work);
    EXPECT_EQ(pooled.weighted_completion_sum, fresh.weighted_completion_sum);
    EXPECT_EQ(pooled.all_placed, fresh.all_placed);
    EXPECT_EQ(pooled.idle_capacity, fresh.idle_capacity);
  }
}

}  // namespace
}  // namespace moldsched
