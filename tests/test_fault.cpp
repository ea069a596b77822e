/// Contracts of the serving layer's fault tolerance
/// (serve/async_scheduler.hpp), with faults injected through a policy
/// that throws or stalls on demand (gate::FaultyPolicy): a request whose
/// policy throws fails alone while its batch neighbours finish Done and
/// bit-identical, timed waits bound a stalled strand without consuming the
/// ticket, cancel()/max_queue_ms drop pending one-shots as Cancelled, the
/// watchdog fails a stalled shard and survivors absorb its queue, and —
/// the acceptance gate — killing a shard mid-tape re-pins its streams,
/// live sessions and staged speculation included, with bit-identical
/// deliveries and no lost tickets.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/policy.hpp"
#include "engine/engine.hpp"
#include "gate_workloads.hpp"
#include "reference/online_reference.hpp"
#include "serve/async_scheduler.hpp"
#include "sim/online.hpp"
#include "sim/stream.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace moldsched {
namespace {

const FlatListPolicy kFlatList;

std::vector<Instance> make_instances(int count, int n, int m,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Instance> instances;
  for (int i = 0; i < count; ++i) {
    instances.push_back(generate_instance(WorkloadFamily::Mixed, n, m, rng));
  }
  return instances;
}

std::vector<OnlineJob> make_jobs(int count, int m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<OnlineJob> jobs;
  double release = 0.0;
  for (int i = 0; i < count; ++i) {
    Instance tmp = generate_instance(WorkloadFamily::Mixed, 1, m, rng);
    jobs.push_back(OnlineJob{tmp.task(0), release});
    release += rng.uniform(0.05, 1.0);
  }
  return jobs;
}

OfflineScheduler object_offline() {
  return [](const Instance& batch) {
    ListPassWorkspace list;
    FlatPlacements out;
    flat_list_schedule(batch, list, out);
    return out;
  };
}

/// Block (up to 30 s) until `async` has migrated `count` streams. A shard
/// the watchdog failed re-pins its streams only after its stalled call
/// returns, and a feed routed to it before then is failed rather than
/// served, so a test that feeds a migrating stream again waits here.
void await_migrations(const AsyncScheduler& async, std::uint64_t count) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (async.stats().streams_migrated < count &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

// ---------------------------------------------------------------------------
// Per-request failure isolation.

TEST(FaultTolerance, OneFailingRequestLeavesItsBatchNeighboursDone) {
  // Three valid DEMT requests and one zero-task instance, on which
  // demt_schedule throws, coalesce into one engine batch on one shard.
  // Only the empty one fails, with its own message; its neighbours equal
  // the synchronous engine's results bit for bit.
  const DemtPolicy demt;
  const auto instances = make_instances(3, 20, 8, 31);
  std::vector<EngineRequest> valid(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    valid[i].instance = &instances[i];
    valid[i].policy = &demt;
  }
  SchedulerEngine sync(EngineOptions{1, false});
  std::vector<EngineResult> reference;
  sync.schedule_batch(valid, reference);

  const Instance empty(8);
  EngineRequest failing;
  failing.instance = &empty;
  failing.policy = &demt;
  std::vector<EngineRequest> requests = valid;
  requests.insert(requests.begin() + 1, failing);  // mid-batch

  AsyncOptions options;
  options.shards = 1;
  options.max_batch = 4;
  options.flush_after_ms = 1e6;  // one batch, dispatched by size or flush()
  AsyncScheduler async(options);
  std::vector<Ticket> tickets;
  for (const EngineRequest& request : requests) {
    tickets.push_back(async.submit(request));
    ASSERT_TRUE(tickets.back().accepted());
  }
  async.flush();

  EXPECT_EQ(async.wait(tickets[1]), TicketStatus::Failed);
  EXPECT_EQ(async.error(tickets[1]),
            "demt_schedule: empty instance (policy: demt)");
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    if (i == 1) continue;
    const std::size_t ref = i == 0 ? 0 : i - 1;
    ASSERT_EQ(async.wait(tickets[i]), TicketStatus::Done)
        << i << ": " << async.error(tickets[i]);
    EngineResult result;
    ASSERT_TRUE(async.take(tickets[i], result));
    EXPECT_EQ(result.cmax, reference[ref].cmax) << i;
    EXPECT_EQ(result.weighted_completion_sum,
              reference[ref].weighted_completion_sum)
        << i;
    const DemtDiagnostics& got = result.diag;
    const DemtDiagnostics& want = reference[ref].diag;
    EXPECT_EQ(got.cmax_estimate, want.cmax_estimate) << i;
    EXPECT_EQ(got.cmax_lower_bound, want.cmax_lower_bound) << i;
    EXPECT_EQ(got.grid_k, want.grid_k) << i;
    EXPECT_EQ(got.num_batches, want.num_batches) << i;
    EXPECT_EQ(got.merged_stacks, want.merged_stacks) << i;
    EXPECT_EQ(got.shuffle_improvements, want.shuffle_improvements) << i;
    EXPECT_EQ(got.dual_tests, want.dual_tests) << i;
  }
  EngineResult result;
  EXPECT_TRUE(async.take(tickets[1], result));
  async.drain();  // the counters publish after the last status
  const AsyncStats stats = async.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.batches, 1u);
}

// ---------------------------------------------------------------------------
// Timed wait, cancel, lane deadline drop.

TEST(FaultTolerance, TimedWaitBoundsAStalledStrand) {
  const auto instances = make_instances(1, 16, 8, 7);
  gate::FaultyPolicy faulty(kFlatList);
  faulty.sleep_on(instances[0], 200.0);
  EngineRequest request;
  request.instance = &instances[0];
  request.policy = &faulty;

  AsyncOptions options;
  options.shards = 1;
  options.flush_after_ms = 0.0;
  AsyncScheduler async(options);

  const Ticket ticket = async.submit(request);
  ASSERT_TRUE(ticket.accepted());
  // The policy sleeps 200ms before scheduling; a 2ms wait must give up —
  // without consuming the ticket, which later completes normally.
  EXPECT_EQ(async.wait(ticket, 2.0), TicketStatus::TimedOut);
  EXPECT_EQ(async.wait(ticket), TicketStatus::Done);
  EngineResult result;
  EXPECT_TRUE(async.take(ticket, result));
  EXPECT_EQ(async.poll(ticket), TicketStatus::Invalid);
  EXPECT_EQ(faulty.fired(), 1);
}

TEST(FaultTolerance, CancelDropsPendingOneShotsButNeverStreams) {
  const auto instances = make_instances(2, 16, 8, 8);
  EngineRequest request;
  request.instance = &instances[0];
  request.policy = &kFlatList;

  AsyncOptions options;
  options.shards = 1;
  options.max_batch = 64;
  options.flush_after_ms = 1e6;  // nothing dispatches until wait() flushes
  AsyncScheduler async(options);

  const Ticket keep = async.submit(request);
  const Ticket drop = async.submit(request);
  ASSERT_TRUE(keep.accepted());
  ASSERT_TRUE(drop.accepted());
  EXPECT_TRUE(async.cancel(drop));
  EXPECT_EQ(async.wait(drop), TicketStatus::Cancelled);
  EXPECT_NE(async.error(drop).find("cancelled by caller"), std::string::npos);
  EXPECT_EQ(async.wait(keep), TicketStatus::Done);  // neighbour unaffected
  EngineResult result;
  EXPECT_TRUE(async.take(drop, result));  // Cancelled still frees its slot
  EXPECT_FALSE(result.has_schedule);
  EXPECT_TRUE(async.take(keep, result));
  EXPECT_FALSE(async.cancel(keep));  // taken ticket: nothing to cancel
  EXPECT_EQ(async.stats().cancelled, 1u);

  // Stream feeds are never cancellable: a skipped feed would corrupt the
  // tape. The refused cancel leaves the feed to complete normally.
  StreamConfig stream_config;
  stream_config.m = 4;
  stream_config.policy = &kFlatList;
  const StreamTicket stream = async.open_stream(stream_config);
  ASSERT_TRUE(stream.accepted());
  const auto jobs = make_jobs(2, 4, 9);
  std::vector<StreamArrival> arrivals;
  for (const auto& job : jobs) {
    arrivals.push_back(moldable_arrival(job.task, job.release));
  }
  const Ticket feed = async.submit_stream(stream, arrivals.data(),
                                          arrivals.size(),
                                          jobs.back().release);
  ASSERT_TRUE(feed.accepted());
  EXPECT_FALSE(async.cancel(feed));
  EXPECT_EQ(async.wait(feed), TicketStatus::Done);
  StreamDelivery delivery;
  EXPECT_TRUE(async.take_stream(feed, delivery));
  const Ticket close = async.close_stream(stream);
  EXPECT_EQ(async.wait(close), TicketStatus::Done);
  EXPECT_TRUE(async.take_stream(close, delivery));
}

TEST(FaultTolerance, LaneMaxQueueMsDropsStaleRequests) {
  const auto instances = make_instances(1, 16, 8, 10);
  EngineRequest request;
  request.instance = &instances[0];
  request.policy = &kFlatList;

  AsyncOptions options;
  options.shards = 1;
  options.max_batch = 64;
  options.flush_after_ms = 1e6;
  options.lanes = {LaneSpec{"patient", 1, 0, 0.0},
                   LaneSpec{"deadline", 1, 0, 1.0}};
  AsyncScheduler async(options);

  const Ticket stale = async.submit(request, 1);
  ASSERT_TRUE(stale.accepted());
  EXPECT_EQ(stale.lane, 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(async.wait(stale), TicketStatus::Cancelled);
  EXPECT_NE(async.error(stale).find("max_queue_ms"), std::string::npos);
  EngineResult result;
  EXPECT_TRUE(async.take(stale, result));
  EXPECT_EQ(async.stats().dropped, 1u);

  // The patient lane has no deadline: the same wait serves it.
  const Ticket patient = async.submit(request, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(async.wait(patient), TicketStatus::Done);
  EXPECT_TRUE(async.take(patient, result));
}

// ---------------------------------------------------------------------------
// Watchdog failover.

TEST(FaultTolerance, WatchdogFailsStalledShardAndSurvivorsAbsorbQueue) {
  const auto instances = make_instances(8, 20, 8, 11);
  std::vector<EngineRequest> requests(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    requests[i].instance = &instances[i];
    requests[i].policy = &kFlatList;
  }

  SchedulerEngine sync(EngineOptions{1, false});
  std::vector<EngineResult> reference;
  sync.schedule_batch(requests, reference);

  gate::FaultyPolicy faulty(kFlatList);
  faulty.sleep_on(instances[0], 400.0);
  for (EngineRequest& request : requests) request.policy = &faulty;
  AsyncOptions options;
  options.shards = 2;
  options.max_batch = 1;  // the stall pins exactly one request
  options.flush_after_ms = 0.0;
  options.watchdog_ms = 20.0;
  AsyncScheduler async(options);

  std::vector<Ticket> tickets;
  for (const auto& request : requests) {
    tickets.push_back(async.submit(request));
    ASSERT_TRUE(tickets.back().accepted());
  }
  // The first request's shard sleeps 400ms inside its batch; the 20ms
  // watchdog declares it failed and reroutes its queued work to the other
  // shard, so no request waits behind the stall — and none is lost or
  // duplicated.
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(async.wait(tickets[i]), TicketStatus::Done) << i;
    EngineResult result;
    ASSERT_TRUE(async.take(tickets[i], result));
    EXPECT_EQ(result.cmax, reference[i].cmax) << i;
    EXPECT_EQ(result.weighted_completion_sum,
              reference[i].weighted_completion_sum)
        << i;
  }
  const AsyncStats stats = async.stats();
  EXPECT_EQ(stats.completed, requests.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.shards_failed, 1u);
  EXPECT_GE(stats.failed_over, 1u);
  EXPECT_EQ(async.in_flight(), 0u);
}

TEST(FaultTolerance, WatchdogFailedCloseReleasesTheStreamEntry) {
  // The stream's policy stalls 300ms inside its feed; the close queued
  // behind it is failed by the 20ms watchdog. The close
  // still owns the stream's table entry, so the stalled strand must free
  // it when it resumes: afterwards nothing is open, the close counts, and
  // the single table entry takes a new stream.
  const int m = 8;
  AsyncOptions options;
  options.shards = 2;
  options.max_batch = 1;  // the stalled batch holds the feed alone
  options.max_streams = 1;
  options.flush_after_ms = 0.0;
  options.watchdog_ms = 20.0;
  AsyncScheduler async(options);

  const std::vector<OnlineJob> jobs = make_jobs(3, m, 21);
  std::vector<StreamArrival> arrivals;
  for (const OnlineJob& job : jobs) {
    arrivals.push_back(moldable_arrival(job.task, job.release));
  }
  gate::FaultyPolicy faulty(kFlatList);
  faulty.sleep_on_call(1, 300.0);
  const StreamTicket stream =
      async.open_stream(StreamConfig{m, nullptr, &faulty});
  ASSERT_TRUE(stream.accepted());
  const Ticket feed = async.submit_stream(stream, arrivals.data(),
                                          arrivals.size(), 1e9);
  ASSERT_TRUE(feed.accepted());
  const Ticket close = async.close_stream(stream);
  ASSERT_TRUE(close.accepted());
  EXPECT_EQ(async.wait(close), TicketStatus::Failed);
  EXPECT_EQ(async.wait(feed), TicketStatus::Done) << async.error(feed);
  async.drain();

  AsyncStats stats = async.stats();
  EXPECT_EQ(stats.shards_failed, 1u);
  EXPECT_EQ(stats.streams_closed, 1u);
  EXPECT_EQ(async.open_streams(), 0u);
  EXPECT_FALSE(async.close_stream(stream).accepted());

  const StreamTicket reopened =
      async.open_stream(StreamConfig{m, nullptr, &kFlatList});
  ASSERT_TRUE(reopened.accepted());
  const Ticket final_close = async.close_stream(reopened);
  ASSERT_TRUE(final_close.accepted());
  EXPECT_EQ(async.wait(final_close), TicketStatus::Done)
      << async.error(final_close);
  async.drain();
  stats = async.stats();
  EXPECT_EQ(stats.streams_closed, 2u);
  EXPECT_EQ(async.open_streams(), 0u);
}

// ---------------------------------------------------------------------------
// The acceptance gate: kill a shard mid-tape.

TEST(FaultTolerance, KillAShardMidTapeMigratesStreamsBitIdentically) {
  const int m = 8;
  const int kStreams = 4;
  const std::size_t kChunk = 3;

  std::vector<std::vector<OnlineJob>> tapes;
  std::vector<OnlineResult> references;
  for (int s = 0; s < kStreams; ++s) {
    tapes.push_back(make_jobs(12, m, 100 + static_cast<std::uint64_t>(s)));
    references.push_back(
        online_batch_schedule_reference(m, tapes.back(), object_offline()));
  }
  const auto instances = make_instances(8, 20, m, 12);
  std::vector<EngineRequest> requests(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    requests[i].instance = &instances[i];
    requests[i].policy = &kFlatList;
  }
  SchedulerEngine sync(EngineOptions{1, false});
  std::vector<EngineResult> reference;
  sync.schedule_batch(requests, reference);

  AsyncOptions options;
  options.shards = 4;
  options.max_batch = 4;
  options.flush_after_ms = 0.0;
  options.watchdog_ms = 20.0;
  AsyncScheduler async(options);

  // Stream 1's policy stalls 200ms on its second call, so the watchdog
  // kills the stream's shard mid-tape. Opened back-to-back, the four
  // streams pin to four distinct shards (round-robin routing), so the
  // doomed shard holds exactly one.
  gate::FaultyPolicy faulty(kFlatList);
  faulty.sleep_on_call(2, 200.0);
  const SchedulingPolicy* const stalling = &faulty;
  std::vector<StreamTicket> streams;
  for (int s = 0; s < kStreams; ++s) {
    streams.push_back(async.open_stream(
        StreamConfig{m, nullptr, s == 1 ? stalling : &kFlatList}));
    ASSERT_TRUE(streams.back().accepted());
  }

  // Feed all tapes chunk by chunk (waiting per feed so deliveries and the
  // stalled call stay deterministic), with one-shot traffic interleaved
  // across every shard — including the dead one, whose strand forwards
  // late-routed work to survivors.
  std::vector<std::vector<double>> completions(kStreams);
  std::vector<int> next_job(kStreams, 0);
  StreamDelivery delivery;
  std::size_t next_request = 0;
  std::vector<std::pair<Ticket, std::size_t>> one_shots;
  const std::size_t chunks_per_stream =
      (tapes[0].size() + kChunk - 1) / kChunk;
  for (std::size_t c = 0; c < chunks_per_stream; ++c) {
    for (int s = 0; s < kStreams; ++s) {
      const auto& jobs = tapes[static_cast<std::size_t>(s)];
      const std::size_t first = c * kChunk;
      const std::size_t last = std::min(jobs.size(), first + kChunk);
      std::vector<StreamArrival> arrivals;
      for (std::size_t j = first; j < last; ++j) {
        arrivals.push_back(moldable_arrival(jobs[j].task, jobs[j].release));
      }
      const double watermark =
          last < jobs.size() ? jobs[last].release : jobs.back().release;
      const Ticket feed = async.submit_stream(
          streams[static_cast<std::size_t>(s)], arrivals.data(),
          arrivals.size(), watermark);
      ASSERT_TRUE(feed.accepted());
      ASSERT_EQ(async.wait(feed), TicketStatus::Done)
          << "stream " << s << " chunk " << c << ": " << async.error(feed);
      ASSERT_TRUE(async.take_stream(feed, delivery));
      if (faulty.fired() > 0) await_migrations(async, 1);
      EXPECT_EQ(delivery.first_job, next_job[static_cast<std::size_t>(s)]);
      next_job[static_cast<std::size_t>(s)] += delivery.num_jobs();
      completions[static_cast<std::size_t>(s)].insert(
          completions[static_cast<std::size_t>(s)].end(),
          delivery.completion.begin(), delivery.completion.end());
      if (next_request < requests.size()) {
        one_shots.emplace_back(async.submit(requests[next_request]),
                               next_request);
        ASSERT_TRUE(one_shots.back().first.accepted());
        ++next_request;
      }
    }
  }
  ASSERT_EQ(faulty.fired(), 1) << "the stall must hit mid-tape";
  for (int s = 0; s < kStreams; ++s) {
    const Ticket close = async.close_stream(streams[s]);
    ASSERT_TRUE(close.accepted());
    ASSERT_EQ(async.wait(close), TicketStatus::Done)
        << "stream " << s << ": " << async.error(close);
    ASSERT_TRUE(async.take_stream(close, delivery));
    EXPECT_TRUE(delivery.final_delivery);
    next_job[s] += delivery.num_jobs();
    completions[s].insert(completions[s].end(), delivery.completion.begin(),
                          delivery.completion.end());
    // Migrated or not, the stream's tape replays bit-identically against
    // the off-line simulator on the full arrival list.
    const OnlineResult& ref = references[static_cast<std::size_t>(s)];
    EXPECT_EQ(next_job[s], static_cast<int>(tapes[s].size())) << s;
    EXPECT_EQ(completions[s], ref.completion) << s;
    EXPECT_EQ(delivery.cmax, ref.cmax) << s;
    EXPECT_EQ(delivery.weighted_completion_sum, ref.weighted_completion_sum)
        << s;
  }

  // No one-shot ticket was lost either side of the failover, and every
  // result matches the synchronous engine.
  for (const auto& [ticket, index] : one_shots) {
    EXPECT_EQ(async.wait(ticket), TicketStatus::Done) << index;
    EngineResult result;
    ASSERT_TRUE(async.take(ticket, result));
    EXPECT_EQ(result.cmax, reference[index].cmax) << index;
    EXPECT_EQ(result.weighted_completion_sum,
              reference[index].weighted_completion_sum)
        << index;
  }

  const AsyncStats stats = async.stats();
  EXPECT_EQ(stats.shards_failed, 1u);
  EXPECT_EQ(stats.streams_migrated, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(async.in_flight(), 0u);
  EXPECT_EQ(async.open_streams(), 0u);
}

/// Every field of two deliveries, bit for bit.
void expect_identical_delivery(const StreamDelivery& a,
                               const StreamDelivery& b) {
  EXPECT_EQ(a.first_job, b.first_job);
  gate::expect_identical_placements(a.placements, b.placements);
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

TEST(FaultTolerance, KillAShardMidTapeMovesSpeculativeSessionsBitIdentically) {
  // A migrating stream keeps its session, staged speculative decisions
  // included. Every delivery, before and after the death, must equal the
  // bare non-speculative OnlineStream's on the same feeds. A second pass
  // then reopens every stream on the survivors: each draws a session from
  // a free list, so a session owned twice (or lost with the dead shard's
  // list) would show up as a diverging delivery.
  const int m = 8;
  const int kStreams = 4;
  const std::size_t kChunk = 3;
  std::vector<std::vector<StreamArrival>> tapes(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    for (const OnlineJob& job :
         make_jobs(12, m, 300 + static_cast<std::uint64_t>(s))) {
      tapes[s].push_back(moldable_arrival(job.task, job.release));
    }
  }
  const std::size_t chunks = (tapes[0].size() + kChunk - 1) / kChunk;
  const auto chunk_end = [&](std::size_t c) {
    return std::min(tapes[0].size(), (c + 1) * kChunk);
  };
  const auto watermark = [&](int s, std::size_t c) {
    const std::size_t last = chunk_end(c);
    return last < tapes[s].size() ? tapes[s][last].release
                                  : tapes[s].back().release;
  };

  // Reference: one bare session per tape, same chunking, speculation off.
  const auto policy_ws = kFlatList.make_workspace();
  std::vector<std::vector<StreamDelivery>> reference(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    OnlineStream bare;
    bare.open(m, {});
    StreamDelivery out;
    for (std::size_t c = 0; c < chunks; ++c) {
      bare.feed(tapes[s].data() + c * kChunk, chunk_end(c) - c * kChunk,
                watermark(s, c), kFlatList, *policy_ws, out);
      reference[s].push_back(out);
    }
    bare.finish(kFlatList, *policy_ws, out);
    reference[s].push_back(out);
  }

  AsyncOptions options;
  options.shards = 4;
  options.flush_after_ms = 0.0;
  options.watchdog_ms = 20.0;
  AsyncScheduler async(options);
  // In the first pass, stream 1's policy stalls 200ms on its second call:
  // the watchdog kills the stream's shard while the stream holds a live
  // session (and possibly staged decisions), which moves when the call
  // returns.
  gate::FaultyPolicy faulty(kFlatList);
  faulty.sleep_on_call(2, 200.0);
  StreamConfig config{m, nullptr, &kFlatList};
  config.speculate = true;
  StreamConfig faulty_config = config;
  faulty_config.policy = &faulty;
  StreamDelivery delivery;
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(testing::Message() << "pass " << pass);
    std::vector<StreamTicket> streams;
    for (int s = 0; s < kStreams; ++s) {
      streams.push_back(async.open_stream(
          pass == 0 && s == 1 ? faulty_config : config));
      ASSERT_TRUE(streams.back().accepted());
    }
    for (std::size_t c = 0; c <= chunks; ++c) {
      for (int s = 0; s < kStreams; ++s) {
        const Ticket ticket =
            c < chunks ? async.submit_stream(streams[s],
                                             tapes[s].data() + c * kChunk,
                                             chunk_end(c) - c * kChunk,
                                             watermark(s, c))
                       : async.close_stream(streams[s]);
        ASSERT_TRUE(ticket.accepted());
        ASSERT_EQ(async.wait(ticket), TicketStatus::Done)
            << "stream " << s << " feed " << c << ": " << async.error(ticket);
        ASSERT_TRUE(async.take_stream(ticket, delivery));
        if (faulty.fired() > 0) await_migrations(async, 1);
        SCOPED_TRACE(testing::Message() << "stream " << s << " feed " << c);
        expect_identical_delivery(delivery, reference[s][c]);
      }
    }
  }

  const AsyncStats stats = async.stats();
  EXPECT_EQ(faulty.fired(), 1);
  EXPECT_EQ(stats.shards_failed, 1u);
  EXPECT_EQ(stats.streams_migrated, 1u);
  EXPECT_GT(stats.spec_decided, 0u);
  EXPECT_EQ(stats.spec_decided, stats.spec_committed + stats.spec_rolled_back);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(async.open_streams(), 0u);
  EXPECT_EQ(async.in_flight(), 0u);
}

/// The chaos run behind the serving layer's loss gate: seeded faults
/// over two FlatList streams and rounds of one-shot traffic, with the
/// watchdog and stream migration active. One-shot instances throw on
/// their next one or two calls or stall briefly (a floor of one of each
/// plus seeded picks), and the first call of a seeded stream's policy
/// stalls past the watchdog, killing that stream's shard. Every accepted
/// ticket reaches a terminal state and is taken exactly once; exactly the
/// requests whose policy threw fail, and every Done one-shot equals the
/// synchronous engine's result bit for bit. Every stream, migrated or
/// not, replays the off-line simulator bit-identically. Each
/// stream feed is waited alone, so the watchdog never finds a stream
/// feed queued behind the stall (failover sheds those by design, which
/// is not the loss-free path pinned here).
void run_chaos(std::uint64_t seed) {
  constexpr int kChaosStreams = 2;
  constexpr std::size_t kChunk = 4;
  const int m = gate::kM;
  const int rounds = gate::kServeReps;

  std::vector<std::vector<OnlineJob>> tapes(kChaosStreams);
  std::vector<OnlineResult> references;
  Rng stream_rng(seed ^ 0x53545245414DULL);  // "STREAM"
  for (auto& tape : tapes) {
    double release = 0.0;
    for (std::size_t j = 0; j < kChunk * static_cast<std::size_t>(rounds);
         ++j) {
      Instance tmp = generate_instance(WorkloadFamily::Mixed, 1, m, stream_rng);
      tape.push_back(OnlineJob{tmp.task(0), release});
      release += stream_rng.uniform(0.05, 1.0);
    }
    references.push_back(
        online_batch_schedule_reference(m, tape, object_offline()));
  }
  const auto instances = gate::serve_instances();
  gate::FaultyPolicy one_shot_faults(kFlatList);
  one_shot_faults.throw_on(instances[0], 1);
  one_shot_faults.sleep_on(instances[1], 2.0);
  Rng fault_rng(seed ^ 0x4641554C54ULL);  // "FAULT"
  for (std::size_t i = 2; i < instances.size(); ++i) {
    const double u = fault_rng.uniform();
    if (u < 0.15) {
      one_shot_faults.throw_on(instances[i], u < 0.05 ? 2 : 1);
    } else if (u < 0.20) {
      one_shot_faults.sleep_on(instances[i], 2.0);
    }
  }
  std::vector<EngineRequest> requests(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    requests[i].instance = &instances[i];
    requests[i].policy = &kFlatList;
  }
  SchedulerEngine sync(EngineOptions{1, false});
  std::vector<EngineResult> reference;
  sync.schedule_batch(requests, reference);
  for (EngineRequest& request : requests) request.policy = &one_shot_faults;
  gate::FaultyPolicy stream_fault(kFlatList);
  stream_fault.sleep_on_call(1, 250.0);

  AsyncOptions options;
  options.shards = 4;
  options.max_batch = gate::kServeMaxBatch;
  options.flush_after_ms = gate::kServeFlushMs;
  options.queue_capacity = 4096;
  options.watchdog_ms = 50.0;
  AsyncScheduler async(options);

  std::vector<StreamTicket> streams;
  const auto doomed = static_cast<int>(seed % kChaosStreams);
  const SchedulingPolicy* const stalling = &stream_fault;
  for (int s = 0; s < kChaosStreams; ++s) {
    streams.push_back(async.open_stream(StreamConfig{
        m, nullptr, s == doomed ? stalling : &kFlatList}));
    ASSERT_TRUE(streams.back().accepted());
  }
  std::vector<std::vector<double>> completions(kChaosStreams);
  std::vector<int> next_job(kChaosStreams, 0);
  StreamDelivery delivery;
  EngineResult result;
  std::uint64_t lost = 0;
  std::uint64_t duplicated = 0;
  for (int r = 0; r < rounds; ++r) {
    // One waited feed per stream, then a full round of one-shots.
    for (std::size_t s = 0; s < tapes.size(); ++s) {
      const auto& jobs = tapes[s];
      const std::size_t first = static_cast<std::size_t>(r) * kChunk;
      const std::size_t last = std::min(jobs.size(), first + kChunk);
      std::vector<StreamArrival> arrivals;
      for (std::size_t j = first; j < last; ++j) {
        arrivals.push_back(moldable_arrival(jobs[j].task, jobs[j].release));
      }
      const double watermark =
          last < jobs.size() ? jobs[last].release : jobs.back().release;
      const Ticket feed = async.submit_stream(streams[s], arrivals.data(),
                                              arrivals.size(), watermark);
      if (!feed.accepted() || async.wait(feed) != TicketStatus::Done ||
          !async.take_stream(feed, delivery)) {
        ++lost;
        continue;
      }
      if (stream_fault.fired() > 0) await_migrations(async, 1);
      EXPECT_EQ(delivery.first_job, next_job[s]) << "stream " << s;
      next_job[s] += delivery.num_jobs();
      completions[s].insert(completions[s].end(), delivery.completion.begin(),
                            delivery.completion.end());
    }
    std::vector<std::pair<Ticket, std::size_t>> tickets;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const Ticket ticket = async.submit(requests[i]);
      if (ticket.accepted()) tickets.emplace_back(ticket, i);
    }
    for (const auto& [ticket, index] : tickets) {
      const TicketStatus status = async.wait(ticket, 30000.0);
      // Failed = this request's policy threw: terminal and accounted.
      if (status != TicketStatus::Done && status != TicketStatus::Failed) {
        ++lost;
        continue;
      }
      const std::string error = async.error(ticket);
      if (!async.take(ticket, result)) {
        ++lost;
        continue;
      }
      if (status == TicketStatus::Done) {
        EXPECT_EQ(result.cmax, reference[index].cmax) << index;
        EXPECT_EQ(result.weighted_completion_sum,
                  reference[index].weighted_completion_sum)
            << index;
      } else {
        EXPECT_EQ(error, "FaultyPolicy: injected throw (policy: flatlist)")
            << index;
      }
      if (async.take(ticket, result) ||
          async.poll(ticket) != TicketStatus::Invalid) {
        ++duplicated;
      }
    }
  }
  for (std::size_t s = 0; s < tapes.size(); ++s) {
    const Ticket close = async.close_stream(streams[s]);
    if (!close.accepted() || async.wait(close) != TicketStatus::Done ||
        !async.take_stream(close, delivery)) {
      ++lost;
      continue;
    }
    next_job[s] += delivery.num_jobs();
    completions[s].insert(completions[s].end(), delivery.completion.begin(),
                          delivery.completion.end());
    const OnlineResult& ref = references[s];
    EXPECT_EQ(next_job[s], static_cast<int>(tapes[s].size())) << s;
    EXPECT_EQ(completions[s], ref.completion) << s;
    EXPECT_EQ(delivery.cmax, ref.cmax) << s;
    EXPECT_EQ(delivery.weighted_completion_sum, ref.weighted_completion_sum)
        << s;
  }
  EXPECT_EQ(lost, 0u);
  EXPECT_EQ(duplicated, 0u);
  async.drain();  // the counters publish after the last status
  const AsyncStats stats = async.stats();
  EXPECT_GE(one_shot_faults.throws_fired(), 1);
  EXPECT_EQ(stats.failed,
            static_cast<std::uint64_t>(one_shot_faults.throws_fired()));
  EXPECT_EQ(stream_fault.fired(), 1);
  EXPECT_GE(stats.shards_failed, 1u);
  EXPECT_EQ(stats.streams_migrated, 1u);
}

TEST(FaultTolerance, ChaosRunLosesNothingAndReplaysStreamsBitIdentically) {
  // The default seed plus the two seeds the sanitizer and Release chaos
  // runs used.
  for (const std::uint64_t seed : {gate::kSeed, std::uint64_t{271828182},
                                   std::uint64_t{314159265}}) {
    SCOPED_TRACE(testing::Message() << "chaos seed " << seed);
    run_chaos(seed);
  }
}

}  // namespace
}  // namespace moldsched
