/// Contracts of the fault-tolerance layer (serve/fault.hpp +
/// serve/async_scheduler.hpp): the FaultInjector is a deterministic pure
/// function of its plan, bounded retry recovers injected engine throws
/// (and reports policy + attempts on exhaustion), timed waits bound a
/// stalled strand without consuming the ticket, cancel()/max_queue_ms
/// drop pending one-shots as Cancelled, the watchdog fails a stalled
/// shard and survivors absorb its queue, and — the acceptance gate —
/// killing a shard mid-tape migrates its pinned streams via checkpoint
/// with bit-identical deliveries and no lost tickets.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/policy.hpp"
#include "engine/engine.hpp"
#include "serve/admission.hpp"
#include "serve/async_scheduler.hpp"
#include "serve/fault.hpp"
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
    return out.to_schedule(batch.procs());
  };
}

// ---------------------------------------------------------------------------
// FaultInjector: pure, seeded, scripted, validated.

TEST(FaultInjector, DeterministicSeededAndScripted) {
  FaultPlan plan;
  plan.seed = 42;
  plan.throw_rate = 0.3;
  plan.stall_rate = 0.2;
  plan.death_rate = 0.1;
  plan.stall_ms = 7.0;
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  EXPECT_TRUE(a.enabled());
  int throws = 0, stalls = 0, deaths = 0;
  for (int shard = 0; shard < 4; ++shard) {
    for (std::uint64_t batch = 0; batch < 200; ++batch) {
      const FaultDecision da = a.decide(shard, batch);
      const FaultDecision db = b.decide(shard, batch);
      EXPECT_EQ(da.kind, db.kind);  // same plan => same decision, always
      EXPECT_EQ(da.stall_ms, db.stall_ms);
      if (da.kind == FaultKind::EngineThrow) ++throws;
      if (da.kind == FaultKind::SlowBatch) {
        ++stalls;
        EXPECT_EQ(da.stall_ms, 7.0);
      }
      if (da.kind == FaultKind::ShardDeath) ++deaths;
    }
  }
  // With 800 draws at rates .3/.2/.1, every kind fires many times.
  EXPECT_GT(throws, 100);
  EXPECT_GT(stalls, 50);
  EXPECT_GT(deaths, 20);

  // A different seed reshuffles which points fire.
  auto reseeded = plan;
  reseeded.seed = 43;
  const FaultInjector c(reseeded);
  int differing = 0;
  for (std::uint64_t batch = 0; batch < 200; ++batch) {
    if (a.decide(0, batch).kind != c.decide(0, batch).kind) ++differing;
  }
  EXPECT_GT(differing, 0);

  // Scripted points beat the rates and hit exactly their (shard, batch).
  FaultPlan scripted;
  scripted.points.push_back(
      FaultPoint{FaultKind::SlowBatch, /*shard=*/2, /*batch=*/7,
                 /*stall_ms=*/33.0});
  scripted.points.push_back(
      FaultPoint{FaultKind::ShardDeath, /*shard=*/-1, /*batch=*/9, 0.0});
  const FaultInjector s(scripted);
  EXPECT_EQ(s.decide(2, 7).kind, FaultKind::SlowBatch);
  EXPECT_EQ(s.decide(2, 7).stall_ms, 33.0);
  EXPECT_EQ(s.decide(1, 7).kind, FaultKind::None);
  EXPECT_EQ(s.decide(2, 6).kind, FaultKind::None);
  EXPECT_EQ(s.decide(0, 9).kind, FaultKind::ShardDeath);  // -1 = any shard
  EXPECT_EQ(s.decide(3, 9).kind, FaultKind::ShardDeath);

  const FaultInjector off;  // default plan: chaos disabled
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.decide(0, 0).kind, FaultKind::None);
}

TEST(FaultInjector, ValidatesPlanAndRetryOptions) {
  FaultPlan plan;
  plan.throw_rate = -0.1;
  EXPECT_THROW(FaultInjector{plan}, std::invalid_argument);
  plan.throw_rate = 1.5;
  EXPECT_THROW(FaultInjector{plan}, std::invalid_argument);
  plan.throw_rate = 0.7;
  plan.death_rate = 0.5;  // sum > 1: the rates partition one draw
  EXPECT_THROW(FaultInjector{plan}, std::invalid_argument);
  plan = {};
  plan.points.push_back(FaultPoint{});  // scripted point without a kind
  EXPECT_THROW(FaultInjector{plan}, std::invalid_argument);

  // The scheduler validates its chaos/retry options at construction.
  AsyncOptions bad_rates;
  bad_rates.faults.death_rate = 2.0;
  EXPECT_THROW(AsyncScheduler{bad_rates}, std::invalid_argument);
  AsyncOptions bad_attempts;
  bad_attempts.retry.max_attempts = 0;
  EXPECT_THROW(AsyncScheduler{bad_attempts}, std::invalid_argument);
  AsyncOptions bad_backoff;
  bad_backoff.retry.max_attempts = 2;
  bad_backoff.retry.base_backoff_ms = -1.0;
  EXPECT_THROW(AsyncScheduler{bad_backoff}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Retry with backoff.

TEST(FaultTolerance, RetryRecoversInjectedThrowBitIdentically) {
  const auto instances = make_instances(1, 24, 8, 5);
  EngineRequest request;
  request.instance = &instances[0];
  request.policy = &kFlatList;

  SchedulerEngine sync(EngineOptions{1, false});
  std::vector<EngineResult> reference;
  sync.schedule_batch({request}, reference);

  AsyncOptions options;
  options.shards = 1;
  options.flush_after_ms = 0.0;
  options.retry = RetryPolicy{3, 0.05};
  options.faults.points.push_back(
      FaultPoint{FaultKind::EngineThrow, -1, /*batch=*/0, 0.0});
  AsyncScheduler async(options);

  const Ticket ticket = async.submit(request);
  ASSERT_TRUE(ticket.accepted());
  EXPECT_EQ(async.wait(ticket), TicketStatus::Done);
  EXPECT_EQ(async.attempts(ticket), 2u);  // one throw, one clean attempt
  EngineResult result;
  ASSERT_TRUE(async.take(ticket, result));
  EXPECT_EQ(result.cmax, reference[0].cmax);
  EXPECT_EQ(result.weighted_completion_sum,
            reference[0].weighted_completion_sum);
  const AsyncStats stats = async.stats();
  EXPECT_EQ(stats.retried, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_GE(stats.faults_injected, 1u);
}

TEST(FaultTolerance, RetryExhaustionReportsPolicyAndAttempts) {
  const auto instances = make_instances(1, 16, 8, 6);
  EngineRequest request;
  request.instance = &instances[0];
  request.policy = &kFlatList;

  AsyncOptions options;
  options.shards = 1;
  options.flush_after_ms = 0.0;
  options.retry = RetryPolicy{2, 0.05};
  options.faults.throw_rate = 1.0;  // every batch throws: retry cannot win
  AsyncScheduler async(options);

  const Ticket ticket = async.submit(request);
  ASSERT_TRUE(ticket.accepted());
  EXPECT_EQ(async.wait(ticket), TicketStatus::Failed);
  EXPECT_EQ(async.attempts(ticket), 2u);
  const std::string error = async.error(ticket);
  EXPECT_NE(error.find("injected fault"), std::string::npos) << error;
  EXPECT_NE(error.find("policy: flatlist"), std::string::npos) << error;
  EXPECT_NE(error.find("attempts: 2"), std::string::npos) << error;
  EngineResult result;
  EXPECT_TRUE(async.take(ticket, result));
  const AsyncStats stats = async.stats();
  EXPECT_EQ(stats.retried, 1u);
  EXPECT_EQ(stats.failed, 1u);
}

// ---------------------------------------------------------------------------
// Timed wait, cancel, lane deadline drop.

TEST(FaultTolerance, TimedWaitBoundsAStalledStrand) {
  const auto instances = make_instances(1, 16, 8, 7);
  EngineRequest request;
  request.instance = &instances[0];
  request.policy = &kFlatList;

  AsyncOptions options;
  options.shards = 1;
  options.flush_after_ms = 0.0;
  options.faults.points.push_back(
      FaultPoint{FaultKind::SlowBatch, -1, /*batch=*/0, /*stall_ms=*/200.0});
  AsyncScheduler async(options);

  const Ticket ticket = async.submit(request);
  ASSERT_TRUE(ticket.accepted());
  // The strand sleeps 200ms before serving; a 2ms wait must give up —
  // without consuming the ticket, which later completes normally.
  EXPECT_EQ(async.wait(ticket, 2.0), TicketStatus::TimedOut);
  EXPECT_EQ(async.wait(ticket), TicketStatus::Done);
  EngineResult result;
  EXPECT_TRUE(async.take(ticket, result));
  EXPECT_EQ(async.poll(ticket), TicketStatus::Invalid);
  EXPECT_GE(async.stats().faults_injected, 1u);
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

  const WeightedLanesAdmission policy(
      {LaneSpec{"patient", 1, 0, 0.0}, LaneSpec{"deadline", 1, 0, 1.0}});
  AsyncOptions options;
  options.shards = 1;
  options.max_batch = 64;
  options.flush_after_ms = 1e6;
  options.admission = &policy;
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

  AsyncOptions options;
  options.shards = 2;
  options.max_batch = 1;  // the stall pins exactly one request
  options.flush_after_ms = 0.0;
  options.watchdog_ms = 20.0;
  options.faults.points.push_back(
      FaultPoint{FaultKind::SlowBatch, /*shard=*/0, /*batch=*/0,
                 /*stall_ms=*/400.0});
  AsyncScheduler async(options);

  std::vector<Ticket> tickets;
  for (const auto& request : requests) {
    tickets.push_back(async.submit(request));
    ASSERT_TRUE(tickets.back().accepted());
  }
  // Shard 0 sleeps 400ms inside its first batch; the 20ms watchdog
  // declares it failed and reroutes its queued work to shard 1, so no
  // request waits behind the stall — and none is lost or duplicated.
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
  options.retry = RetryPolicy{3, 0.05};
  // Shard 1 dies at its second non-empty batch — mid-tape for whichever
  // stream is pinned there.
  options.faults.points.push_back(
      FaultPoint{FaultKind::ShardDeath, /*shard=*/1, /*batch=*/1, 0.0});
  AsyncScheduler async(options);

  // Opened back-to-back, the four streams pin to four distinct shards
  // (round-robin routing), so exactly one sits on the doomed shard.
  std::vector<StreamTicket> streams;
  for (int s = 0; s < kStreams; ++s) {
    streams.push_back(async.open_stream(StreamConfig{m, nullptr, &kFlatList}));
    ASSERT_TRUE(streams.back().accepted());
  }

  // Feed all tapes chunk by chunk (waiting per feed so deliveries and the
  // scripted batch index stay deterministic), with one-shot traffic
  // interleaved across every shard — including the dead one, whose strand
  // forwards late-routed work to survivors.
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
  EXPECT_GE(stats.faults_injected, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(async.in_flight(), 0u);
  EXPECT_EQ(async.open_streams(), 0u);
}

}  // namespace
}  // namespace moldsched
