/// Contracts of the streaming serving path (serve/async_scheduler.hpp):
/// per-stream deliveries stay ordered and contiguous under concurrent
/// flush() pressure, streams interleaved with one-shot traffic reproduce
/// the off-line reference and the synchronous engine for shard counts
/// {1, 2, 4}, stream feeds share the admission slot table, the stream
/// table bounds open sessions, close invalidates and recycles, and a
/// failed feed leaves its stream usable.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "core/demt.hpp"
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

/// Chunk a job list into borrowed arrival buffers + watermarks.
struct FeedPlan {
  std::vector<std::vector<StreamArrival>> chunks;
  std::vector<double> watermarks;
};

FeedPlan plan_feeds(const std::vector<OnlineJob>& jobs, std::size_t chunk) {
  FeedPlan plan;
  for (std::size_t i = 0; i < jobs.size(); i += chunk) {
    const std::size_t end = std::min(jobs.size(), i + chunk);
    std::vector<StreamArrival> arrivals;
    for (std::size_t j = i; j < end; ++j) {
      arrivals.push_back(moldable_arrival(jobs[j].task, jobs[j].release));
    }
    plan.chunks.push_back(std::move(arrivals));
    plan.watermarks.push_back(end < jobs.size() ? jobs[end].release
                                                : jobs.back().release);
  }
  return plan;
}

/// Take every ticket in order and check the deliveries reassemble the
/// reference exactly.
void expect_stream_matches(AsyncScheduler& async,
                           const std::vector<Ticket>& tickets,
                           const OnlineResult& reference,
                           const std::vector<OnlineJob>& jobs) {
  StreamDelivery delivery;
  int next_job = 0;
  std::vector<double> completion;
  for (const Ticket& ticket : tickets) {
    ASSERT_TRUE(ticket.accepted());
    ASSERT_EQ(async.wait(ticket), TicketStatus::Done);
    ASSERT_TRUE(async.take_stream(ticket, delivery));
    EXPECT_EQ(delivery.first_job, next_job);  // ordered + contiguous
    next_job += delivery.num_jobs();
    completion.insert(completion.end(), delivery.completion.begin(),
                      delivery.completion.end());
  }
  EXPECT_EQ(next_job, static_cast<int>(jobs.size()));
  EXPECT_EQ(completion, reference.completion);
  EXPECT_EQ(delivery.cmax, reference.cmax);
  EXPECT_EQ(delivery.weighted_completion_sum,
            reference.weighted_completion_sum);
  EXPECT_EQ(delivery.num_batches, reference.num_batches);
  EXPECT_TRUE(delivery.final_delivery);
}

TEST(StreamServe, OrderedDeliveryUnderConcurrentFlushes) {
  const int m = 8;
  const auto jobs = make_jobs(24, m, 20040627);
  const auto reference =
      online_batch_schedule_reference(m, jobs, object_offline());
  const FeedPlan plan = plan_feeds(jobs, 2);

  AsyncOptions options;
  options.shards = 1;
  options.max_batch = 4;
  options.flush_after_ms = 50.0;  // flush() races do the dispatching
  AsyncScheduler async(options);

  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      async.flush();
      std::this_thread::yield();
    }
  });

  StreamConfig stream_config;
  stream_config.m = m;
  stream_config.policy = &kFlatList;
  const StreamTicket stream = async.open_stream(stream_config);
  ASSERT_TRUE(stream.accepted());
  std::vector<Ticket> tickets;
  for (std::size_t f = 0; f < plan.chunks.size(); ++f) {
    tickets.push_back(async.submit_stream(stream, plan.chunks[f].data(),
                                          plan.chunks[f].size(),
                                          plan.watermarks[f]));
    ASSERT_TRUE(tickets.back().accepted());
  }
  tickets.push_back(async.close_stream(stream));
  async.drain();
  stop.store(true, std::memory_order_release);
  flusher.join();

  expect_stream_matches(async, tickets, reference, jobs);
  EXPECT_EQ(async.open_streams(), 0u);
}

TEST(StreamServe, StreamsAndOneShotsInterleaveDeterministically) {
  const int m = 8;
  const int num_streams = 3;
  std::vector<std::vector<OnlineJob>> stream_jobs;
  std::vector<OnlineResult> references;
  std::vector<FeedPlan> plans;
  for (int s = 0; s < num_streams; ++s) {
    stream_jobs.push_back(make_jobs(15, m, 100 + static_cast<std::uint64_t>(s)));
    references.push_back(online_batch_schedule_reference(
        m, stream_jobs.back(), object_offline()));
    plans.push_back(plan_feeds(stream_jobs.back(), 3));
  }
  const auto instances = [&] {
    Rng rng(7);
    std::vector<Instance> out;
    for (int i = 0; i < 6; ++i) {
      out.push_back(generate_instance(WorkloadFamily::Cirne, 20, m, rng));
    }
    return out;
  }();
  std::vector<EngineRequest> requests(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    requests[i].instance = &instances[i];
    requests[i].policy = &kFlatList;
  }
  SchedulerEngine sync(EngineOptions{1, false});
  std::vector<EngineResult> oneshot_reference;
  sync.schedule_batch(requests, oneshot_reference);

  for (int shards : {1, 2, 4}) {
    AsyncOptions options;
    options.shards = shards;
    options.max_batch = 3;
    options.flush_after_ms = 0.2;
    AsyncScheduler async(options);
    StreamConfig stream_config;
    stream_config.m = m;
    stream_config.policy = &kFlatList;

    std::vector<StreamTicket> streams;
    std::vector<std::vector<Ticket>> tickets(
        static_cast<std::size_t>(num_streams));
    for (int s = 0; s < num_streams; ++s) {
      streams.push_back(async.open_stream(stream_config));
    }
    std::vector<Ticket> oneshot_tickets;
    std::size_t feed = 0;
    bool feeding = true;
    while (feeding) {
      feeding = false;
      for (int s = 0; s < num_streams; ++s) {
        const FeedPlan& plan = plans[static_cast<std::size_t>(s)];
        if (feed >= plan.chunks.size()) continue;
        feeding = true;
        tickets[static_cast<std::size_t>(s)].push_back(async.submit_stream(
            streams[static_cast<std::size_t>(s)], plan.chunks[feed].data(),
            plan.chunks[feed].size(), plan.watermarks[feed]));
      }
      if (oneshot_tickets.size() < requests.size()) {
        oneshot_tickets.push_back(async.submit(requests[oneshot_tickets.size()]));
      }
      ++feed;
    }
    for (int s = 0; s < num_streams; ++s) {
      tickets[static_cast<std::size_t>(s)].push_back(
          async.close_stream(streams[static_cast<std::size_t>(s)]));
    }
    async.drain();
    for (int s = 0; s < num_streams; ++s) {
      expect_stream_matches(async, tickets[static_cast<std::size_t>(s)],
                            references[static_cast<std::size_t>(s)],
                            stream_jobs[static_cast<std::size_t>(s)]);
    }
    EngineResult result;
    for (std::size_t i = 0; i < oneshot_tickets.size(); ++i) {
      ASSERT_TRUE(async.take(oneshot_tickets[i], result)) << "shards=" << shards;
      EXPECT_EQ(result.cmax, oneshot_reference[i].cmax);
      EXPECT_EQ(result.weighted_completion_sum,
                oneshot_reference[i].weighted_completion_sum);
    }
  }
}

TEST(StreamServe, GateStreamsBothPoliciesMatchReferenceForShardCounts) {
  // The streaming gate workload: 3 Poisson streams of 16 jobs (m=16) fed
  // in random 1..5-arrival chunks round-robin, with one-shot traffic
  // interleaved once the streams flow, under FlatList and DEMT for shards
  // {1, 2, 4}.
  const gate::StreamWorkload workload = gate::stream_workload();
  const int m = gate::kStreamM;
  DemtOptions demt;
  demt.shuffles = gate::kStreamShuffles;
  const DemtPolicy demt_policy(demt);
  std::vector<EngineRequest> oneshots(workload.oneshots.size());
  for (std::size_t i = 0; i < oneshots.size(); ++i) {
    oneshots[i].instance = &workload.oneshots[i];
    oneshots[i].policy = &kFlatList;
  }
  SchedulerEngine sync(EngineOptions{1, false});
  std::vector<EngineResult> oneshot_reference;
  sync.schedule_batch(oneshots, oneshot_reference);
  const std::size_t num_streams = workload.jobs.size();

  for (const bool flat : {true, false}) {
    const SchedulingPolicy& policy =
        flat ? static_cast<const SchedulingPolicy&>(kFlatList) : demt_policy;
    const OfflineScheduler offline =
        flat ? object_offline()
             : OfflineScheduler([&](const Instance& batch) {
                 return demt_schedule(batch, demt).schedule;
               });
    std::vector<OnlineResult> references;
    for (const auto& jobs : workload.jobs) {
      references.push_back(online_batch_schedule_reference(m, jobs, offline));
    }
    for (int shards : {1, 2, 4}) {
      SCOPED_TRACE(testing::Message() << (flat ? "flatlist" : "demt")
                                      << " shards=" << shards);
      AsyncOptions options;
      options.shards = shards;
      options.max_batch = gate::kStreamMaxBatch;
      options.flush_after_ms = gate::kServeFlushMs;
      options.queue_capacity = 4096;
      options.max_streams = 8;
      AsyncScheduler async(options);
      StreamConfig config;
      config.m = m;
      config.policy = &policy;
      std::vector<StreamTicket> streams;
      for (std::size_t s = 0; s < num_streams; ++s) {
        streams.push_back(async.open_stream(config));
      }
      Rng chunk_rng(gate::kSeed ^ 0xC0FFEEULL);
      std::vector<std::size_t> fed(num_streams, 0);
      std::vector<std::vector<Ticket>> tickets(num_streams);
      std::vector<Ticket> oneshot_tickets;
      std::vector<StreamArrival> arrivals;
      bool feeding = true;
      while (feeding) {
        feeding = false;
        for (std::size_t s = 0; s < num_streams; ++s) {
          const auto& jobs = workload.jobs[s];
          std::size_t& done = fed[s];
          if (done >= jobs.size()) continue;
          feeding = true;
          const auto chunk = std::min<std::size_t>(
              jobs.size() - done,
              static_cast<std::size_t>(chunk_rng.uniform_int(1, 5)));
          arrivals.clear();
          for (std::size_t i = done; i < done + chunk; ++i) {
            arrivals.push_back(
                moldable_arrival(jobs[i].task, jobs[i].release));
          }
          done += chunk;
          const double watermark =
              done < jobs.size() ? jobs[done].release : jobs.back().release;
          const Ticket ticket = async.submit_stream(
              streams[s], arrivals.data(), arrivals.size(), watermark);
          ASSERT_TRUE(ticket.accepted());
          // Wait before the arrival buffer is reused.
          (void)async.wait(ticket);
          tickets[s].push_back(ticket);
        }
        if ((!oneshot_tickets.empty() ||
             fed[0] >= workload.jobs[0].size() / 2) &&
            oneshot_tickets.size() < oneshots.size()) {
          oneshot_tickets.push_back(
              async.submit(oneshots[oneshot_tickets.size()]));
        }
      }
      for (std::size_t s = 0; s < num_streams; ++s) {
        tickets[s].push_back(async.close_stream(streams[s]));
      }
      async.drain();
      for (std::size_t s = 0; s < num_streams; ++s) {
        std::vector<StreamDelivery> deliveries;
        StreamDelivery delivery;
        for (const Ticket& ticket : tickets[s]) {
          ASSERT_TRUE(ticket.accepted());
          ASSERT_EQ(async.poll(ticket), TicketStatus::Done);
          ASSERT_TRUE(async.take_stream(ticket, delivery));
          deliveries.push_back(delivery);
        }
        gate::expect_replays_reference(deliveries, references[s],
                                       workload.jobs[s].size());
      }
      ASSERT_EQ(oneshot_tickets.size(), oneshots.size());
      EngineResult result;
      for (std::size_t i = 0; i < oneshot_tickets.size(); ++i) {
        ASSERT_TRUE(async.take(oneshot_tickets[i], result));
        EXPECT_EQ(result.cmax, oneshot_reference[i].cmax);
        EXPECT_EQ(result.weighted_completion_sum,
                  oneshot_reference[i].weighted_completion_sum);
      }
    }
  }
}

TEST(StreamServe, MixedSection5TapesReplayTheBareStreamForShardCounts) {
  // The §5 mix (70% moldable, 15% rigid, 15% divisible; Poisson gap 0.8)
  // on three streams, fed in chunks of four, two rounds per shard count:
  // every feed is admitted and delivers exactly what a bare OnlineStream
  // fed the same chunks delivers.
  const int m = gate::kStreamM;
  const std::size_t chunk = 4;
  Rng rng(gate::kSeed ^ 0x5EEDULL);
  std::vector<std::vector<StreamArrival>> tapes(3);
  for (auto& tape : tapes) {
    double release = 0.0;
    for (int i = 0; i < 16; ++i) {
      const double pick = rng.uniform();
      if (pick < 0.70) {
        Instance tmp = generate_instance(WorkloadFamily::Mixed, 1, m, rng);
        tape.push_back(moldable_arrival(tmp.task(0), release));
      } else if (pick < 0.85) {
        tape.push_back(rigid_arrival(
            static_cast<int>(rng.uniform_int(1, std::max(1, m / 2))),
            rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0), release));
      } else {
        tape.push_back(divisible_arrival(rng.uniform(1.0, 8.0),
                                         rng.uniform(0.5, 2.0), release));
      }
      release += rng.exponential(0.8);
    }
  }
  const auto watermark_after = [](const std::vector<StreamArrival>& tape,
                                  std::size_t end) {
    return end < tape.size() ? tape[end].release : tape.back().release;
  };
  // Reference deliveries from bare streams, one per tape.
  const auto ws = kFlatList.make_workspace();
  std::vector<std::vector<StreamDelivery>> references(tapes.size());
  for (std::size_t s = 0; s < tapes.size(); ++s) {
    OnlineStream stream;
    stream.open(m, {});
    StreamDelivery delivery;
    for (std::size_t i = 0; i < tapes[s].size(); i += chunk) {
      const std::size_t count = std::min(chunk, tapes[s].size() - i);
      stream.feed(tapes[s].data() + i, count,
                  watermark_after(tapes[s], i + count), kFlatList, *ws,
                  delivery);
      references[s].push_back(delivery);
    }
    stream.finish(kFlatList, *ws, delivery);
    references[s].push_back(delivery);
  }
  for (int shards : {1, 2, 4}) {
    AsyncOptions options;
    options.shards = shards;
    options.max_batch = gate::kStreamMaxBatch;
    options.flush_after_ms = gate::kServeFlushMs;
    options.queue_capacity = 4096;
    options.max_streams = 8;
    AsyncScheduler async(options);
    StreamConfig config;
    config.m = m;
    config.policy = &kFlatList;
    for (int round = 0; round < gate::kServeReps; ++round) {
      SCOPED_TRACE(testing::Message() << "shards=" << shards << " round "
                                      << round);
      std::vector<std::vector<Ticket>> tickets(tapes.size());
      for (std::size_t s = 0; s < tapes.size(); ++s) {
        const StreamTicket stream = async.open_stream(config);
        ASSERT_TRUE(stream.accepted());
        for (std::size_t i = 0; i < tapes[s].size(); i += chunk) {
          const std::size_t count = std::min(chunk, tapes[s].size() - i);
          tickets[s].push_back(async.submit_stream(
              stream, tapes[s].data() + i, count,
              watermark_after(tapes[s], i + count)));
        }
        tickets[s].push_back(async.close_stream(stream));
      }
      async.drain();
      StreamDelivery delivery;
      for (std::size_t s = 0; s < tapes.size(); ++s) {
        ASSERT_EQ(tickets[s].size(), references[s].size());
        for (std::size_t f = 0; f < tickets[s].size(); ++f) {
          ASSERT_TRUE(tickets[s][f].accepted()) << "stream " << s;
          ASSERT_EQ(async.poll(tickets[s][f]), TicketStatus::Done);
          ASSERT_TRUE(async.take_stream(tickets[s][f], delivery));
          const StreamDelivery& want = references[s][f];
          EXPECT_EQ(delivery.first_job, want.first_job);
          EXPECT_EQ(delivery.placements.start, want.placements.start);
          EXPECT_EQ(delivery.placements.proc_ids, want.placements.proc_ids);
          EXPECT_EQ(delivery.completion, want.completion);
          EXPECT_EQ(delivery.chunks.size(), want.chunks.size());
          EXPECT_EQ(delivery.divisible_completion,
                    want.divisible_completion);
          EXPECT_EQ(delivery.cmax, want.cmax);
          EXPECT_EQ(delivery.weighted_completion_sum,
                    want.weighted_completion_sum);
        }
      }
    }
  }
}

TEST(StreamServe, FeedsShareTheAdmissionSlotTable) {
  const int m = 4;
  const auto jobs = make_jobs(8, m, 3);
  const FeedPlan plan = plan_feeds(jobs, 2);
  AsyncOptions options;
  options.shards = 1;
  options.queue_capacity = 3;
  options.flush_after_ms = 0.1;
  AsyncScheduler async(options);
  StreamConfig stream_config;
  stream_config.m = m;
  stream_config.policy = &kFlatList;
  const StreamTicket stream = async.open_stream(stream_config);

  std::vector<Ticket> accepted;
  for (std::size_t f = 0; f < 3; ++f) {
    accepted.push_back(async.submit_stream(stream, plan.chunks[f].data(),
                                           plan.chunks[f].size(),
                                           plan.watermarks[f]));
    ASSERT_TRUE(accepted.back().accepted());
  }
  // Slot table exhausted: the 4th feed is refused at admission even
  // though it belongs to an open stream (completion does not free a slot
  // — take does).
  for (const Ticket& ticket : accepted) (void)async.wait(ticket);
  const Ticket overflow = async.submit_stream(
      stream, plan.chunks[3].data(), plan.chunks[3].size(),
      plan.watermarks[3]);
  EXPECT_FALSE(overflow.accepted());
  EXPECT_EQ(async.poll(overflow), TicketStatus::Rejected);

  StreamDelivery delivery;
  for (const Ticket& ticket : accepted) {
    ASSERT_TRUE(async.take_stream(ticket, delivery));
  }
  const Ticket retry = async.submit_stream(stream, plan.chunks[3].data(),
                                           plan.chunks[3].size(),
                                           plan.watermarks[3]);
  EXPECT_TRUE(retry.accepted());
  (void)async.wait(retry);
  ASSERT_TRUE(async.take_stream(retry, delivery));
  const Ticket close = async.close_stream(stream);
  (void)async.wait(close);
  ASSERT_TRUE(async.take_stream(close, delivery));
}

TEST(StreamServe, StreamTableBoundsAndRecycles) {
  AsyncOptions options;
  options.shards = 1;
  options.max_streams = 2;
  AsyncScheduler async(options);
  StreamConfig stream_config;
  stream_config.m = 4;
  stream_config.policy = &kFlatList;
  const StreamTicket a = async.open_stream(stream_config);
  const StreamTicket b = async.open_stream(stream_config);
  ASSERT_TRUE(a.accepted());
  ASSERT_TRUE(b.accepted());
  const StreamTicket c = async.open_stream(stream_config);
  EXPECT_FALSE(c.accepted());
  EXPECT_EQ(async.stats().stream_rejected, 1u);
  EXPECT_EQ(async.open_streams(), 2u);

  const Ticket close = async.close_stream(a);
  ASSERT_TRUE(close.accepted());
  EXPECT_EQ(async.wait(close), TicketStatus::Done);
  StreamDelivery delivery;
  ASSERT_TRUE(async.take_stream(close, delivery));
  EXPECT_TRUE(delivery.final_delivery);

  const StreamTicket d = async.open_stream(stream_config);
  EXPECT_TRUE(d.accepted());
  // The recycled entry rejects traffic for the old stream ticket.
  const StreamArrival arrival = rigid_arrival(1, 1.0, 1.0, 0.0);
  EXPECT_FALSE(async.submit_stream(a, &arrival, 1, 1.0).accepted());
  EXPECT_FALSE(async.close_stream(a).accepted());
}

TEST(StreamServe, FailedFeedLeavesStreamUsable) {
  const int m = 4;
  const auto jobs = make_jobs(6, m, 11);
  AsyncOptions options;
  options.shards = 1;
  AsyncScheduler async(options);
  StreamConfig stream_config;
  stream_config.m = m;
  stream_config.policy = &kFlatList;
  const StreamTicket stream = async.open_stream(stream_config);

  std::vector<StreamArrival> arrivals;
  for (const auto& job : jobs) {
    arrivals.push_back(moldable_arrival(job.task, job.release));
  }
  const Ticket first = async.submit_stream(stream, arrivals.data(), 3,
                                           jobs[3].release);
  EXPECT_EQ(async.wait(first), TicketStatus::Done);

  // Watermark regress: the engine rejects the feed on the strand; the
  // ticket fails with an explanation and the stream state is untouched.
  const Ticket bad = async.submit_stream(stream, arrivals.data() + 3, 1, 0.0);
  ASSERT_TRUE(bad.accepted());
  EXPECT_EQ(async.wait(bad), TicketStatus::Failed);
  EXPECT_NE(async.error(bad).find("watermark"), std::string::npos);
  StreamDelivery delivery;
  ASSERT_TRUE(async.take_stream(bad, delivery));
  EXPECT_EQ(delivery.num_jobs(), 0);

  // Non-finite divisible work or weight, and a non-finite release under an
  // infinite watermark: each feed fails the same way.
  const double inf = std::numeric_limits<double>::infinity();
  const double now = jobs[3].release;
  const StreamArrival non_finite[] = {divisible_arrival(inf, 1.0, now),
                                      divisible_arrival(2.0, inf, now),
                                      moldable_arrival(jobs[3].task, inf)};
  const double watermarks[] = {now, now, inf};
  for (std::size_t k = 0; k < 3; ++k) {
    const Ticket rejected =
        async.submit_stream(stream, &non_finite[k], 1, watermarks[k]);
    ASSERT_TRUE(rejected.accepted());
    EXPECT_EQ(async.wait(rejected), TicketStatus::Failed) << "case " << k;
    EXPECT_NE(async.error(rejected).find("finite"), std::string::npos);
    ASSERT_TRUE(async.take_stream(rejected, delivery));
    EXPECT_EQ(delivery.num_jobs(), 0);
  }

  const Ticket rest = async.submit_stream(stream, arrivals.data() + 3, 3,
                                          jobs.back().release);
  EXPECT_EQ(async.wait(rest), TicketStatus::Done);
  const Ticket close = async.close_stream(stream);
  EXPECT_EQ(async.wait(close), TicketStatus::Done);

  // All deliveries together still reproduce the reference.
  const auto reference =
      online_batch_schedule_reference(m, jobs, object_offline());
  std::vector<double> completion;
  for (const Ticket& ticket : {first, rest, close}) {
    ASSERT_TRUE(async.take_stream(ticket, delivery));
    completion.insert(completion.end(), delivery.completion.begin(),
                      delivery.completion.end());
  }
  EXPECT_EQ(completion, reference.completion);
}

TEST(StreamServe, TakeKindsDoNotCross) {
  const int m = 4;
  Rng rng(5);
  const Instance instance = generate_instance(WorkloadFamily::Cirne, 10, m, rng);
  AsyncOptions options;
  options.shards = 1;
  AsyncScheduler async(options);
  EngineRequest request;
  request.instance = &instance;
  request.policy = &kFlatList;
  const Ticket oneshot = async.submit(request);

  StreamConfig stream_config;
  stream_config.m = m;
  stream_config.policy = &kFlatList;
  const StreamTicket stream = async.open_stream(stream_config);
  const StreamArrival arrival = rigid_arrival(1, 1.0, 1.0, 0.0);
  const Ticket feed = async.submit_stream(stream, &arrival, 1, 1.0);
  (void)async.wait(oneshot);
  (void)async.wait(feed);

  StreamDelivery delivery;
  EngineResult result;
  EXPECT_FALSE(async.take_stream(oneshot, delivery));
  EXPECT_FALSE(async.take(feed, result));
  EXPECT_TRUE(async.take(oneshot, result));
  EXPECT_TRUE(async.take_stream(feed, delivery));
  const Ticket close = async.close_stream(stream);
  (void)async.wait(close);
  EXPECT_TRUE(async.take_stream(close, delivery));
}

}  // namespace
}  // namespace moldsched
