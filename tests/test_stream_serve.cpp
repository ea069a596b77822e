/// Contracts of the streaming serving path (serve/async_scheduler.hpp):
/// per-stream deliveries stay ordered and contiguous under concurrent
/// flush() pressure, streams interleaved with one-shot traffic reproduce
/// the off-line reference and the synchronous engine for shard counts
/// {1, 2, 4}, stream feeds share the admission slot table, the stream
/// table bounds open sessions, close invalidates and recycles, and a
/// failed feed leaves its stream usable.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/policy.hpp"
#include "engine/engine.hpp"
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
    return out.to_schedule(batch.procs());
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
