/// Contracts of the async submit/poll serving layer
/// (serve/async_scheduler.hpp): results bit-identical to the synchronous
/// SchedulerEngine path for shard counts {1, 2, 4}, admission control with
/// explicit Rejected tickets, drain() after rejection, deadline-triggered
/// flush, slot recycling, and failure propagation.

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "core/policy.hpp"
#include "engine/engine.hpp"
#include "gate_workloads.hpp"
#include "serve/async_scheduler.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace moldsched {
namespace {

std::vector<Instance> make_instances(int count, int n, int m,
                                     std::uint64_t seed) {
  const std::vector<WorkloadFamily> families = {
      WorkloadFamily::WeaklyParallel, WorkloadFamily::Cirne,
      WorkloadFamily::HighlyParallel, WorkloadFamily::Mixed};
  Rng rng(seed);
  std::vector<Instance> instances;
  for (int i = 0; i < count; ++i) {
    instances.push_back(generate_instance(
        families[static_cast<std::size_t>(i) % families.size()], n, m, rng));
  }
  return instances;
}

const DemtPolicy kDemt;
const FlatListPolicy kFlatList;

std::vector<EngineRequest> make_requests(const std::vector<Instance>& instances,
                                         const SchedulingPolicy& policy) {
  std::vector<EngineRequest> requests(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    requests[i].instance = &instances[i];
    requests[i].policy = &policy;
  }
  return requests;
}

TEST(AsyncScheduler, BitIdenticalToSyncForShardCounts) {
  const auto instances = make_instances(12, 30, 16, 20040627);
  DemtOptions demt;
  demt.shuffles = 4;
  const DemtPolicy policy(demt);
  const auto requests = make_requests(instances, policy);

  SchedulerEngine sync(EngineOptions{1, true});
  std::vector<EngineResult> reference;
  sync.schedule_batch(requests, reference);

  for (int shards : {1, 2, 4}) {
    AsyncOptions options;
    options.shards = shards;
    options.max_batch = 3;
    options.queue_capacity = 64;
    options.keep_schedules = true;
    AsyncScheduler async(options);

    std::vector<Ticket> tickets;
    for (const auto& request : requests) {
      tickets.push_back(async.submit(request));
      ASSERT_TRUE(tickets.back().accepted()) << "shards=" << shards;
    }
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      EXPECT_EQ(async.wait(tickets[i]), TicketStatus::Done)
          << "shards=" << shards;
      EngineResult result;
      ASSERT_TRUE(async.take(tickets[i], result));
      EXPECT_EQ(result.cmax, reference[i].cmax) << "shards=" << shards;
      EXPECT_EQ(result.weighted_completion_sum,
                reference[i].weighted_completion_sum)
          << "shards=" << shards;
      ASSERT_TRUE(result.has_schedule);
      gate::expect_identical_placements(result.schedule,
                                        reference[i].schedule);
    }
    EXPECT_EQ(async.stats().completed, requests.size());
    EXPECT_EQ(async.in_flight(), 0u);
  }
}

TEST(AsyncScheduler, FlatListMetricsOnlyMatchesSync) {
  const auto instances = make_instances(10, 40, 16, 7);
  const auto requests = make_requests(instances, kFlatList);

  SchedulerEngine sync(EngineOptions{1, false});
  std::vector<EngineResult> reference;
  sync.schedule_batch(requests, reference);

  AsyncOptions options;
  options.shards = 2;
  options.max_batch = 4;
  options.keep_schedules = false;
  AsyncScheduler async(options);
  std::vector<Ticket> tickets;
  for (const auto& request : requests) {
    tickets.push_back(async.submit(request));
  }
  async.drain();
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(async.poll(tickets[i]), TicketStatus::Done);
    EXPECT_GT(async.latency_seconds(tickets[i]), 0.0);
    EngineResult result;
    ASSERT_TRUE(async.take(tickets[i], result));
    EXPECT_FALSE(result.has_schedule);
    EXPECT_EQ(result.cmax, reference[i].cmax);
    EXPECT_EQ(result.weighted_completion_sum,
              reference[i].weighted_completion_sum);
  }
}

TEST(AsyncScheduler, AdmissionControlRejectsBeyondCapacityAndRecovers) {
  const auto instances = make_instances(1, 20, 8, 3);
  const auto requests = make_requests(instances, kFlatList);
  EngineRequest request = requests[0];

  AsyncOptions options;
  options.shards = 2;
  options.queue_capacity = 4;
  options.max_batch = 64;          // never size-flush: tickets stay queued
  options.flush_after_ms = 1e6;    // deadline far away
  AsyncScheduler async(options);

  std::vector<Ticket> accepted;
  for (int i = 0; i < 4; ++i) {
    const Ticket ticket = async.submit(request);
    ASSERT_TRUE(ticket.accepted());
    accepted.push_back(ticket);
  }
  // Queue bound reached: further submissions are rejected, not queued.
  const Ticket rejected = async.submit(request);
  EXPECT_FALSE(rejected.accepted());
  EXPECT_EQ(async.poll(rejected), TicketStatus::Rejected);
  EXPECT_EQ(async.wait(rejected), TicketStatus::Rejected);
  EXPECT_EQ(async.stats().rejected, 1u);
  EXPECT_EQ(async.in_flight(), 4u);

  // drain() after Rejected: the accepted requests still complete.
  async.drain();
  for (const Ticket& ticket : accepted) {
    EXPECT_EQ(async.poll(ticket), TicketStatus::Done);
  }
  // Capacity frees only on take(); then admission recovers.
  EXPECT_FALSE(async.submit(request).accepted());
  EngineResult result;
  ASSERT_TRUE(async.take(accepted[0], result));
  const Ticket again = async.submit(request);
  EXPECT_TRUE(again.accepted());
  EXPECT_EQ(async.wait(again), TicketStatus::Done);
  for (std::size_t i = 1; i < accepted.size(); ++i) {
    ASSERT_TRUE(async.take(accepted[i], result));
  }
  ASSERT_TRUE(async.take(again, result));
  EXPECT_EQ(async.in_flight(), 0u);
}

TEST(AsyncScheduler, WorkloadLargerThanQueueBoundStaysBitIdentical) {
  // Offered load of 24 requests through a bound of 8 slots: submissions
  // beyond the bound are rejected, the caller retires finished tickets and
  // resubmits, and every served result must still be bit-identical to the
  // synchronous batch — for 1, 2 and 4 shards.
  const auto instances = make_instances(24, 25, 12, 19);
  const auto requests = make_requests(instances, kFlatList);
  SchedulerEngine sync(EngineOptions{1, false});
  std::vector<EngineResult> reference;
  sync.schedule_batch(requests, reference);

  for (int shards : {1, 2, 4}) {
    AsyncOptions options;
    options.shards = shards;
    options.max_batch = 4;
    options.queue_capacity = 8;
    AsyncScheduler async(options);

    std::vector<std::pair<std::size_t, Ticket>> outstanding;
    std::size_t served = 0;
    bool saw_rejection = false;
    const auto retire_all = [&] {
      for (const auto& [which, ticket] : outstanding) {
        EXPECT_EQ(async.wait(ticket), TicketStatus::Done);
        EngineResult result;
        ASSERT_TRUE(async.take(ticket, result));
        EXPECT_EQ(result.cmax, reference[which].cmax)
            << "shards=" << shards << " request " << which;
        EXPECT_EQ(result.weighted_completion_sum,
                  reference[which].weighted_completion_sum)
            << "shards=" << shards << " request " << which;
        ++served;
      }
      outstanding.clear();
    };
    for (std::size_t i = 0; i < requests.size(); ++i) {
      Ticket ticket = async.submit(requests[i]);
      if (!ticket.accepted()) {
        saw_rejection = true;
        retire_all();  // free every slot, then the resubmit must succeed
        ticket = async.submit(requests[i]);
        ASSERT_TRUE(ticket.accepted());
      }
      outstanding.emplace_back(i, ticket);
    }
    retire_all();
    EXPECT_TRUE(saw_rejection) << "shards=" << shards;
    EXPECT_EQ(served, requests.size());
    EXPECT_GE(async.stats().rejected, 1u);
  }
}

TEST(AsyncScheduler, DeadlineFlushCompletesPartialBatchWithoutWait) {
  const auto instances = make_instances(1, 15, 8, 5);
  const auto requests = make_requests(instances, kFlatList);

  AsyncOptions options;
  options.max_batch = 64;       // a single request never fills the batch
  options.flush_after_ms = 2.0; // the deadline must dispatch it
  AsyncScheduler async(options);
  const Ticket ticket = async.submit(requests[0]);
  ASSERT_TRUE(ticket.accepted());

  // Poll only — no wait(), no flush(): completion proves the deadline path.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (async.poll(ticket) != TicketStatus::Done) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "deadline flush never dispatched the partial batch";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(async.stats().deadline_flushes, 1u);
  EngineResult result;
  EXPECT_TRUE(async.take(ticket, result));
}

TEST(AsyncScheduler, ImmediateDispatchWhenFlushAfterIsZero) {
  const auto instances = make_instances(1, 15, 8, 9);
  const auto requests = make_requests(instances, kFlatList);
  AsyncOptions options;
  options.max_batch = 64;
  options.flush_after_ms = 0.0;  // dispatch on every submit
  AsyncScheduler async(options);
  const Ticket ticket = async.submit(requests[0]);
  EXPECT_EQ(async.wait(ticket), TicketStatus::Done);
  EngineResult result;
  EXPECT_TRUE(async.take(ticket, result));
}

TEST(AsyncScheduler, TakenTicketBecomesInvalidAndSlotIsRecycled) {
  const auto instances = make_instances(1, 10, 4, 11);
  const auto requests = make_requests(instances, kFlatList);
  AsyncOptions options;
  options.queue_capacity = 1;
  options.flush_after_ms = 0.0;
  AsyncScheduler async(options);

  const Ticket first = async.submit(requests[0]);
  ASSERT_EQ(async.wait(first), TicketStatus::Done);
  EngineResult result;
  ASSERT_TRUE(async.take(first, result));
  EXPECT_EQ(async.poll(first), TicketStatus::Invalid);
  EXPECT_FALSE(async.take(first, result));

  // The single slot is reused; the stale ticket stays Invalid.
  const Ticket second = async.submit(requests[0]);
  ASSERT_TRUE(second.accepted());
  EXPECT_EQ(second.slot, first.slot);
  ASSERT_EQ(async.wait(second), TicketStatus::Done);
  EXPECT_EQ(async.poll(first), TicketStatus::Invalid);
  ASSERT_TRUE(async.take(second, result));
}

TEST(AsyncScheduler, FailedBatchReportsErrorPerTicket) {
  // An Instance with zero tasks makes demt_schedule throw inside the
  // engine; the async layer must surface that as Failed, not crash.
  const Instance empty(8);
  EngineRequest request;
  request.instance = &empty;
  request.policy = &kDemt;

  AsyncOptions options;
  options.flush_after_ms = 0.0;
  AsyncScheduler async(options);
  const Ticket ticket = async.submit(request);
  ASSERT_TRUE(ticket.accepted());
  EXPECT_EQ(async.wait(ticket), TicketStatus::Failed);
  EXPECT_FALSE(async.error(ticket).empty());
  EXPECT_EQ(async.stats().failed, 1u);
  EngineResult result;
  EXPECT_TRUE(async.take(ticket, result));
  EXPECT_FALSE(result.has_schedule);
}

TEST(AsyncScheduler, TicketFromAnotherSchedulerIsInvalid) {
  const auto instances = make_instances(1, 10, 4, 31);
  const auto requests = make_requests(instances, kFlatList);
  AsyncOptions big;
  big.queue_capacity = 64;
  big.flush_after_ms = 0.0;
  AsyncScheduler issuer(big);
  std::vector<Ticket> tickets;
  for (int i = 0; i < 10; ++i) tickets.push_back(issuer.submit(requests[0]));
  const Ticket foreign = tickets.back();  // slot index up to 9
  ASSERT_TRUE(foreign.accepted());

  AsyncOptions small;
  small.queue_capacity = 2;  // foreign.slot may exceed this table
  AsyncScheduler other(small);
  EXPECT_EQ(other.poll(foreign), TicketStatus::Invalid);
  EXPECT_EQ(other.wait(foreign), TicketStatus::Invalid);
  EngineResult result;
  EXPECT_FALSE(other.take(foreign, result));
  EXPECT_TRUE(other.error(foreign).empty());
  EXPECT_EQ(other.latency_seconds(foreign), 0.0);

  // The harder case: the foreign ticket's slot index also exists in the
  // other scheduler and is occupied. Per-scheduler ticket-id spaces keep
  // it Invalid — take() must not steal the occupying request's result.
  const Ticket own = other.submit(requests[0]);
  ASSERT_TRUE(own.accepted());
  const Ticket colliding = tickets[own.slot];  // same slot, other scheduler
  EXPECT_EQ(other.poll(colliding), TicketStatus::Invalid);
  EXPECT_FALSE(other.take(colliding, result));
  ASSERT_EQ(other.wait(own), TicketStatus::Done);
  EXPECT_TRUE(other.take(own, result));

  issuer.drain();
  for (const Ticket& ticket : tickets) (void)issuer.take(ticket, result);
}

TEST(AsyncScheduler, SubmitWithoutInstanceThrows) {
  AsyncScheduler async;
  EngineRequest request;
  request.policy = &kFlatList;
  EXPECT_THROW((void)async.submit(request), std::invalid_argument);
}

TEST(AsyncScheduler, RejectsBadOptions) {
  EXPECT_THROW(AsyncScheduler(AsyncOptions{0, 16, 1.0, 64, false}),
               std::invalid_argument);
  EXPECT_THROW(AsyncScheduler(AsyncOptions{1, 0, 1.0, 64, false}),
               std::invalid_argument);
  EXPECT_THROW(AsyncScheduler(AsyncOptions{1, 16, 1.0, 0, false}),
               std::invalid_argument);
  // Times must be finite and convertible to int64 nanoseconds: a NaN
  // flush deadline would never dispatch a partial batch.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf, 1e13, -1e13}) {
    AsyncOptions flush;
    flush.flush_after_ms = bad;
    EXPECT_THROW(AsyncScheduler{flush}, std::invalid_argument) << bad;
    AsyncOptions watchdog;
    watchdog.watchdog_ms = bad;
    EXPECT_THROW(AsyncScheduler{watchdog}, std::invalid_argument) << bad;
    // A NaN queue age would silently disable the lane's drop.
    AsyncOptions queue_age;
    queue_age.lanes = {LaneSpec{"stale", 1, 0, bad}};
    EXPECT_THROW(AsyncScheduler{queue_age}, std::invalid_argument) << bad;
  }
  // Large finite times stay legal.
  AsyncOptions large;
  large.flush_after_ms = 1e9;
  large.watchdog_ms = 1e6;
  large.lanes = {LaneSpec{"patient", 1, 0, 1e6}};
  EXPECT_NO_THROW(AsyncScheduler{large});
}

TEST(AsyncScheduler, ConcurrentSubmittersSeeConsistentResults) {
  const auto instances = make_instances(4, 25, 8, 13);
  const auto requests = make_requests(instances, kFlatList);

  SchedulerEngine sync(EngineOptions{1, false});
  std::vector<EngineResult> reference;
  sync.schedule_batch(requests, reference);

  AsyncOptions options;
  options.shards = 2;
  options.max_batch = 4;
  options.queue_capacity = 256;
  AsyncScheduler async(options);

  constexpr int kPerThread = 25;
  std::vector<std::thread> producers;
  std::vector<std::vector<std::pair<std::size_t, Ticket>>> issued(4);
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t which =
            static_cast<std::size_t>(p + i) % requests.size();
        Ticket ticket = async.submit(requests[which]);
        if (ticket.accepted()) {
          issued[static_cast<std::size_t>(p)].emplace_back(which, ticket);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  async.drain();
  std::size_t done = 0;
  for (const auto& thread_tickets : issued) {
    for (const auto& [which, ticket] : thread_tickets) {
      EngineResult result;
      ASSERT_TRUE(async.take(ticket, result));
      EXPECT_EQ(result.cmax, reference[which].cmax);
      EXPECT_EQ(result.weighted_completion_sum,
                reference[which].weighted_completion_sum);
      ++done;
    }
  }
  EXPECT_EQ(done, async.stats().completed);
  EXPECT_EQ(async.in_flight(), 0u);
}

TEST(AsyncScheduler, StatsCountFlushKinds) {
  const auto instances = make_instances(1, 10, 4, 17);
  const auto requests = make_requests(instances, kFlatList);
  AsyncOptions options;
  options.max_batch = 2;
  options.flush_after_ms = 1e6;  // only size- and forced flushes
  AsyncScheduler async(options);
  const Ticket a = async.submit(requests[0]);
  const Ticket b = async.submit(requests[0]);  // fills the batch
  (void)async.wait(a);
  (void)async.wait(b);
  const AsyncStats stats = async.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_GE(stats.size_flushes, 1u);
  EXPECT_GE(stats.batches, 1u);
  EngineResult result;
  EXPECT_TRUE(async.take(a, result));
  EXPECT_TRUE(async.take(b, result));
}

TEST(AsyncScheduler, ToStringCoversAllStatuses) {
  EXPECT_STREQ(to_string(TicketStatus::Invalid), "invalid");
  EXPECT_STREQ(to_string(TicketStatus::Rejected), "rejected");
  EXPECT_STREQ(to_string(TicketStatus::Pending), "pending");
  EXPECT_STREQ(to_string(TicketStatus::Running), "running");
  EXPECT_STREQ(to_string(TicketStatus::Done), "done");
  EXPECT_STREQ(to_string(TicketStatus::Failed), "failed");
  EXPECT_STREQ(to_string(TicketStatus::Cancelled), "cancelled");
  EXPECT_STREQ(to_string(TicketStatus::TimedOut), "timed_out");
}

TEST(AsyncScheduler, FailedOneShotErrorNamesPolicyAndLane) {
  // A zero-task instance makes demt_schedule throw inside the engine; the
  // surfaced error must name the failing policy.
  const Instance empty(8);
  AsyncOptions options;
  options.shards = 1;
  options.flush_after_ms = 0.0;
  AsyncScheduler scheduler(options);
  EngineRequest request;
  request.instance = &empty;
  request.policy = &kDemt;
  const Ticket ticket = scheduler.submit(request, 0);
  ASSERT_TRUE(ticket.accepted());
  EXPECT_EQ(scheduler.wait(ticket), TicketStatus::Failed);
  const std::string message = scheduler.error(ticket);
  EXPECT_NE(message.find("policy: demt"), std::string::npos) << message;
  EngineResult result;
  EXPECT_TRUE(scheduler.take(ticket, result));
}

TEST(AsyncScheduler, TimedWaitDoesNotConsumeTheTicket) {
  const auto instances = make_instances(1, 20, 16, 7);
  AsyncOptions options;
  options.shards = 1;
  options.flush_after_ms = 5.0;
  AsyncScheduler scheduler(options);
  EngineRequest request;
  request.instance = &instances[0];
  request.policy = &kFlatList;
  const Ticket ticket = scheduler.submit(request);
  ASSERT_TRUE(ticket.accepted());
  // However the race lands, the ticket stays live/terminal — never consumed.
  const TicketStatus first = scheduler.wait(ticket, 0.001);
  EXPECT_TRUE(first == TicketStatus::TimedOut || first == TicketStatus::Done);
  const TicketStatus final_status = scheduler.wait(ticket, 5000.0);
  EXPECT_EQ(final_status, TicketStatus::Done);
  EngineResult result;
  EXPECT_TRUE(scheduler.take(ticket, result));
  EXPECT_EQ(scheduler.poll(ticket), TicketStatus::Invalid);
}

TEST(AsyncScheduler, TimedWaitBeyondTheClockRangeWaitsUntimed) {
  // A timeout whose nanosecond count overflows the clock (infinite, or
  // past about 292 years) must wait for the result, not time out at once.
  const auto instances = make_instances(3, 20, 16, 8);
  gate::FaultyPolicy slow(kFlatList);
  for (const Instance& instance : instances) slow.sleep_on(instance, 50.0);
  AsyncOptions options;
  options.shards = 1;
  AsyncScheduler scheduler(options);
  const double timeouts[] = {std::numeric_limits<double>::infinity(), 1e13};
  for (std::size_t i = 0; i < 2; ++i) {
    EngineRequest request;
    request.instance = &instances[i];
    request.policy = &slow;
    const Ticket ticket = scheduler.submit(request);
    ASSERT_TRUE(ticket.accepted());
    EXPECT_EQ(scheduler.wait(ticket, timeouts[i]), TicketStatus::Done)
        << "timeout_ms " << timeouts[i];
  }
  EngineRequest request;
  request.instance = &instances[2];
  request.policy = &slow;
  const Ticket ticket = scheduler.submit(request);
  ASSERT_TRUE(ticket.accepted());
  EXPECT_THROW(
      (void)scheduler.wait(ticket, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_EQ(scheduler.wait(ticket), TicketStatus::Done);
}

}  // namespace
}  // namespace moldsched
