/// Contracts of the pluggable admission layer (serve/admission.hpp):
/// lane classification and explicit-lane submit, per-lane queue_capacity
/// rejection and recovery, weighted-fair service across backlogged lanes,
/// lane-tagged stream feeds with preserved per-stream order, per-lane
/// stats, and policy/option validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/policy.hpp"
#include "engine/engine.hpp"
#include "serve/admission.hpp"
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

const FlatListPolicy kFlatList;

std::vector<LaneSpec> two_lanes(int high_weight, int low_weight,
                                int high_cap = 0, int low_cap = 0) {
  LaneSpec high;
  high.name = "high";
  high.weight = high_weight;
  high.queue_capacity = high_cap;
  LaneSpec low;
  low.name = "low";
  low.weight = low_weight;
  low.queue_capacity = low_cap;
  return {high, low};
}

TEST(Admission, DefaultIsSingleFifoLane) {
  AsyncScheduler async;
  EXPECT_EQ(async.num_lanes(), 1);
  EXPECT_EQ(async.lane_spec(0).name, "default");
  EXPECT_EQ(async.lane_spec(0).weight, 1);
  EXPECT_EQ(async.lane_spec(0).queue_capacity, 0);
  EXPECT_THROW((void)async.lane_spec(1), std::out_of_range);
  const auto stats = async.stats();
  ASSERT_EQ(stats.lanes.size(), 1u);
  EXPECT_EQ(stats.lanes[0].name, "default");
}

TEST(Admission, ExplicitLaneTagsTicketsAndStats) {
  const auto instances = make_instances(1, 15, 8, 3);
  EngineRequest request;
  request.instance = &instances[0];
  request.policy = &kFlatList;

  const WeightedLanesAdmission admission(two_lanes(3, 1));
  AsyncOptions options;
  options.flush_after_ms = 0.0;
  options.admission = &admission;
  AsyncScheduler async(options);
  ASSERT_EQ(async.num_lanes(), 2);
  EXPECT_EQ(async.lane_spec(1).name, "low");

  const Ticket high = async.submit(request, 0);
  const Ticket low = async.submit(request, 1);
  const Ticket classified = async.submit(request);  // default_lane == 0
  const Ticket clamped = async.submit(request, 99);  // clamps to last lane
  EXPECT_EQ(high.lane, 0u);
  EXPECT_EQ(low.lane, 1u);
  EXPECT_EQ(classified.lane, 0u);
  EXPECT_EQ(clamped.lane, 1u);
  async.drain();
  EngineResult result;
  for (const Ticket& t : {high, low, classified, clamped}) {
    EXPECT_EQ(async.poll(t), TicketStatus::Done);
    EXPECT_TRUE(async.take(t, result));
  }
  const AsyncStats stats = async.stats();
  ASSERT_EQ(stats.lanes.size(), 2u);
  EXPECT_EQ(stats.lanes[0].submitted, 2u);
  EXPECT_EQ(stats.lanes[1].submitted, 2u);
  EXPECT_EQ(stats.lanes[0].completed, 2u);
  EXPECT_EQ(stats.lanes[1].completed, 2u);
  EXPECT_EQ(stats.lanes[0].in_flight, 0u);
  EXPECT_EQ(stats.lanes[1].in_flight, 0u);
}

TEST(Admission, PerLaneCapacityRejectsAndRecovers) {
  const auto instances = make_instances(1, 15, 8, 5);
  EngineRequest request;
  request.instance = &instances[0];
  request.policy = &kFlatList;

  const WeightedLanesAdmission admission(two_lanes(1, 1, /*high_cap=*/0,
                                                   /*low_cap=*/2));
  AsyncOptions options;
  options.max_batch = 64;
  options.flush_after_ms = 1e6;  // hold everything: pure admission test
  options.queue_capacity = 64;
  options.admission = &admission;
  AsyncScheduler async(options);

  const Ticket a = async.submit(request, 1);
  const Ticket b = async.submit(request, 1);
  ASSERT_TRUE(a.accepted());
  ASSERT_TRUE(b.accepted());
  // The low lane's own bound (2 in flight) rejects; the global table and
  // the unbounded high lane still accept.
  const Ticket rejected = async.submit(request, 1);
  EXPECT_FALSE(rejected.accepted());
  EXPECT_EQ(rejected.lane, 1u);
  EXPECT_EQ(async.poll(rejected), TicketStatus::Rejected);
  const Ticket high = async.submit(request, 0);
  EXPECT_TRUE(high.accepted());

  AsyncStats stats = async.stats();
  EXPECT_EQ(stats.lanes[1].rejected, 1u);
  EXPECT_EQ(stats.lanes[1].in_flight, 2u);
  EXPECT_EQ(stats.lanes[0].rejected, 0u);

  // Capacity frees on take(), per lane.
  async.drain();
  EngineResult result;
  ASSERT_TRUE(async.take(a, result));
  const Ticket again = async.submit(request, 1);
  EXPECT_TRUE(again.accepted());
  ASSERT_TRUE(async.take(b, result));
  EXPECT_EQ(async.wait(again), TicketStatus::Done);
  ASSERT_TRUE(async.take(again, result));
  ASSERT_TRUE(async.take(high, result));
  EXPECT_EQ(async.in_flight(), 0u);
}

TEST(Admission, WeightedFairServiceFavoursTheHeavyLane) {
  // One shard, batches of 4, lanes weighted 3:1. A slow DEMT request
  // occupies the strand while both lanes back-fill, so when the strand
  // re-pops, every later batch takes ~3 high for every 1 low — the last
  // high-lane request must finish before the last low-lane one.
  const auto instances = make_instances(1, 60, 24, 7);
  DemtOptions busy;
  busy.shuffles = 64;  // keep the strand busy while queues load
  const DemtPolicy slow_policy(busy);
  EngineRequest slow;
  slow.instance = &instances[0];
  slow.policy = &slow_policy;
  EngineRequest fast = slow;
  fast.policy = &kFlatList;

  const WeightedLanesAdmission admission(two_lanes(3, 1));
  AsyncOptions options;
  options.shards = 1;
  options.max_batch = 4;
  options.flush_after_ms = 1e6;
  options.queue_capacity = 256;
  options.admission = &admission;
  AsyncScheduler async(options);

  const Ticket head = async.submit(slow, 1);
  ASSERT_TRUE(head.accepted());
  async.flush();  // strand starts the slow head request

  std::vector<Ticket> low;
  std::vector<Ticket> high;
  for (int i = 0; i < 12; ++i) {
    low.push_back(async.submit(fast, 1));
    ASSERT_TRUE(low.back().accepted());
  }
  for (int i = 0; i < 12; ++i) {
    high.push_back(async.submit(fast, 0));
    ASSERT_TRUE(high.back().accepted());
  }
  async.drain();

  const auto last_done_ms = [&](const std::vector<Ticket>& tickets) {
    double last = 0.0;
    for (const Ticket& t : tickets) {
      EXPECT_EQ(async.poll(t), TicketStatus::Done);
      last = std::max(last, async.latency_seconds(t));
    }
    return last;
  };
  // Submit instants are microseconds apart while the done instants are
  // whole batches apart, so latency order is completion order.
  EXPECT_LT(last_done_ms(high), last_done_ms(low));

  EngineResult result;
  (void)async.take(head, result);
  for (const Ticket& t : low) (void)async.take(t, result);
  for (const Ticket& t : high) (void)async.take(t, result);
}

TEST(Admission, StreamsRideTheirLaneAndStayOrdered) {
  const int m = 8;
  Rng rng(41);
  std::vector<StreamArrival> arrivals;
  double release = 0.0;
  for (int j = 0; j < 8; ++j) {
    Instance tmp = generate_instance(WorkloadFamily::Cirne, 1, m, rng);
    arrivals.push_back(moldable_arrival(tmp.task(0), release));
    release += 0.5;
  }

  const WeightedLanesAdmission admission(two_lanes(3, 1));
  AsyncOptions options;
  options.shards = 2;
  options.admission = &admission;
  AsyncScheduler async(options);

  StreamConfig stream_config;
  stream_config.m = m;
  stream_config.policy = &kFlatList;
  const StreamTicket stream = async.open_stream(stream_config, 1);
  ASSERT_TRUE(stream.accepted());
  EXPECT_EQ(stream.lane, 1u);

  std::vector<Ticket> feeds;
  for (std::size_t j = 0; j < arrivals.size(); ++j) {
    feeds.push_back(
        async.submit_stream(stream, &arrivals[j], 1, arrivals[j].release));
    ASSERT_TRUE(feeds.back().accepted());
    EXPECT_EQ(feeds.back().lane, 1u);  // feeds inherit the stream's lane
  }
  feeds.push_back(async.close_stream(stream));
  ASSERT_TRUE(feeds.back().accepted());
  EXPECT_EQ(feeds.back().lane, 1u);

  // Ordered, contiguous delivery: feed j delivers exactly job j.
  StreamDelivery delivery;
  int next_job = 0;
  for (std::size_t j = 0; j < feeds.size(); ++j) {
    EXPECT_EQ(async.wait(feeds[j]), TicketStatus::Done);
    ASSERT_TRUE(async.take_stream(feeds[j], delivery));
    EXPECT_EQ(delivery.first_job, next_job);
    next_job += delivery.num_jobs();
  }
  EXPECT_EQ(next_job, static_cast<int>(arrivals.size()));
  const AsyncStats stats = async.stats();
  EXPECT_EQ(stats.lanes[1].submitted, feeds.size());
  EXPECT_EQ(stats.lanes[1].completed, feeds.size());
}

TEST(Admission, ClassifierRoutesByContent) {
  // A custom policy that sends DEMT work to the slow lane by inspecting
  // the request — the pluggable-admission hook in action.
  class ByAlgorithm final : public AdmissionPolicy {
   public:
    [[nodiscard]] std::vector<LaneSpec> lanes() const override {
      LaneSpec fast;
      fast.name = "interactive";
      fast.weight = 4;
      LaneSpec slow;
      slow.name = "batch";
      slow.weight = 1;
      return {fast, slow};
    }
    [[nodiscard]] int classify(
        const EngineRequest& request) const noexcept override {
      return std::strcmp(request.policy->name(), "demt") == 0 ? 1 : 0;
    }
  };
  const auto instances = make_instances(1, 12, 8, 9);
  const ByAlgorithm admission;
  const DemtPolicy demt_policy;
  AsyncOptions options;
  options.flush_after_ms = 0.0;
  options.admission = &admission;
  AsyncScheduler async(options);

  EngineRequest fast;
  fast.instance = &instances[0];
  fast.policy = &kFlatList;
  EngineRequest slow = fast;
  slow.policy = &demt_policy;
  const Ticket a = async.submit(fast);
  const Ticket b = async.submit(slow);
  EXPECT_EQ(a.lane, 0u);
  EXPECT_EQ(b.lane, 1u);
  async.drain();
  EngineResult result;
  EXPECT_TRUE(async.take(a, result));
  EXPECT_TRUE(async.take(b, result));
}

TEST(Admission, ValidatesPoliciesAndLaneTables) {
  EXPECT_THROW(WeightedLanesAdmission({}), std::invalid_argument);
  EXPECT_THROW(WeightedLanesAdmission(two_lanes(0, 1)), std::invalid_argument);
  EXPECT_THROW(WeightedLanesAdmission(two_lanes(1, 1), 5),
               std::invalid_argument);

  class NoLanes final : public AdmissionPolicy {
   public:
    [[nodiscard]] std::vector<LaneSpec> lanes() const override { return {}; }
  };
  const NoLanes broken;
  AsyncOptions options;
  options.admission = &broken;
  EXPECT_THROW(AsyncScheduler{options}, std::invalid_argument);

  class BadWeight final : public AdmissionPolicy {
   public:
    [[nodiscard]] std::vector<LaneSpec> lanes() const override {
      LaneSpec lane;
      lane.weight = 0;
      return {lane};
    }
  };
  const BadWeight bad_weight;
  options.admission = &bad_weight;
  EXPECT_THROW(AsyncScheduler{options}, std::invalid_argument);
}

TEST(Admission, SingleLaneBehaviourMatchesPrePolicyScheduler) {
  // A one-lane WeightedLanesAdmission must behave exactly like the
  // default FifoAdmission: same acceptance, same results.
  const auto instances = make_instances(8, 25, 12, 13);
  std::vector<EngineRequest> requests(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    requests[i].instance = &instances[i];
    requests[i].policy = &kFlatList;
  }
  SchedulerEngine sync(EngineOptions{1, false});
  std::vector<EngineResult> reference;
  sync.schedule_batch(requests, reference);

  LaneSpec only;
  only.name = "only";
  const WeightedLanesAdmission admission({only});
  AsyncOptions options;
  options.shards = 2;
  options.max_batch = 4;
  options.admission = &admission;
  AsyncScheduler async(options);
  std::vector<Ticket> tickets;
  for (const auto& request : requests) {
    tickets.push_back(async.submit(request));
    ASSERT_TRUE(tickets.back().accepted());
  }
  async.drain();
  EngineResult result;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(async.take(tickets[i], result));
    EXPECT_EQ(result.cmax, reference[i].cmax);
    EXPECT_EQ(result.weighted_completion_sum,
              reference[i].weighted_completion_sum);
  }
}

TEST(Admission, FailedStreamFeedKeepsLaneTagAndNamesPolicy) {
  // The Failed path for lane-tagged stream tickets: a feed violating the
  // watermark contract (going backwards) completes Failed on its lane,
  // error() names the offence and the stream's policy, the lane's
  // completed counter still advances, and the stream stays usable.
  const int m = 8;
  Rng rng(99);
  Instance tmp = generate_instance(WorkloadFamily::Mixed, 2, m, rng);
  const StreamArrival first = moldable_arrival(tmp.task(0), 1.0);
  const StreamArrival backwards = moldable_arrival(tmp.task(1), 0.25);

  const WeightedLanesAdmission admission(two_lanes(3, 1));
  AsyncOptions options;
  options.admission = &admission;
  AsyncScheduler async(options);

  StreamConfig stream_config;
  stream_config.m = m;
  stream_config.policy = &kFlatList;
  const StreamTicket stream = async.open_stream(stream_config, 1);
  ASSERT_TRUE(stream.accepted());

  const Ticket good = async.submit_stream(stream, &first, 1, 1.0);
  ASSERT_TRUE(good.accepted());
  ASSERT_EQ(async.wait(good), TicketStatus::Done);
  StreamDelivery delivery;
  ASSERT_TRUE(async.take_stream(good, delivery));

  const Ticket bad = async.submit_stream(stream, &backwards, 1, 0.25);
  ASSERT_TRUE(bad.accepted());
  EXPECT_EQ(bad.lane, 1u);  // the refusal is attributable to its lane
  EXPECT_EQ(async.wait(bad), TicketStatus::Failed);
  const std::string error = async.error(bad);
  EXPECT_NE(error.find("watermark"), std::string::npos) << error;
  EXPECT_NE(error.find("policy: flatlist"), std::string::npos) << error;
  EXPECT_GT(async.latency_seconds(bad), 0.0);
  ASSERT_TRUE(async.take_stream(bad, delivery));  // Failed frees the slot

  // The stream survives the failed feed: a valid follow-up and the close
  // still deliver, all on lane 1.
  const StreamArrival resume = moldable_arrival(tmp.task(1), 2.0);
  const Ticket next = async.submit_stream(stream, &resume, 1, 2.0);
  ASSERT_TRUE(next.accepted());
  EXPECT_EQ(async.wait(next), TicketStatus::Done);
  ASSERT_TRUE(async.take_stream(next, delivery));
  const Ticket close = async.close_stream(stream);
  EXPECT_EQ(async.wait(close), TicketStatus::Done);
  ASSERT_TRUE(async.take_stream(close, delivery));
  EXPECT_TRUE(delivery.final_delivery);
  const AsyncStats stats = async.stats();
  EXPECT_EQ(stats.lanes[1].submitted, 4u);
  EXPECT_EQ(stats.lanes[1].completed, 4u);
  EXPECT_EQ(stats.failed, 1u);
}

}  // namespace
}  // namespace moldsched
