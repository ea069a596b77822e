/// The policy-object surface's regression gate: the async serving layer
/// must be bit-identical to the synchronous engine under the same
/// SchedulingPolicy object for shards {1, 2, 4}, for both built-ins (demt,
/// flatlist), one-shot and streaming; and every entry point refuses a
/// missing policy. Plus the extension-point proof: LptRigidPolicy
/// (baselines/lpt_policy.hpp) rides through engine, simulator, stream,
/// and serve without any change to those layers.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "baselines/lpt_policy.hpp"
#include "core/policy.hpp"
#include "engine/engine.hpp"
#include "sched/validator.hpp"
#include "serve/async_scheduler.hpp"
#include "sim/stream.hpp"
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

void expect_identical(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  for (int t = 0; t < a.num_tasks(); ++t) {
    const Placement& pa = a.placement(t);
    const Placement& pb = b.placement(t);
    EXPECT_EQ(pa.start, pb.start) << "task " << t;
    EXPECT_EQ(pa.duration, pb.duration) << "task " << t;
    EXPECT_EQ(pa.procs, pb.procs) << "task " << t;
  }
}

void expect_identical(const EngineResult& a, const EngineResult& b) {
  EXPECT_EQ(a.cmax, b.cmax);
  EXPECT_EQ(a.weighted_completion_sum, b.weighted_completion_sum);
  ASSERT_EQ(a.has_schedule, b.has_schedule);
  if (a.has_schedule) expect_identical(a.schedule, b.schedule);
}

void expect_identical(const StreamDelivery& a, const StreamDelivery& b) {
  EXPECT_EQ(a.first_job, b.first_job);
  EXPECT_EQ(a.placements.start, b.placements.start);
  EXPECT_EQ(a.placements.duration, b.placements.duration);
  EXPECT_EQ(a.placements.proc_begin, b.placements.proc_begin);
  EXPECT_EQ(a.placements.proc_count, b.placements.proc_count);
  EXPECT_EQ(a.placements.proc_ids, b.placements.proc_ids);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.batch_starts, b.batch_starts);
  EXPECT_EQ(a.cmax, b.cmax);
  EXPECT_EQ(a.weighted_completion_sum, b.weighted_completion_sum);
  EXPECT_EQ(a.num_batches, b.num_batches);
  ASSERT_EQ(a.chunks.size(), b.chunks.size());
  for (std::size_t c = 0; c < a.chunks.size(); ++c) {
    EXPECT_EQ(a.chunks[c].job, b.chunks[c].job);
    EXPECT_EQ(a.chunks[c].proc, b.chunks[c].proc);
    EXPECT_EQ(a.chunks[c].start, b.chunks[c].start);
    EXPECT_EQ(a.chunks[c].duration, b.chunks[c].duration);
  }
  EXPECT_EQ(a.divisible_done, b.divisible_done);
  EXPECT_EQ(a.divisible_completion, b.divisible_completion);
}

std::vector<OnlineJob> make_online_jobs(int count, int m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<OnlineJob> jobs;
  double release = 0.0;
  for (int j = 0; j < count; ++j) {
    Instance tmp = generate_instance(WorkloadFamily::Cirne, 1, m, rng);
    jobs.push_back(OnlineJob{tmp.task(0), release});
    release += rng.uniform(0.0, 1.0);
  }
  return jobs;
}

TEST(Policy, ServePolicyPathBitIdenticalForShardCounts) {
  const auto instances = make_instances(12, 30, 16, 7);
  DemtOptions demt;
  demt.shuffles = 4;
  const DemtPolicy demt_policy(demt);
  const FlatListPolicy flat_policy;

  for (const bool flat : {false, true}) {
    // Reference: the synchronous engine under the same policy object.
    std::vector<EngineRequest> policy_requests(instances.size());
    for (std::size_t i = 0; i < instances.size(); ++i) {
      policy_requests[i].instance = &instances[i];
      policy_requests[i].policy =
          flat ? static_cast<const SchedulingPolicy*>(&flat_policy)
               : &demt_policy;
    }
    SchedulerEngine sync(EngineOptions{1, true});
    std::vector<EngineResult> reference;
    sync.schedule_batch(policy_requests, reference);

    for (int shards : {1, 2, 4}) {
      AsyncOptions options;
      options.shards = shards;
      options.max_batch = 3;
      options.queue_capacity = 64;
      options.keep_schedules = true;
      AsyncScheduler async(options);
      std::vector<Ticket> tickets;
      for (const auto& request : policy_requests) {
        tickets.push_back(async.submit(request));
        ASSERT_TRUE(tickets.back().accepted());
      }
      for (std::size_t i = 0; i < tickets.size(); ++i) {
        EXPECT_EQ(async.wait(tickets[i]), TicketStatus::Done)
            << "shards=" << shards;
        EngineResult result;
        ASSERT_TRUE(async.take(tickets[i], result));
        expect_identical(result, reference[i]);
      }
    }
  }
}

TEST(Policy, ServeStreamPolicyPathBitIdenticalForShardCounts) {
  const int m = 8;
  Rng rng(29);
  std::vector<StreamArrival> arrivals;
  double release = 0.0;
  for (int j = 0; j < 10; ++j) {
    Instance tmp = generate_instance(WorkloadFamily::Cirne, 1, m, rng);
    arrivals.push_back(moldable_arrival(tmp.task(0), release));
    release += rng.uniform(0.0, 0.6);
  }
  const FlatListPolicy flat_policy;

  // Reference: the synchronous engine's stream under the same policy.
  SchedulerEngine engine(EngineOptions{1, true});
  StreamConfig config;
  config.m = m;
  config.policy = &flat_policy;
  const EngineStreamId reference_id = engine.open_stream(config);
  std::vector<StreamDelivery> reference;
  StreamDelivery scratch;
  for (std::size_t j = 0; j < arrivals.size(); ++j) {
    engine.feed_stream(reference_id, &arrivals[j], 1, arrivals[j].release,
                       scratch);
    reference.push_back(scratch);
  }
  engine.close_stream(reference_id, scratch);
  reference.push_back(scratch);

  for (int shards : {1, 2, 4}) {
    AsyncOptions options;
    options.shards = shards;
    options.queue_capacity = 64;
    AsyncScheduler async(options);
    const StreamTicket stream = async.open_stream(config);
    ASSERT_TRUE(stream.accepted());
    std::vector<Ticket> tickets;
    for (std::size_t j = 0; j < arrivals.size(); ++j) {
      tickets.push_back(async.submit_stream(stream, &arrivals[j], 1,
                                            arrivals[j].release));
      ASSERT_TRUE(tickets.back().accepted());
    }
    tickets.push_back(async.close_stream(stream));
    ASSERT_TRUE(tickets.back().accepted());
    StreamDelivery delivery;
    for (std::size_t j = 0; j < tickets.size(); ++j) {
      EXPECT_EQ(async.wait(tickets[j]), TicketStatus::Done)
          << "shards=" << shards << " feed " << j;
      ASSERT_TRUE(async.take_stream(tickets[j], delivery));
      expect_identical(delivery, reference[j]);
    }
  }
}

TEST(Policy, MissingPolicyIsRejectedAtEveryEntryPoint) {
  // The policy object is the only way to choose the per-batch algorithm:
  // a null policy is refused with std::invalid_argument at every engine
  // entry point, and by the serving layer at admission — before any
  // shard sees the request.
  const int m = 8;
  const auto instances = make_instances(1, 12, m, 3);
  const auto jobs = make_online_jobs(6, m, 5);
  const FlatListPolicy flat_policy;

  SchedulerEngine engine(EngineOptions{1, true});
  EngineRequest request;
  request.instance = &instances[0];
  EXPECT_THROW((void)engine.schedule_batch({request}), std::invalid_argument);
  OnlineRequest online;
  online.m = m;
  online.jobs = &jobs;
  std::vector<FlatOnlineResult> online_results;
  EXPECT_THROW(engine.simulate_batch({online}, online_results),
               std::invalid_argument);

  StreamConfig config;
  config.m = m;
  EXPECT_THROW((void)engine.open_stream(config), std::invalid_argument);
  config.policy = &flat_policy;
  const EngineStreamId live = engine.open_stream(config);
  StreamCheckpoint ckpt;
  engine.checkpoint_stream(live, ckpt);
  config.policy = nullptr;
  EXPECT_THROW((void)engine.restore_stream(config, ckpt),
               std::invalid_argument);
  EXPECT_EQ(engine.stats().streams_opened, 1u);
  EXPECT_EQ(engine.stats().streams_restored, 0u);
  EXPECT_TRUE(engine.stream_open(live));

  AsyncOptions options;
  options.flush_after_ms = 0.0;
  AsyncScheduler async(options);
  EXPECT_THROW((void)async.submit(request), std::invalid_argument);
  EXPECT_THROW((void)async.submit(request, 0), std::invalid_argument);
  EXPECT_THROW((void)async.open_stream(config), std::invalid_argument);
  EXPECT_THROW((void)async.open_stream(config, 0), std::invalid_argument);
  const AsyncStats stats = async.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.streams_opened, 0u);
  EXPECT_EQ(async.in_flight(), 0u);
  EXPECT_EQ(async.open_streams(), 0u);
}

TEST(Policy, LptRigidPolicyPlugsInWithoutEngineChanges) {
  const auto instances = make_instances(6, 35, 16, 11);
  const LptRigidPolicy lpt;

  // Direct call = the policy's ground truth.
  auto workspace = lpt.make_workspace();
  FlatPlacements direct;
  EXPECT_STREQ(lpt.name(), "lpt_rigid");

  // Engine batch path.
  SchedulerEngine engine(EngineOptions{1, true});
  const auto results = engine.schedule_all(instances, lpt);
  ASSERT_EQ(results.size(), instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    require_valid(results[i].schedule, instances[i]);
    lpt.schedule_into(instances[i], *workspace, direct);
    EXPECT_EQ(results[i].cmax, direct.cmax());
    EXPECT_EQ(results[i].weighted_completion_sum,
              direct.weighted_completion_sum(instances[i]));
  }

  // Engine online-simulation path.
  const int m = 8;
  const auto jobs = make_online_jobs(10, m, 13);
  OnlineRequest request;
  request.m = m;
  request.jobs = &jobs;
  request.policy = &lpt;
  std::vector<FlatOnlineResult> online;
  engine.simulate_batch({request}, online);
  ASSERT_EQ(online.size(), 1u);
  EXPECT_GT(online[0].cmax, 0.0);
  EXPECT_EQ(online[0].num_batches > 0, true);

  // Serving path, metrics only.
  AsyncOptions options;
  options.shards = 2;
  AsyncScheduler async(options);
  EngineRequest serve_request;
  serve_request.instance = &instances[0];
  serve_request.policy = &lpt;
  const Ticket ticket = async.submit(serve_request);
  ASSERT_TRUE(ticket.accepted());
  EXPECT_EQ(async.wait(ticket), TicketStatus::Done);
  EngineResult served;
  ASSERT_TRUE(async.take(ticket, served));
  lpt.schedule_into(instances[0], *workspace, direct);
  EXPECT_EQ(served.cmax, direct.cmax());

  // Streaming path.
  StreamConfig config;
  config.m = m;
  config.policy = &lpt;
  const EngineStreamId stream = engine.open_stream(config);
  StreamDelivery delivery;
  Rng rng(31);
  double release = 0.0;
  for (int j = 0; j < 6; ++j) {
    Instance tmp = generate_instance(WorkloadFamily::Mixed, 1, m, rng);
    const StreamArrival arrival = moldable_arrival(tmp.task(0), release);
    engine.feed_stream(stream, &arrival, 1, release, delivery);
    release += 0.5;
  }
  engine.close_stream(stream, delivery);
  EXPECT_TRUE(delivery.final_delivery);
  EXPECT_EQ(engine.stats().streams_opened, 1u);
}

TEST(Policy, StreamPolicyOverloadMatchesPluginForm) {
  const int m = 6;
  Rng rng(37);
  std::vector<StreamArrival> arrivals;
  double release = 0.0;
  for (int j = 0; j < 8; ++j) {
    Instance tmp = generate_instance(WorkloadFamily::WeaklyParallel, 1, m, rng);
    arrivals.push_back(moldable_arrival(tmp.task(0), release));
    release += 0.4;
  }
  const FlatListPolicy policy;
  auto policy_ws = policy.make_workspace();

  OnlineStream via_policy;
  OnlineStream via_plugin;
  via_policy.open(m, {});
  via_plugin.open(m, {});
  const FlatOfflineScheduler plugin = policy_offline(policy, *policy_ws);
  StreamDelivery da;
  StreamDelivery db;
  for (const auto& arrival : arrivals) {
    via_policy.feed(&arrival, 1, arrival.release, policy, *policy_ws, da);
    via_plugin.feed(&arrival, 1, arrival.release, plugin, db);
    expect_identical(da, db);
  }
  via_policy.finish(policy, *policy_ws, da);
  via_plugin.finish(plugin, db);
  expect_identical(da, db);
}

TEST(Policy, WorkspacePoolSharesPerClassKeys) {
  // Two DemtPolicy instances share one pooled workspace (per-class key);
  // a policy without an override gets a per-instance key.
  const DemtPolicy a{DemtOptions{}};
  DemtOptions other;
  other.shuffles = 2;
  const DemtPolicy b(other);
  EXPECT_EQ(a.workspace_key(), b.workspace_key());
  const FlatListPolicy flat;
  EXPECT_NE(a.workspace_key(), flat.workspace_key());

  class CustomPolicy final : public SchedulingPolicy {
   public:
    [[nodiscard]] const char* name() const noexcept override {
      return "custom";
    }
    [[nodiscard]] std::unique_ptr<PolicyWorkspace> make_workspace()
        const override {
      return std::make_unique<PolicyWorkspace>();
    }
    void schedule_into(const Instance& batch, PolicyWorkspace& ws,
                       FlatPlacements& out) const override {
      FlatListPolicy fallback;
      auto scratch = fallback.make_workspace();
      fallback.schedule_into(batch, *scratch, out);
      (void)ws;
    }
  };
  const CustomPolicy c1;
  const CustomPolicy c2;
  EXPECT_EQ(c1.workspace_key(), &c1);
  EXPECT_NE(c1.workspace_key(), c2.workspace_key());
}

}  // namespace
}  // namespace moldsched
