/// The policy-object surface's regression gate: the async serving layer
/// must be bit-identical to the synchronous engine under the same
/// SchedulingPolicy object for shards {1, 2, 4}, for both built-ins (demt,
/// flatlist), one-shot and streaming; and every entry point refuses a
/// missing policy. Plus the extension-point proof: LptRigidPolicy
/// (baselines/lpt_policy.hpp) rides through engine, simulator and serve,
/// one-shot and streaming, without any change to those layers.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/lpt_policy.hpp"
#include "core/policy.hpp"
#include "engine/engine.hpp"
#include "gate_workloads.hpp"
#include "sched/validator.hpp"
#include "serve/async_scheduler.hpp"
#include "sim/online.hpp"
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

void expect_identical(const EngineResult& a, const EngineResult& b) {
  EXPECT_EQ(a.cmax, b.cmax);
  EXPECT_EQ(a.weighted_completion_sum, b.weighted_completion_sum);
  ASSERT_EQ(a.has_schedule, b.has_schedule);
  if (a.has_schedule) {
    gate::expect_identical_placements(a.schedule, b.schedule);
  }
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

  // Priority lanes change when a request is served, never its result:
  // the serving gate workload (24 DEMT requests, n=60, m=32), spread
  // round-robin over two lanes weighted 3:1.
  const auto gate_instances = gate::serve_instances();
  DemtOptions gate_demt;
  gate_demt.shuffles = gate::kShuffles;
  const DemtPolicy gate_policy(gate_demt);
  std::vector<EngineRequest> requests(gate_instances.size());
  for (std::size_t i = 0; i < gate_instances.size(); ++i) {
    requests[i].instance = &gate_instances[i];
    requests[i].policy = &gate_policy;
  }
  SchedulerEngine sync(EngineOptions{1, true});
  std::vector<EngineResult> reference;
  sync.schedule_batch(requests, reference);
  for (int shards : {1, 2, 4}) {
    AsyncOptions options;
    options.shards = shards;
    options.max_batch = gate::kServeMaxBatch;
    options.flush_after_ms = gate::kServeFlushMs;
    options.queue_capacity = 4096;
    options.keep_schedules = true;
    options.lanes = gate::serve_lanes();
    AsyncScheduler async(options);
    std::vector<Ticket> tickets;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      tickets.push_back(async.submit(requests[i], static_cast<int>(i % 2)));
      ASSERT_TRUE(tickets.back().accepted());
    }
    async.drain();
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "lanes, shards=" << shards
                                      << " request " << i);
      EngineResult result;
      ASSERT_TRUE(async.take(tickets[i], result));
      expect_identical(result, reference[i]);
    }
    EXPECT_GT(async.stats().lanes[1].completed, 0u);
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

  // Reference: a bare OnlineStream under the same policy.
  const auto policy_ws = flat_policy.make_workspace();
  OnlineStream bare;
  bare.open(m, {});
  std::vector<StreamDelivery> reference;
  StreamDelivery scratch;
  for (std::size_t j = 0; j < arrivals.size(); ++j) {
    bare.feed(&arrivals[j], 1, arrivals[j].release, flat_policy, *policy_ws,
              scratch);
    reference.push_back(scratch);
  }
  bare.finish(flat_policy, *policy_ws, scratch);
  reference.push_back(scratch);

  StreamConfig config;
  config.m = m;
  config.policy = &flat_policy;

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
  // a null policy is refused with std::invalid_argument by the engine, and
  // by the serving layer at admission — one-shot or stream — before any
  // shard sees the request.
  const int m = 8;
  const auto instances = make_instances(1, 12, m, 3);
  const FlatListPolicy flat_policy;

  SchedulerEngine engine(EngineOptions{1, true});
  EngineRequest request;
  request.instance = &instances[0];
  EXPECT_THROW((void)engine.schedule_batch({request}), std::invalid_argument);

  StreamConfig config;
  config.m = m;

  AsyncOptions options;
  options.flush_after_ms = 0.0;
  AsyncScheduler async(options);
  EXPECT_THROW((void)async.submit(request), std::invalid_argument);
  EXPECT_THROW((void)async.open_stream(config), std::invalid_argument);
  const AsyncStats stats = async.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.streams_opened, 0u);
  EXPECT_EQ(async.in_flight(), 0u);
  EXPECT_EQ(async.open_streams(), 0u);

  // A refused open leaves the table untouched: the same config with its
  // policy opens normally.
  config.policy = &flat_policy;
  const StreamTicket stream = async.open_stream(config);
  ASSERT_TRUE(stream.accepted());
  EXPECT_EQ(async.open_streams(), 1u);
  const Ticket close = async.close_stream(stream);
  EXPECT_EQ(async.wait(close), TicketStatus::Done);
  StreamDelivery delivery;
  ASSERT_TRUE(async.take_stream(close, delivery));
  EXPECT_EQ(async.stats().streams_opened, 1u);
}

/// FlatList with one defect injected into its output, for the output
/// checks: `Short` drops the last placement, `BadProc` moves the first
/// task onto processor batch.procs(), one past the batch's machine, and
/// the `Ragged*` defects drop the last entry of one array only.
class MalformedPolicy final : public SchedulingPolicy {
 public:
  enum class Defect {
    Short, BadProc, RaggedDuration, RaggedBegin, RaggedCount
  };
  explicit MalformedPolicy(Defect defect) : defect_(defect) {}
  [[nodiscard]] const char* name() const noexcept override {
    return "malformed";
  }
  [[nodiscard]] std::unique_ptr<PolicyWorkspace> make_workspace()
      const override {
    return flat_.make_workspace();
  }
  void schedule_into(const Instance& batch, PolicyWorkspace& ws,
                     FlatPlacements& out) const override {
    flat_.schedule_into(batch, ws, out);
    switch (defect_) {
      case Defect::Short:
        out.start.pop_back();
        out.duration.pop_back();
        out.proc_begin.pop_back();
        out.proc_count.pop_back();
        break;
      case Defect::BadProc:
        out.proc_ids[static_cast<std::size_t>(out.proc_begin[0])] =
            batch.procs();
        break;
      case Defect::RaggedDuration: out.duration.pop_back(); break;
      case Defect::RaggedBegin: out.proc_begin.pop_back(); break;
      case Defect::RaggedCount: out.proc_count.pop_back(); break;
    }
  }

 private:
  FlatListPolicy flat_;
  Defect defect_;
};

/// Run `call`, demanding a std::logic_error whose message names the policy.
template <typename Call>
void expect_rejected(const Call& call) {
  try {
    call();
    ADD_FAILURE() << "malformed policy output was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("malformed"), std::string::npos)
        << e.what();
  }
}

/// A malformed policy output is rejected before anything indexes with it:
/// by the off-line batch loop, by a stream feed (which then stays
/// broken), and by the engine's off-line request path.
void expect_rejected_at_every_entry_point(const MalformedPolicy& policy) {
  const int m = 8;
  const auto jobs = make_online_jobs(6, m, 7);
  const auto instances = make_instances(1, 12, m, 9);
  const auto policy_ws = policy.make_workspace();

  OnlineWorkspace online_ws;
  FlatOnlineResult online_out;
  expect_rejected([&] {
    online_batch_schedule_into(m, jobs, policy, *policy_ws, {}, online_ws,
                               online_out);
  });

  OnlineStream stream;
  stream.open(m, {});
  const StreamArrival arrival = moldable_arrival(jobs[0].task, 0.0);
  StreamDelivery delivery;
  expect_rejected(
      [&] { stream.feed(&arrival, 1, 1.0, policy, *policy_ws, delivery); });
  EXPECT_TRUE(stream.broken());

  SchedulerEngine engine(EngineOptions{1, false});
  EngineRequest request;
  request.instance = &instances[0];
  request.policy = &policy;
  expect_rejected([&] { (void)engine.schedule_batch({request}); });
}

TEST(Policy, ShortOutputIsRejectedAtEveryEntryPoint) {
  expect_rejected_at_every_entry_point(
      MalformedPolicy(MalformedPolicy::Defect::Short));
}

TEST(Policy, OutOfRangeProcessorIsRejectedAtEveryEntryPoint) {
  expect_rejected_at_every_entry_point(
      MalformedPolicy(MalformedPolicy::Defect::BadProc));
}

TEST(Policy, RaggedOutputArraysAreRejectedAtEveryEntryPoint) {
  // One array shorter than the others, the task count still right: the
  // check must compare the lengths before it indexes any array.
  for (const auto defect : {MalformedPolicy::Defect::RaggedDuration,
                            MalformedPolicy::Defect::RaggedBegin,
                            MalformedPolicy::Defect::RaggedCount}) {
    SCOPED_TRACE(testing::Message() << "defect " << static_cast<int>(defect));
    expect_rejected_at_every_entry_point(MalformedPolicy(defect));
  }
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
  std::vector<EngineRequest> requests(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    requests[i].instance = &instances[i];
    requests[i].policy = &lpt;
  }
  const auto results = engine.schedule_batch(requests);
  ASSERT_EQ(results.size(), instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    require_valid(results[i].schedule, instances[i]);
    lpt.schedule_into(instances[i], *workspace, direct);
    EXPECT_EQ(results[i].cmax, direct.cmax());
    EXPECT_EQ(results[i].weighted_completion_sum,
              direct.weighted_completion_sum(instances[i]));
  }

  // On-line simulation path.
  const int m = 8;
  const auto jobs = make_online_jobs(10, m, 13);
  OnlineWorkspace online_ws;
  FlatOnlineResult online;
  online_batch_schedule_into(m, jobs, lpt, *workspace, {}, online_ws, online);
  EXPECT_GT(online.cmax, 0.0);
  EXPECT_GT(online.num_batches, 0);

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

  // Streaming path, through the same serving layer.
  StreamConfig config;
  config.m = m;
  config.policy = &lpt;
  const StreamTicket stream = async.open_stream(config);
  ASSERT_TRUE(stream.accepted());
  Rng rng(31);
  std::vector<StreamArrival> arrivals;
  double release = 0.0;
  for (int j = 0; j < 6; ++j) {
    Instance tmp = generate_instance(WorkloadFamily::Mixed, 1, m, rng);
    arrivals.push_back(moldable_arrival(tmp.task(0), release));
    release += 0.5;
  }
  std::vector<Ticket> tickets;
  for (const StreamArrival& arrival : arrivals) {
    tickets.push_back(
        async.submit_stream(stream, &arrival, 1, arrival.release));
  }
  tickets.push_back(async.close_stream(stream));
  StreamDelivery delivery;
  for (const Ticket& ticket : tickets) {
    ASSERT_EQ(async.wait(ticket), TicketStatus::Done) << async.error(ticket);
    ASSERT_TRUE(async.take_stream(ticket, delivery));
  }
  EXPECT_TRUE(delivery.final_delivery);
  EXPECT_EQ(async.stats().streams_opened, 1u);
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
