/// The on-line batch framework's regression contract: the workspace-based
/// core must reproduce the pre-refactor Schedule-per-batch oracle
/// bit-for-bit — every placement, every metric, every batch boundary — on
/// generated workloads, with and without reservations, for DEMT and a
/// baseline policy. Also covers the event simulator's workspace reuse and
/// its reading of shared processor ranges.

#include <gtest/gtest.h>

#include "baselines/lpt_policy.hpp"
#include "core/demt.hpp"
#include "engine/engine.hpp"
#include "gate_workloads.hpp"
#include "reference/event_sim.hpp"
#include "reference/online_reference.hpp"
#include "sched/validator.hpp"
#include "sim/online.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace moldsched {
namespace {

const DemtPolicy kDemt;

/// `policy` as the oracle's off-line plug-in (a fresh workspace per call).
OfflineScheduler offline_of(const SchedulingPolicy& policy) {
  return [&policy](const Instance& instance) {
    const auto ws = policy.make_workspace();
    FlatPlacements out;
    policy.schedule_into(instance, *ws, out);
    return out;
  };
}

std::vector<OnlineJob> make_stream(WorkloadFamily family, int count, int m,
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

void expect_bit_identical(const FlatOnlineResult& flat,
                          const OnlineResult& reference) {
  ASSERT_EQ(flat.schedule.size(), reference.schedule.num_tasks());
  for (int t = 0; t < flat.schedule.size(); ++t) {
    const Placement& pr = reference.schedule.placement(t);
    EXPECT_EQ(flat.schedule.start[static_cast<std::size_t>(t)], pr.start)
        << "job " << t;
    EXPECT_EQ(flat.schedule.duration[static_cast<std::size_t>(t)],
              pr.duration)
        << "job " << t;
    EXPECT_EQ(gate::entry_procs(flat.schedule, t), pr.procs) << "job " << t;
  }
  EXPECT_EQ(flat.completion, reference.completion);
  EXPECT_EQ(flat.flow, reference.flow);
  EXPECT_EQ(flat.cmax, reference.cmax);
  EXPECT_EQ(flat.weighted_completion_sum, reference.weighted_completion_sum);
  EXPECT_EQ(flat.weighted_flow_sum, reference.weighted_flow_sum);
  EXPECT_EQ(flat.num_batches, reference.num_batches);
  EXPECT_EQ(flat.batch_starts, reference.batch_starts);
}

TEST(OnlineFlat, MatchesReferenceOnGeneratedWorkloads) {
  Rng rng(20040627);
  for (auto family : {WorkloadFamily::Cirne, WorkloadFamily::Mixed,
                      WorkloadFamily::HighlyParallel}) {
    const auto jobs = make_stream(family, 18, 8, 1.5, rng);
    const auto flat = gate::run_online(8, jobs, kDemt);
    const auto reference =
        online_batch_schedule_reference(8, jobs, offline_of(kDemt));
    expect_bit_identical(flat, reference);
  }
}

TEST(OnlineFlat, MatchesReferenceWithReservations) {
  Rng rng(99);
  const auto jobs = make_stream(WorkloadFamily::Cirne, 14, 8, 1.0, rng);
  const std::vector<NodeReservation> reservations = {
      {0, 2.0, 6.0}, {1, 2.0, 6.0}, {7, 0.0, 3.0}};
  const auto flat =
      gate::run_online(8, jobs, kDemt, reservations);
  const auto reference =
      online_batch_schedule_reference(8, jobs, offline_of(kDemt), reservations);
  expect_bit_identical(flat, reference);
}

TEST(OnlineFlat, MatchesReferenceWithBaselineScheduler) {
  Rng rng(7);
  const auto jobs = make_stream(WorkloadFamily::WeaklyParallel, 12, 6, 0.8, rng);
  const LptRigidPolicy lpt;
  expect_bit_identical(
      gate::run_online(6, jobs, lpt),
      online_batch_schedule_reference(6, jobs, offline_of(lpt)));
}

TEST(OnlineFlat, WorkspaceReuseIsStateless) {
  Rng rng(11);
  const auto jobs_a = make_stream(WorkloadFamily::Mixed, 15, 8, 1.2, rng);
  const auto jobs_b = make_stream(WorkloadFamily::Cirne, 9, 8, 0.4, rng);
  OnlineWorkspace ws;
  FlatOnlineResult out;
  const DemtPolicy policy;
  const auto policy_ws = policy.make_workspace();
  // Interleave two different streams through ONE workspace/result pair and
  // check both runs against fresh-state runs.
  online_batch_schedule_into(8, jobs_a, policy, *policy_ws, {}, ws, out);
  const double cmax_a = out.cmax;
  const double wc_a = out.weighted_completion_sum;
  online_batch_schedule_into(8, jobs_b, policy, *policy_ws, {}, ws, out);
  const auto fresh_b = gate::run_online(8, jobs_b, kDemt);
  EXPECT_EQ(out.cmax, fresh_b.cmax);
  EXPECT_EQ(out.weighted_completion_sum, fresh_b.weighted_completion_sum);
  EXPECT_EQ(out.num_batches, fresh_b.num_batches);
  online_batch_schedule_into(8, jobs_a, policy, *policy_ws, {}, ws, out);
  EXPECT_EQ(out.cmax, cmax_a);
  EXPECT_EQ(out.weighted_completion_sum, wc_a);
}

TEST(OnlineFlat, FlatListOfflinePluginYieldsFeasibleSchedule) {
  Rng rng(23);
  const int m = 8;
  const auto jobs = make_stream(WorkloadFamily::Mixed, 20, m, 1.0, rng);
  OnlineWorkspace ws;
  FlatOnlineResult out;
  const FlatListPolicy policy;
  const auto policy_ws = policy.make_workspace();
  online_batch_schedule_into(m, jobs, policy, *policy_ws, {}, ws, out);

  Instance reference(m);
  ValidationOptions options;
  for (const auto& job : jobs) {
    reference.add_task(job.task);
    options.releases.push_back(job.release);
  }
  const auto report =
      validate_schedule(out.schedule, reference, options);
  EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_GT(out.num_batches, 0);
}

TEST(OnlineFlat, FixpointBudgetSurvivesTimeJumpThenReblock) {
  // Regression: m=1 with back-to-back reservations [0,10) and [9,20) on the
  // only processor. The batch is scheduled, blocked, the machine goes fully
  // reserved, the clock jumps to 10 — still inside the second reservation.
  // The old `iteration <= m` budget expired exactly here and silently
  // lifted the stale batch onto the reserved processor at t=10; the
  // corrected budget converges to the first genuinely free instant, t=20.
  const std::vector<OnlineJob> jobs = {{MoldableTask({5.0}, 1.0), 0.0}};
  const std::vector<NodeReservation> reservations = {{0, 0.0, 10.0},
                                                     {0, 9.0, 20.0}};
  const auto flat =
      gate::run_online(1, jobs, kDemt, reservations);
  EXPECT_GE(flat.schedule.start[0], 20.0 - 1e-9);
  const auto reference =
      online_batch_schedule_reference(1, jobs, offline_of(kDemt), reservations);
  expect_bit_identical(flat, reference);
}

TEST(OnlineFlat, ThrowsLikeTheReference) {
  const MoldableTask task({1.0}, 1.0);
  EXPECT_THROW(
      gate::run_online(2, {}, kDemt), std::invalid_argument);
  EXPECT_THROW(gate::run_online(2, {{task, -1.0}}, kDemt),
               std::invalid_argument);
  EXPECT_THROW(gate::run_online(2, {{task, 0.0}}, kDemt,
                                     {{5, 0.0, 1.0}}),
               std::invalid_argument);
}

// ---------------------------------------------------------------- event sim

TEST(EventSimFlat, SharedStackRangesMatchOneRangePerTask) {
  // DEMT's merged stacks share one processor range; the same schedule
  // with one range per task must simulate identically.
  Rng rng(64);
  for (auto family : {WorkloadFamily::Mixed, WorkloadFamily::Cirne}) {
    const Instance instance = generate_instance(family, 40, 12, rng);
    const auto result = demt_schedule(instance);
    const SimResult shared = simulate_execution(result.schedule, instance);
    const SimResult per_task = simulate_execution(
        to_flat(to_schedule(result.schedule, instance.procs())), instance);

    EXPECT_TRUE(shared.ok);
    EXPECT_EQ(shared.ok, per_task.ok);
    EXPECT_EQ(shared.completion, per_task.completion);
    EXPECT_EQ(shared.cmax, per_task.cmax);
    EXPECT_EQ(shared.weighted_completion_sum,
              per_task.weighted_completion_sum);
    EXPECT_EQ(shared.busy_area, per_task.busy_area);
    EXPECT_EQ(shared.utilisation, per_task.utilisation);
    EXPECT_EQ(shared.events, per_task.events);
  }
}

TEST(EventSimFlat, WorkspaceReuseAcrossRuns) {
  Rng rng(5);
  SimWorkspace ws;
  SimResult out;
  for (int round = 0; round < 3; ++round) {
    const Instance instance =
        generate_instance(WorkloadFamily::HighlyParallel, 20, 8, rng);
    const auto result = demt_schedule(instance);
    simulate_execution(result.schedule, instance, ws, out);
    EXPECT_TRUE(out.ok);
    EXPECT_EQ(out.cmax, result.schedule.cmax());
  }
}

TEST(EventSimFlat, ReportsUnassignedAndOutOfRangeEntries) {
  Instance instance(4);
  instance.add_task(MoldableTask({4.0, 2.5, 2.0, 1.8}, 1.0));
  instance.add_task(MoldableTask({3.0, 1.5, 1.2, 1.0}, 2.0));

  FlatPlacements flat;
  flat.reset(2);
  // Task 0 assigned to an out-of-range processor; task 1 never starts.
  flat.start[0] = 0.0;
  flat.duration[0] = 4.0;
  flat.proc_begin[0] = 0;
  flat.proc_count[0] = 1;
  flat.proc_ids.push_back(9);
  const SimResult sim = simulate_execution(flat, instance);
  EXPECT_FALSE(sim.ok);
  ASSERT_EQ(sim.errors.size(), 2u);
  EXPECT_NE(sim.errors[0].find("outside"), std::string::npos);
  EXPECT_NE(sim.errors[1].find("never starts"), std::string::npos);
}

}  // namespace
}  // namespace moldsched
