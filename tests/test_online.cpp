#include "sim/online.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "baselines/lpt_policy.hpp"
#include "core/demt.hpp"
#include "gate_workloads.hpp"
#include "reference/online_reference.hpp"
#include "sched/validator.hpp"
#include "workloads/generators.hpp"

namespace moldsched {
namespace {

const DemtPolicy kDemt;

OfflineScheduler demt_offline() {
  return [](const Instance& instance) {
    return demt_schedule(instance).schedule;
  };
}

MoldableTask ideal(double seq, int m, double w = 1.0) {
  std::vector<double> times;
  for (int k = 1; k <= m; ++k) times.push_back(seq / k);
  return MoldableTask(std::move(times), w);
}

TEST(Online, AllReleasedAtZeroIsOneBatch) {
  std::vector<OnlineJob> jobs;
  for (int i = 0; i < 5; ++i) jobs.push_back({ideal(4.0, 4), 0.0});
  const auto result = gate::run_online(4, jobs, kDemt);
  EXPECT_EQ(result.num_batches, 1);
  EXPECT_GT(result.cmax, 0.0);
}

TEST(Online, LateArrivalOpensSecondBatch) {
  std::vector<OnlineJob> jobs;
  jobs.push_back({ideal(8.0, 4), 0.0});
  jobs.push_back({ideal(8.0, 4), 0.1});  // arrives while batch 1 runs
  const auto result = gate::run_online(4, jobs, kDemt);
  EXPECT_EQ(result.num_batches, 2);
  // Job 1 cannot start before batch 0 completes.
  EXPECT_GE(result.schedule.start[1], result.schedule.finish(0) - 1e-9);
}

TEST(Online, RespectsReleaseDates) {
  std::vector<OnlineJob> jobs;
  jobs.push_back({ideal(2.0, 4), 0.0});
  jobs.push_back({ideal(2.0, 4), 100.0});
  const auto result = gate::run_online(4, jobs, kDemt);
  EXPECT_GE(result.schedule.start[1], 100.0 - 1e-9);
  EXPECT_DOUBLE_EQ(result.flow[1], result.completion[1] - 100.0);
}

TEST(Online, ScheduleIsGloballyFeasible) {
  Rng rng(5);
  std::vector<OnlineJob> jobs;
  Instance reference(8);
  std::vector<double> releases;
  double release = 0.0;
  for (int i = 0; i < 25; ++i) {
    Instance tmp = generate_instance(WorkloadFamily::Mixed, 1, 8, rng);
    jobs.push_back({tmp.task(0), release});
    reference.add_task(tmp.task(0));
    releases.push_back(release);
    release += rng.uniform(0.0, 2.0);
  }
  const auto result = gate::run_online(8, jobs, kDemt);
  ValidationOptions options;
  options.releases = releases;
  const auto report = validate_schedule(result.schedule, reference, options);
  EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors[0]);
}

TEST(Online, BatchStartsAreMonotone) {
  Rng rng(6);
  std::vector<OnlineJob> jobs;
  for (int i = 0; i < 12; ++i) {
    Instance tmp = generate_instance(WorkloadFamily::HighlyParallel, 1, 4, rng);
    jobs.push_back({tmp.task(0), static_cast<double>(i)});
  }
  const auto result = gate::run_online(4, jobs, kDemt);
  for (std::size_t b = 1; b < result.batch_starts.size(); ++b) {
    EXPECT_GT(result.batch_starts[b], result.batch_starts[b - 1]);
  }
}

TEST(Online, WorksWithBaselineSchedulers) {
  std::vector<OnlineJob> jobs;
  for (int i = 0; i < 6; ++i) jobs.push_back({ideal(3.0, 4), 0.5 * i});
  const auto result = gate::run_online(4, jobs, LptRigidPolicy());
  EXPECT_GE(result.num_batches, 1);
  EXPECT_GT(result.weighted_flow_sum, 0.0);
}

TEST(Online, ReservationShrinksTheMachine) {
  // Proc 3 reserved forever: a 4-proc-capable job must still complete using
  // only 3 processors.
  std::vector<OnlineJob> jobs;
  jobs.push_back({ideal(6.0, 4), 0.0});
  std::vector<NodeReservation> reservations = {{3, 0.0, 1e9}};
  const auto result = gate::run_online(4, jobs, kDemt, reservations);
  for (int proc : gate::entry_procs(result.schedule, 0)) {
    EXPECT_NE(proc, 3);
  }
}

TEST(Online, ReservationDelaysWhenMachineFullyBlocked) {
  std::vector<OnlineJob> jobs;
  jobs.push_back({ideal(2.0, 2), 0.0});
  std::vector<NodeReservation> reservations = {{0, 0.0, 5.0}, {1, 0.0, 5.0}};
  const auto result = gate::run_online(2, jobs, kDemt, reservations);
  EXPECT_GE(result.schedule.start[0], 5.0 - 1e-9);
}

TEST(Online, TwoRhoCompetitiveShape) {
  // The framework's guarantee: on-line cmax <= 2 * (batch algorithm's
  // off-line cmax had all jobs been known). Verify a relaxed version: the
  // on-line cmax is at most ~2.5x the clairvoyant DEMT cmax.
  Rng rng(7);
  Instance clairvoyant(8);
  std::vector<OnlineJob> jobs;
  double release = 0.0;
  for (int i = 0; i < 20; ++i) {
    Instance tmp = generate_instance(WorkloadFamily::Cirne, 1, 8, rng);
    jobs.push_back({tmp.task(0), release});
    clairvoyant.add_task(tmp.task(0));
    release += rng.uniform(0.0, 0.5);
  }
  const auto online = gate::run_online(8, jobs, kDemt);
  const auto offline = demt_schedule(clairvoyant);
  // Off-line ignores releases, so add the last release to its horizon.
  const double reference = offline.schedule.cmax() + release;
  EXPECT_LE(online.cmax, 2.5 * reference);
}

TEST(Online, Validation) {
  EXPECT_THROW(gate::run_online(0, {{ideal(1.0, 1), 0.0}}, kDemt),
               std::invalid_argument);
  EXPECT_THROW(gate::run_online(2, {}, kDemt),
               std::invalid_argument);
  EXPECT_THROW(
      gate::run_online(2, {{ideal(1.0, 2), -1.0}}, kDemt),
      std::invalid_argument);
  EXPECT_THROW(gate::run_online(2, {{ideal(1.0, 2), 0.0}}, kDemt,
                                     {{5, 0.0, 1.0}}),
               std::invalid_argument);
  // Non-finite releases are rejected by the simulator's own input check
  // (an infinite one would open a batch at t = inf; a NaN one is a sort key
  // without a strict weak order), on the flat core and the reference.
  for (const double release : {std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<OnlineJob> jobs;
    for (int i = 0; i < 6; ++i) {
      jobs.push_back({ideal(2.0 + i, 4), i == 3 ? release : 0.5 * i});
    }
    const auto expect_rejected = [&](const auto& run) {
      try {
        (void)run();
        ADD_FAILURE() << "release " << release << " accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()).rfind("online_batch_schedule:", 0),
                  0u)
            << e.what();
      }
    };
    expect_rejected(
        [&] { return gate::run_online(4, jobs, kDemt); });
    expect_rejected([&] {
      return online_batch_schedule_reference(4, jobs, demt_offline());
    });
  }
}

}  // namespace
}  // namespace moldsched
