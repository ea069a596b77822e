#include "sim/divisible.hpp"

#include <gtest/gtest.h>

#include "core/demt.hpp"
#include "gate_workloads.hpp"
#include "workloads/generators.hpp"

namespace moldsched {
namespace {

/// One task on one processor: the whole schedule.
FlatPlacements one_task(double start, double duration, int proc) {
  FlatPlacements schedule;
  schedule.reset(1);
  gate::place(schedule, 0, start, duration, {proc});
  return schedule;
}

/// No chunk may overlap a placed task or another chunk on its processor.
void expect_no_conflicts(const FlatPlacements& schedule, int m,
                         const DivisibleFillResult& result) {
  struct Interval {
    double start, finish;
  };
  std::vector<std::vector<Interval>> per_proc(static_cast<std::size_t>(m));
  for (int i = 0; i < schedule.size(); ++i) {
    if (!schedule.assigned(i)) continue;
    const auto e = static_cast<std::size_t>(i);
    const auto begin = static_cast<std::size_t>(schedule.proc_begin[e]);
    const auto end = begin + static_cast<std::size_t>(schedule.proc_count[e]);
    for (std::size_t p = begin; p < end; ++p) {
      per_proc[static_cast<std::size_t>(schedule.proc_ids[p])].push_back(
          Interval{schedule.start[e], schedule.finish(i)});
    }
  }
  for (const auto& chunk : result.chunks) {
    per_proc[static_cast<std::size_t>(chunk.proc)].push_back(
        Interval{chunk.start, chunk.finish()});
  }
  for (auto& intervals : per_proc) {
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                return a.start < b.start;
              });
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_LE(intervals[i - 1].finish, intervals[i].start + 1e-9);
    }
  }
}

double total_chunk_work(const DivisibleFillResult& result, int job) {
  double sum = 0.0;
  for (const auto& chunk : result.chunks) {
    if (chunk.job == job) sum += chunk.duration;
  }
  return sum;
}

TEST(Divisible, FillsEmptyMachine) {
  const FlatPlacements schedule;  // nothing scheduled
  const auto result =
      fill_idle_with_divisible(schedule, 4, {{8.0, 1.0}}, /*horizon=*/10.0);
  EXPECT_TRUE(result.all_placed);
  EXPECT_NEAR(total_chunk_work(result, 0), 8.0, 1e-9);
  // 8 units of work across 4 idle processors from t=0: finishes at 2.
  EXPECT_NEAR(result.completion[0], 2.0, 1e-9);
  EXPECT_NEAR(result.idle_capacity, 40.0, 1e-9);
}

TEST(Divisible, RespectsBusyIntervals) {
  const FlatPlacements schedule = one_task(0.0, 4.0, 0);  // proc 0 [0,4)
  const auto result =
      fill_idle_with_divisible(schedule, 2, {{6.0, 1.0}}, /*horizon=*/5.0);
  EXPECT_TRUE(result.all_placed);
  expect_no_conflicts(schedule, 2, result);
  // Idle: proc 1 [0,5) = 5 units, proc 0 [4,5) = 1 unit. Exactly 6.
  EXPECT_NEAR(result.completion[0], 5.0, 1e-9);
}

TEST(Divisible, ReportsPartialPlacement) {
  const FlatPlacements schedule = one_task(0.0, 9.0, 0);
  const auto result =
      fill_idle_with_divisible(schedule, 1, {{5.0, 1.0}}, /*horizon=*/10.0);
  EXPECT_FALSE(result.all_placed);
  EXPECT_NEAR(result.placed_work[0], 1.0, 1e-9);  // only [9,10) free
  EXPECT_DOUBLE_EQ(result.completion[0], 0.0);    // not completed
}

TEST(Divisible, SmithOrderAcrossJobs) {
  const FlatPlacements schedule;
  // Heavy-per-work job must get the early capacity.
  const auto result = fill_idle_with_divisible(
      schedule, 1, {{4.0, 1.0}, {4.0, 9.0}}, /*horizon=*/8.0);
  EXPECT_TRUE(result.all_placed);
  EXPECT_NEAR(result.completion[1], 4.0, 1e-9);  // valuable job first
  EXPECT_NEAR(result.completion[0], 8.0, 1e-9);
  EXPECT_NEAR(result.weighted_completion_sum, 9.0 * 4.0 + 1.0 * 8.0, 1e-9);
}

TEST(Divisible, WorkConservation) {
  Rng rng(12);
  const Instance instance =
      generate_instance(WorkloadFamily::Mixed, 20, 8, rng);
  const auto moldable = demt_schedule(instance);
  const double horizon = moldable.schedule.cmax() * 1.5;
  std::vector<DivisibleJob> jobs = {{3.0, 2.0}, {7.5, 1.0}, {1.2, 5.0}};
  const auto result = fill_idle_with_divisible(moldable.schedule,
                                               instance.procs(), jobs, horizon);
  expect_no_conflicts(moldable.schedule, instance.procs(), result);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_NEAR(total_chunk_work(result, static_cast<int>(j)),
                result.placed_work[j], 1e-9);
    EXPECT_LE(result.placed_work[j], jobs[j].work + 1e-9);
  }
  double chunk_total = 0.0;
  for (const auto& chunk : result.chunks) chunk_total += chunk.duration;
  EXPECT_LE(chunk_total, result.idle_capacity + 1e-9);
}

TEST(Divisible, ChunksStayWithinHorizon) {
  Rng rng(13);
  const Instance instance =
      generate_instance(WorkloadFamily::HighlyParallel, 15, 8, rng);
  const auto moldable = demt_schedule(instance);
  const double horizon = moldable.schedule.cmax();  // no tail capacity
  const auto result = fill_idle_with_divisible(
      moldable.schedule, instance.procs(), {{1e6, 1.0}}, horizon);
  EXPECT_FALSE(result.all_placed);
  for (const auto& chunk : result.chunks) {
    EXPECT_LE(chunk.finish(), horizon + 1e-9);
  }
}

TEST(Divisible, UtilisationReachesOneWithEnoughFiller) {
  Rng rng(14);
  const Instance instance =
      generate_instance(WorkloadFamily::WeaklyParallel, 10, 4, rng);
  const auto moldable = demt_schedule(instance);
  const double horizon = moldable.schedule.cmax();
  const auto result = fill_idle_with_divisible(
      moldable.schedule, instance.procs(), {{1e9, 1.0}}, horizon);
  // The filler consumes every idle second below the moldable makespan.
  EXPECT_NEAR(result.placed_work[0], result.idle_capacity, 1e-6);
}

TEST(Divisible, Validation) {
  const FlatPlacements schedule;
  EXPECT_THROW((void)fill_idle_with_divisible(schedule, 2, {{0.0, 1.0}}, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)fill_idle_with_divisible(schedule, 2, {{1.0, 0.0}}, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)fill_idle_with_divisible(schedule, 2, {{1.0, 1.0}}, -1.0),
               std::invalid_argument);
  EXPECT_THROW((void)fill_idle_with_divisible(schedule, 0, {{1.0, 1.0}}, 1.0),
               std::invalid_argument);
}

TEST(Divisible, ZeroHorizonPlacesNothing) {
  const FlatPlacements schedule;
  const auto result =
      fill_idle_with_divisible(schedule, 4, {{1.0, 1.0}}, 0.0);
  EXPECT_FALSE(result.all_placed);
  EXPECT_TRUE(result.chunks.empty());
  EXPECT_DOUBLE_EQ(result.idle_capacity, 0.0);
}

}  // namespace
}  // namespace moldsched
