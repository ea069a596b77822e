#include "sched/list_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "sched/validator.hpp"
#include "util/rng.hpp"

namespace moldsched {
namespace {

/// Independent oracle for the list pass: the textbook scan. At each event
/// every pending job is tried in list order on the lowest-numbered idle
/// processors; time then advances to the earliest running finish, and
/// every job finishing within 1e-12 of it frees its processors. O(n^2 + n m)
/// per pass, no heap, no tree, no bitset.
FlatPlacements naive_list_schedule(int m, int num_entries,
                                   const std::vector<ListJob>& jobs) {
  FlatPlacements out;
  out.reset(num_entries);
  const std::size_t n = jobs.size();
  std::vector<bool> idle(static_cast<std::size_t>(m), true);
  std::vector<bool> started(n, false);
  std::vector<bool> running(n, false);
  int idle_count = m;
  std::size_t remaining = n;
  double now = 0.0;
  while (remaining > 0) {
    for (std::size_t j = 0; j < n; ++j) {
      if (started[j] || jobs[j].nprocs > idle_count) continue;
      const auto e = static_cast<std::size_t>(jobs[j].task);
      out.start[e] = now;
      out.duration[e] = jobs[j].duration;
      out.proc_begin[e] = static_cast<int>(out.proc_ids.size());
      out.proc_count[e] = jobs[j].nprocs;
      int taken = 0;
      for (int p = 0; p < m && taken < jobs[j].nprocs; ++p) {
        if (!idle[static_cast<std::size_t>(p)]) continue;
        idle[static_cast<std::size_t>(p)] = false;
        out.proc_ids.push_back(p);
        ++taken;
      }
      idle_count -= jobs[j].nprocs;
      started[j] = running[j] = true;
      --remaining;
    }
    if (remaining == 0) break;
    double next = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      if (running[j]) next = std::min(next, out.finish(jobs[j].task));
    }
    if (next == std::numeric_limits<double>::infinity()) {
      throw std::logic_error("naive_list_schedule: jobs cannot fit");
    }
    now = next;
    for (std::size_t j = 0; j < n; ++j) {
      const int e = jobs[j].task;
      if (!running[j] || out.finish(e) > now + 1e-12) continue;
      running[j] = false;
      const auto begin = static_cast<std::size_t>(out.proc_begin[e]);
      for (std::size_t i = begin; i < begin + jobs[j].nprocs; ++i) {
        idle[static_cast<std::size_t>(out.proc_ids[i])] = true;
      }
      idle_count += jobs[j].nprocs;
    }
  }
  return out;
}

TEST(ListScheduler, SingleJob) {
  const FlatPlacements schedule = list_schedule(4, 1, {{0, 2, 3.0}});
  EXPECT_DOUBLE_EQ(schedule.start[0], 0.0);
  EXPECT_EQ(schedule.proc_count[0], 2);
  EXPECT_DOUBLE_EQ(schedule.cmax(), 3.0);
}

TEST(ListScheduler, PacksGreedilyAtTimeZero) {
  // Three 2-proc jobs on 4 procs: two start immediately, third waits.
  const FlatPlacements schedule = list_schedule(
      4, 3, {{0, 2, 5.0}, {1, 2, 3.0}, {2, 2, 4.0}});
  EXPECT_DOUBLE_EQ(schedule.start[0], 0.0);
  EXPECT_DOUBLE_EQ(schedule.start[1], 0.0);
  // Job 2 starts when job 1 (the shorter) finishes.
  EXPECT_DOUBLE_EQ(schedule.start[2], 3.0);
  EXPECT_DOUBLE_EQ(schedule.cmax(), 7.0);
}

TEST(ListScheduler, LaterListEntryCanBackfill) {
  // Graham list behaviour: job 1 needs 3 procs (can't fit at t=0 next to
  // job 0 on 4 procs), job 2 needs 1 proc and jumps ahead.
  const FlatPlacements schedule = list_schedule(
      4, 3, {{0, 2, 4.0}, {1, 3, 2.0}, {2, 1, 1.0}});
  EXPECT_DOUBLE_EQ(schedule.start[0], 0.0);
  EXPECT_DOUBLE_EQ(schedule.start[2], 0.0);  // backfilled
  EXPECT_DOUBLE_EQ(schedule.start[1], 4.0);
}

TEST(ListScheduler, SequentialWhenMachineIsFull) {
  const FlatPlacements schedule =
      list_schedule(2, 3, {{0, 2, 1.0}, {1, 2, 1.0}, {2, 2, 1.0}});
  EXPECT_DOUBLE_EQ(schedule.start[0], 0.0);
  EXPECT_DOUBLE_EQ(schedule.start[1], 1.0);
  EXPECT_DOUBLE_EQ(schedule.start[2], 2.0);
}

TEST(ListScheduler, ProducesValidSchedules) {
  Instance instance(8);
  std::vector<ListJob> jobs;
  for (int i = 0; i < 20; ++i) {
    const int procs = 1 + (i * 7) % 5;
    const double duration = 1.0 + (i % 4);
    std::vector<double> times(8, duration);
    // Build an instance whose p(k) equals the job duration for every k so
    // the duration check passes regardless of the allotment.
    instance.add_task(MoldableTask(std::move(times), 1.0));
    jobs.push_back(ListJob{i, procs, duration});
  }
  const FlatPlacements schedule = list_schedule(8, 20, jobs);
  ValidationOptions options;
  options.check_durations = false;
  const auto report = validate_schedule(schedule, instance, options);
  EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors[0]);
}

TEST(ListScheduler, GrahamBoundHolds) {
  // Classic Graham guarantee for sequential jobs: cmax <= (2 - 1/m) * opt.
  // Build random-ish 1-proc jobs and check against the area/longest bound.
  std::vector<ListJob> jobs;
  double total = 0.0, longest = 0.0;
  for (int i = 0; i < 50; ++i) {
    const double d = 0.5 + (i * 37 % 11);
    jobs.push_back(ListJob{i, 1, d});
    total += d;
    longest = std::max(longest, d);
  }
  const int m = 7;
  const FlatPlacements schedule = list_schedule(m, 50, jobs);
  const double lb = std::max(longest, total / m);
  EXPECT_LE(schedule.cmax(), (2.0 - 1.0 / m) * lb + 1e-9);
}

TEST(ListScheduler, Validation) {
  EXPECT_THROW(list_schedule(2, 1, {{0, 3, 1.0}}), std::invalid_argument);
  EXPECT_THROW(list_schedule(2, 1, {{0, 0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(list_schedule(2, 1, {{0, 1, 0.0}}), std::invalid_argument);
  EXPECT_THROW(list_schedule(2, 1, {{2, 1, 1.0}}), std::invalid_argument);
  EXPECT_THROW(list_schedule(2, 2, {{0, 1, 1.0}, {0, 1, 1.0}}),
               std::invalid_argument);
}

TEST(ListScheduler, PartialJobListLeavesOthersUnassigned) {
  const FlatPlacements schedule = list_schedule(2, 5, {{3, 1, 2.0}});
  EXPECT_TRUE(schedule.assigned(3));
  EXPECT_FALSE(schedule.assigned(0));
  EXPECT_FALSE(schedule.assigned(4));
}

// ------------------------------------------------ event-heap edge cases

TEST(ListScheduler, SimultaneousFinishesDrainAsOneEvent) {
  // Four 1-proc jobs all finish at t=2 (exactly equal doubles). The event
  // heap must pop every tied finish before rescanning, so the 4-proc job
  // sees the whole machine at once and starts at 2, not at some later
  // partially-freed instant.
  const FlatPlacements schedule = list_schedule(
      4, 5, {{0, 1, 2.0}, {1, 1, 2.0}, {2, 1, 2.0}, {3, 1, 2.0}, {4, 4, 1.0}});
  EXPECT_DOUBLE_EQ(schedule.start[4], 2.0);
  EXPECT_DOUBLE_EQ(schedule.cmax(), 3.0);
}

TEST(ListScheduler, EqualDurationTiesKeepListOrder) {
  // Three identical 2-proc jobs on 2 procs: ties in every heap key. The
  // schedule must follow the priority list deterministically.
  const FlatPlacements schedule =
      list_schedule(2, 3, {{2, 2, 1.5}, {0, 2, 1.5}, {1, 2, 1.5}});
  EXPECT_DOUBLE_EQ(schedule.start[2], 0.0);
  EXPECT_DOUBLE_EQ(schedule.start[0], 1.5);
  EXPECT_DOUBLE_EQ(schedule.start[1], 3.0);
}

TEST(ListScheduler, SingleProcessorChainsInListOrder) {
  // m=1 degenerates to a sequential chain: starts are exact running sums
  // (no epsilon drift from the event loop).
  const FlatPlacements schedule =
      list_schedule(1, 3, {{0, 1, 1.25}, {1, 1, 0.5}, {2, 1, 2.0}});
  EXPECT_EQ(schedule.start[0], 0.0);
  EXPECT_EQ(schedule.start[1], 1.25);
  EXPECT_EQ(schedule.start[2], 1.75);
  EXPECT_DOUBLE_EQ(schedule.cmax(), 3.75);
}

TEST(ListScheduler, SubToleranceDurationsDoNotDeadlock) {
  // A finish within 1e-12 of the current time is still an event to advance
  // to, not a sign that the remaining jobs can never fit.
  const FlatPlacements schedule =
      list_schedule(1, 2, {{0, 1, 1e-13}, {1, 1, 1.0}});
  EXPECT_EQ(schedule.start[0], 0.0);
  EXPECT_EQ(schedule.start[1], 1e-13);
  EXPECT_TRUE(schedule.assigned(0));
  EXPECT_TRUE(schedule.assigned(1));
}

TEST(ListScheduler, MatchesNaiveScanFuzz) {
  // The DEMT reference pipeline runs the same list pass, so only an
  // independent oracle can check it. Every field must match exactly,
  // processor order included; one workspace is reused across all cases.
  Rng rng(1969);
  ListPassWorkspace ws;
  FlatPlacements fast;
  for (const int m : {1, 63, 64, 65, 128, 200, 300}) {
    for (int rep = 0; rep < 60; ++rep) {
      SCOPED_TRACE(::testing::Message() << "m=" << m << " rep=" << rep);
      const int n = rep == 0 ? 0 : static_cast<int>(rng.uniform_int(1, 120));
      const int num_entries = n + static_cast<int>(rng.uniform_int(0, 3));
      // Task ids: a shuffled subset of [0, num_entries).
      std::vector<int> ids(static_cast<std::size_t>(num_entries));
      std::iota(ids.begin(), ids.end(), 0);
      for (std::size_t i = ids.size(); i > 1; --i) {
        const auto k = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        std::swap(ids[i - 1], ids[k]);
      }
      const int procs_mode = rep % 4;
      const int duration_mode = (rep / 4) % 4;
      ws.jobs.clear();
      for (int j = 0; j < n; ++j) {
        int procs = static_cast<int>(rng.uniform_int(1, m));
        if (procs_mode == 1) procs = m;
        if (procs_mode == 2) {
          procs = static_cast<int>(rng.uniform_int(1, std::min(m, 4)));
        }
        if (procs_mode == 3) procs = rng.uniform() < 0.5 ? 1 : m;
        double duration = rng.uniform(0.1, 10.0);
        if (duration_mode == 1) duration = 1.0;  // all equal
        if (duration_mode == 2) {  // tied finish times
          duration = 0.5 * static_cast<double>(rng.uniform_int(1, 4));
        }
        if (duration_mode == 3) {  // ties within the 1e-12 drain tolerance,
          // and some jobs shorter than it
          duration = rng.uniform() < 0.1
                         ? 1e-13
                         : 1.0 + 1e-13 * static_cast<double>(
                                             rng.uniform_int(0, 3));
        }
        ws.jobs.push_back(
            ListJob{ids[static_cast<std::size_t>(j)], procs, duration});
      }
      const FlatPlacements expected =
          naive_list_schedule(m, num_entries, ws.jobs);
      list_schedule_into(m, num_entries, ws, fast);
      ASSERT_EQ(fast.start, expected.start);
      ASSERT_EQ(fast.duration, expected.duration);
      ASSERT_EQ(fast.proc_begin, expected.proc_begin);
      ASSERT_EQ(fast.proc_count, expected.proc_count);
      ASSERT_EQ(fast.proc_ids, expected.proc_ids);
    }
  }
}

}  // namespace
}  // namespace moldsched
