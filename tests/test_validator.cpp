#include "sched/validator.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "gate_workloads.hpp"

namespace moldsched {
namespace {

Instance make_instance() {
  Instance instance(4);
  instance.add_task(MoldableTask({4.0, 2.5, 2.0, 1.8}, 1.0));
  instance.add_task(MoldableTask({3.0, 1.5, 1.2, 1.0}, 2.0));
  return instance;
}

TEST(Validator, AcceptsFeasibleSchedule) {
  const Instance instance = make_instance();
  FlatPlacements schedule;
  schedule.reset(2);
  gate::place(schedule, 0, 0.0, 2.5, {0, 1});
  gate::place(schedule, 1, 0.0, 1.5, {2, 3});
  const auto report = validate_schedule(schedule, instance);
  EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_NO_THROW(require_valid(schedule, instance));
}

TEST(Validator, DetectsUnassignedTask) {
  const Instance instance = make_instance();
  FlatPlacements schedule;
  schedule.reset(2);
  gate::place(schedule, 0, 0.0, 4.0, {0});
  const auto report = validate_schedule(schedule, instance);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.errors[0].find("not assigned"), std::string::npos);
}

TEST(Validator, DetectsProcessorOverlap) {
  const Instance instance = make_instance();
  FlatPlacements schedule;
  schedule.reset(2);
  gate::place(schedule, 0, 0.0, 4.0, {0});
  gate::place(schedule, 1, 2.0, 3.0, {0});  // overlaps task 0 on processor 0
  const auto report = validate_schedule(schedule, instance);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.errors[0].find("overlaps"), std::string::npos);
  EXPECT_THROW(require_valid(schedule, instance), std::runtime_error);
}

TEST(Validator, BackToBackIsNotOverlap) {
  const Instance instance = make_instance();
  FlatPlacements schedule;
  schedule.reset(2);
  gate::place(schedule, 0, 0.0, 4.0, {0});
  gate::place(schedule, 1, 4.0, 3.0, {0});  // starts exactly when task 0 ends
  EXPECT_TRUE(validate_schedule(schedule, instance).ok);
}

TEST(Validator, DetectsDurationMismatch) {
  const Instance instance = make_instance();
  FlatPlacements schedule;
  schedule.reset(2);
  gate::place(schedule, 0, 0.0, 99.0, {0});  // p(1) is 4.0
  gate::place(schedule, 1, 0.0, 1.5, {2, 3});
  const auto report = validate_schedule(schedule, instance);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.errors[0].find("duration"), std::string::npos);
}

TEST(Validator, DurationCheckCanBeDisabled) {
  const Instance instance = make_instance();
  FlatPlacements schedule;
  schedule.reset(2);
  gate::place(schedule, 0, 0.0, 99.0, {0});
  gate::place(schedule, 1, 0.0, 1.5, {2, 3});
  ValidationOptions options;
  options.check_durations = false;
  EXPECT_TRUE(validate_schedule(schedule, instance, options).ok);
}

TEST(Validator, DetectsDisallowedAllotment) {
  Instance instance(4);
  instance.add_task(MoldableTask({4.0, 2.5, 2.0, 1.8}, 1.0, /*min_procs=*/2));
  FlatPlacements schedule;
  schedule.reset(1);
  gate::place(schedule, 0, 0.0, 4.0, {0});  // 1 proc < min_procs
  const auto report = validate_schedule(schedule, instance);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.errors[0].find("allotment"), std::string::npos);
}

TEST(Validator, ChecksReleaseDates) {
  const Instance instance = make_instance();
  FlatPlacements schedule;
  schedule.reset(2);
  gate::place(schedule, 0, 0.0, 2.5, {0, 1});
  gate::place(schedule, 1, 0.0, 1.5, {2, 3});
  ValidationOptions options;
  options.releases = {1.0, 0.0};  // task 0 released at t=1 but starts at 0
  const auto report = validate_schedule(schedule, instance, options);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.errors[0].find("release"), std::string::npos);
}

TEST(Validator, ShapeMismatchIsAnError) {
  const Instance instance = make_instance();
  FlatPlacements wrong_tasks;
  wrong_tasks.reset(3);
  EXPECT_FALSE(validate_schedule(wrong_tasks, instance).ok);
  // A schedule for a wider machine: processor 4 does not exist at m = 4.
  FlatPlacements wrong_procs;
  wrong_procs.reset(2);
  gate::place(wrong_procs, 0, 0.0, 2.5, {0, 1});
  gate::place(wrong_procs, 1, 0.0, 3.0, {4});
  EXPECT_FALSE(validate_schedule(wrong_procs, instance).ok);
}

TEST(Validator, MultipleErrorsAllReported) {
  const Instance instance = make_instance();
  FlatPlacements schedule;
  schedule.reset(2);
  gate::place(schedule, 0, 0.0, 9.0, {0});   // bad duration
  gate::place(schedule, 1, 0.0, 9.0, {0});   // bad duration AND overlap
  const auto report = validate_schedule(schedule, instance);
  EXPECT_FALSE(report.ok);
  EXPECT_GE(report.errors.size(), 3u);
}

TEST(Validator, MalformedFlatPlacementsAreReported) {
  // Each input must come back as an error with a message: never a crash,
  // never a read outside the arrays (the sanitizer jobs run this case).
  const Instance instance = make_instance();
  const auto feasible = [] {
    FlatPlacements schedule;
    schedule.reset(2);
    gate::place(schedule, 0, 0.0, 2.5, {0, 1});
    gate::place(schedule, 1, 0.0, 1.5, {2, 3});
    return schedule;
  };
  ASSERT_TRUE(validate_schedule(feasible(), instance).ok);

  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  using S = FlatPlacements;
  const std::pair<const char*, void (*)(S&)> cases[] = {
      {"start longer", [](S& s) { s.start.push_back(0.0); }},
      {"duration shorter", [](S& s) { s.duration.pop_back(); }},
      {"proc_begin shorter", [](S& s) { s.proc_begin.pop_back(); }},
      {"proc_count longer", [](S& s) { s.proc_count.push_back(1); }},
      {"range past the pool", [](S& s) { s.proc_begin[1] = 3; }},
      {"begin far past the pool", [](S& s) { s.proc_begin[1] = 1 << 30; }},
      {"negative begin", [](S& s) { s.proc_begin[0] = -1; }},
      {"count 0", [](S& s) { s.proc_count[0] = 0; }},
      {"count -1", [](S& s) { s.proc_count[0] = -1; }},
      {"count past the pool", [](S& s) { s.proc_count[1] = 3; }},
      {"id m", [](S& s) { s.proc_ids[3] = 4; }},
      {"negative id", [](S& s) { s.proc_ids[0] = -1; }},
      {"huge id", [](S& s) { s.proc_ids[0] = 1 << 30; }},
      {"duplicate id", [](S& s) { s.proc_ids[1] = 0; }},
      {"NaN start", [](S& s) { s.start[0] = kNaN; }},
      {"infinite start", [](S& s) { s.start[1] = kInf; }},
      {"negative start", [](S& s) { s.start[0] = -1.0; }},
      {"infinite duration", [](S& s) { s.duration[0] = kInf; }},
      {"NaN duration", [](S& s) { s.duration[1] = kNaN; }},
  };
  for (const auto& [name, corrupt] : cases) {
    FlatPlacements schedule = feasible();
    corrupt(schedule);
    for (const bool check_durations : {true, false}) {
      ValidationOptions options;
      options.check_durations = check_durations;
      const auto report = validate_schedule(schedule, instance, options);
      EXPECT_FALSE(report.ok) << name;
      ASSERT_FALSE(report.errors.empty()) << name;
      EXPECT_FALSE(report.errors[0].empty()) << name;
    }
    EXPECT_THROW(require_valid(schedule, instance), std::runtime_error)
        << name;
  }
}

}  // namespace
}  // namespace moldsched
