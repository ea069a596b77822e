#include "sched/gantt.hpp"

#include <gtest/gtest.h>

#include "gate_workloads.hpp"

namespace moldsched {
namespace {

TEST(Gantt, EmptySchedule) {
  const int m = 2;
  FlatPlacements schedule;
  schedule.reset(0);
  EXPECT_EQ(render_gantt(schedule, m), "(empty schedule)\n");
}

TEST(Gantt, RendersOneRowPerProcessor) {
  const int m = 3;
  FlatPlacements schedule;
  schedule.reset(2);
  gate::place(schedule, 0, 0.0, 2.0, {0, 1});
  gate::place(schedule, 1, 2.0, 2.0, {2});
  const std::string out = render_gantt(schedule, m);
  // Header + 3 processor rows.
  int rows = 0;
  for (char c : out) {
    if (c == '\n') ++rows;
  }
  EXPECT_EQ(rows, 4);
  EXPECT_NE(out.find("p00 |"), std::string::npos);
  EXPECT_NE(out.find("p02 |"), std::string::npos);
}

TEST(Gantt, TaskCharactersAppearOnTheirProcessors) {
  const int m = 2;
  FlatPlacements schedule;
  schedule.reset(2);
  gate::place(schedule, 0, 0.0, 1.0, {0});
  gate::place(schedule, 1, 0.0, 1.0, {1});
  const std::string out = render_gantt(schedule, m);
  const auto p0 = out.find("p00 |");
  const auto p1 = out.find("p01 |");
  ASSERT_NE(p0, std::string::npos);
  ASSERT_NE(p1, std::string::npos);
  EXPECT_EQ(out[p0 + 5], '0');
  EXPECT_EQ(out[p1 + 5], '1');
}

TEST(Gantt, WideClustersAreSummarised) {
  const int m = 100;
  FlatPlacements schedule;
  schedule.reset(1);
  gate::place(schedule, 0, 0.0, 1.0, {0});
  const std::string out = render_gantt(schedule, m);
  EXPECT_NE(out.find("gantt omitted"), std::string::npos);
}

TEST(Gantt, IdleTimeIsDotted) {
  const int m = 1;
  FlatPlacements schedule;
  schedule.reset(1);
  gate::place(schedule, 0, 9.0, 1.0, {0});  // long leading idle period
  GanttOptions options;
  options.width = 10;
  const std::string out = render_gantt(schedule, m, options);
  EXPECT_NE(out.find('.'), std::string::npos);
}

}  // namespace
}  // namespace moldsched
