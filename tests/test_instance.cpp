#include "tasks/instance.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

namespace moldsched {
namespace {

Instance small_instance() {
  Instance instance(4);
  instance.add_task(MoldableTask({8.0, 5.0, 4.0, 3.5}, 2.0));
  instance.add_task(MoldableTask({2.0, 1.5}, 1.0));
  instance.add_task(MoldableTask({6.0, 3.0, 2.0, 1.6}, 3.0));
  return instance;
}

TEST(Instance, ConstructionAndAccessors) {
  const Instance instance = small_instance();
  EXPECT_EQ(instance.procs(), 4);
  EXPECT_EQ(instance.num_tasks(), 3);
  EXPECT_FALSE(instance.empty());
  EXPECT_DOUBLE_EQ(instance.task(1).time(1), 2.0);
  EXPECT_DOUBLE_EQ(instance.total_weight(), 6.0);
}

TEST(Instance, RejectsBadMachine) {
  EXPECT_THROW(Instance(0), std::invalid_argument);
  EXPECT_THROW(Instance(-3), std::invalid_argument);
}

TEST(Instance, RejectsOversizedTask) {
  Instance instance(2);
  EXPECT_THROW(instance.add_task(MoldableTask({3.0, 2.0, 1.5}, 1.0)),
               std::invalid_argument);
}

TEST(Instance, AddTaskReturnsIndex) {
  Instance instance(4);
  EXPECT_EQ(instance.add_task(MoldableTask({1.0}, 1.0)), 0);
  EXPECT_EQ(instance.add_task(MoldableTask({2.0}, 1.0)), 1);
}

TEST(Instance, Tmin) {
  const Instance instance = small_instance();
  // Fastest achievable time over all tasks: task 1 at 2 procs = 1.5... but
  // task 2 reaches 1.6 at 4 procs; min is 1.5.
  EXPECT_DOUBLE_EQ(instance.tmin(), 1.5);
}

TEST(Instance, TminThrowsOnEmpty) {
  Instance instance(4);
  EXPECT_THROW((void)instance.tmin(), std::logic_error);
}

TEST(Instance, TotalMinWork) {
  const Instance instance = small_instance();
  // Min works: task0 = 8 (1 proc), task1 = 2 (1 proc), task2 = 6 (1 proc).
  EXPECT_DOUBLE_EQ(instance.total_min_work(), 16.0);
}

TEST(Instance, MonotonicityCheck) {
  Instance instance(2);
  instance.add_task(MoldableTask({4.0, 3.0}, 1.0));
  EXPECT_TRUE(instance.is_monotone());
  instance.add_task(MoldableTask({3.0, 4.0}, 1.0));  // time increases
  EXPECT_FALSE(instance.is_monotone());
}

TEST(Instance, SerializationRoundTrip) {
  const Instance original = small_instance();
  std::stringstream buffer;
  original.save(buffer);
  const Instance loaded = Instance::load(buffer);
  ASSERT_EQ(loaded.num_tasks(), original.num_tasks());
  EXPECT_EQ(loaded.procs(), original.procs());
  for (int i = 0; i < original.num_tasks(); ++i) {
    const auto& a = original.task(i);
    const auto& b = loaded.task(i);
    ASSERT_EQ(a.max_procs(), b.max_procs());
    EXPECT_EQ(a.min_procs(), b.min_procs());
    EXPECT_DOUBLE_EQ(a.weight(), b.weight());
    for (int k = 1; k <= a.max_procs(); ++k) {
      EXPECT_DOUBLE_EQ(a.time(k), b.time(k));
    }
  }
}

TEST(Instance, SerializationPreservesRigidTasks) {
  Instance instance(3);
  instance.add_task(MoldableTask({6.0, 4.0, 3.0}, 1.5, /*min_procs=*/2));
  std::stringstream buffer;
  instance.save(buffer);
  const Instance loaded = Instance::load(buffer);
  EXPECT_EQ(loaded.task(0).min_procs(), 2);
}

TEST(Instance, LoadRejectsGarbage) {
  std::stringstream bad("not-an-instance v1\n");
  EXPECT_THROW(Instance::load(bad), std::runtime_error);
  std::stringstream truncated("moldsched-instance v1\nm 4\nn 1\ntask 1.0 1 2 5.0");
  EXPECT_THROW(Instance::load(truncated), std::runtime_error);
  // Processor bounds are checked before the times vector is sized: a
  // negative or huge max_procs must not reach the allocator.
  for (const char* record :
       {"task 1 1 -1", "task 1 1 0", "task 1 1 5", "task 1 1 2000000000",
        "task 1 0 2", "task 1 -3 2", "task 1 3 2"}) {
    std::stringstream in(std::string("moldsched-instance v1\nm 4\nn 1\n") +
                         record + " 1.0 1.0");
    EXPECT_THROW(Instance::load(in), std::runtime_error) << record;
  }
  for (const char* header : {"m 0\nn 0\n", "m -3\nn 0\n", "m x\nn 0\n",
                             "m 4\nn x\n", "m 4\nn -1\n"}) {
    std::stringstream in(std::string("moldsched-instance v1\n") + header);
    EXPECT_THROW(Instance::load(in), std::runtime_error) << header;
  }
  // A huge machine and a matching task claim, with two times present:
  // rejected as truncated without sizing a vector from the claim.
  std::stringstream huge(
      "moldsched-instance v1\nm 2000000000\nn 1\ntask 1 1 2000000000 1 1");
  EXPECT_THROW(Instance::load(huge), std::runtime_error);
}

}  // namespace
}  // namespace moldsched
