/// Differential harness for the vectorized SoA DEMT kernels: every
/// vectorized entry point is locked bit-identical to its scalar
/// `*_reference` twin from the test-only reference library
/// (tests/reference/) across seeded fuzz instances — {moldable, rigid,
/// divisible} task mixes, machine sizes m in {1, 4, 64, 257}, and both
/// serving policies (demt, flatlist). On top of the end-to-end lock, each
/// kernel gets its own differential (knapsack row sweep, dual-test DP,
/// dual-approximation search), the SoA allotment tables get property
/// tests (sorted rows, monotone prefix argmins, agreement with the scalar
/// AllotmentTable and the task's own queries at every index), and the
/// dual-test call-count regression plus the monotone fast path are pinned
/// on the vectorized path. Combined the suite runs well over a thousand
/// seeded instances; all comparisons are exact (EXPECT_EQ on doubles) —
/// "close" is a bug here.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/demt.hpp"
#include "core/knapsack.hpp"
#include "core/policy.hpp"
#include "dualapprox/cmax_estimator.hpp"
#include "dualapprox/dual_test.hpp"
#include "gate_workloads.hpp"
#include "reference/allotment_table_reference.hpp"
#include "reference/cmax_estimator_reference.hpp"
#include "reference/demt_reference.hpp"
#include "reference/dual_test_reference.hpp"
#include "reference/knapsack_reference.hpp"
#include "reference/schedule.hpp"
#include "sched/flat_schedule.hpp"
#include "sched/validator.hpp"
#include "tasks/allotment_table.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace moldsched {
namespace {

// ------------------------------------------------------------ fuzz mixes

/// Fully moldable task with a power-law speedup and occasional
/// non-monotone bumps, so the min-work-vs-canonical divergence paths of
/// the tables and the dual test are exercised, not just the monotone fast
/// path.
MoldableTask make_moldable(Rng& rng, int m) {
  const double seq = rng.uniform(0.5, 10.0);
  const double alpha = rng.uniform(0.3, 1.0);
  std::vector<double> times;
  for (int k = 1; k <= m; ++k) {
    double t = seq / std::pow(static_cast<double>(k), alpha);
    if (k > 1 && rng.bernoulli(0.15)) t *= rng.uniform(1.05, 1.5);
    times.push_back(t);
  }
  return MoldableTask(std::move(times), rng.uniform(1.0, 10.0));
}

/// Rigid task: min_procs == max_procs == k for a random k <= m.
MoldableTask make_rigid(Rng& rng, int m) {
  const int k = static_cast<int>(rng.uniform_int(1, m));
  const double seq = rng.uniform(0.5, 10.0);
  std::vector<double> times;
  for (int j = 1; j <= k; ++j) times.push_back(seq / j);
  return MoldableTask(std::move(times), rng.uniform(1.0, 10.0), k);
}

/// Divisible-load-style task: near-perfect linear speedup plus a constant
/// startup overhead, so time(k) strictly decreases and work(k) strictly
/// increases — strictly monotone for the dual test's fast path.
MoldableTask make_divisible(Rng& rng, int m) {
  const double seq = rng.uniform(0.5, 10.0);
  std::vector<double> times;
  for (int k = 1; k <= m; ++k) times.push_back(seq / k + 0.005);
  return MoldableTask(std::move(times), rng.uniform(1.0, 10.0));
}

enum class Mix { Moldable, Rigid, Divisible };

Instance make_mix_instance(Mix mix, int n, int m, Rng& rng) {
  Instance instance(m);
  for (int i = 0; i < n; ++i) {
    switch (mix) {
      case Mix::Moldable:
        instance.add_task(make_moldable(rng, m));
        break;
      case Mix::Rigid:
        // Pure rigid batches can leave the knapsack with nothing to
        // choose; mix one-third moldable in so every pipeline stage runs.
        instance.add_task(i % 3 == 0 ? make_moldable(rng, m)
                                     : make_rigid(rng, m));
        break;
      case Mix::Divisible:
        instance.add_task(make_divisible(rng, m));
        break;
    }
  }
  return instance;
}

const std::vector<int>& machine_sizes() {
  static const std::vector<int> kSizes{1, 4, 64, 257};
  return kSizes;
}

// ------------------------------------------------------ exact comparators

/// Every DemtDiagnostics field.
void expect_identical_diag(const DemtDiagnostics& a,
                           const DemtDiagnostics& b) {
  EXPECT_EQ(a.cmax_estimate, b.cmax_estimate);
  EXPECT_EQ(a.cmax_lower_bound, b.cmax_lower_bound);
  EXPECT_EQ(a.grid_k, b.grid_k);
  EXPECT_EQ(a.num_batches, b.num_batches);
  EXPECT_EQ(a.merged_stacks, b.merged_stacks);
  EXPECT_EQ(a.shuffle_improvements, b.shuffle_improvements);
  EXPECT_EQ(a.dual_tests, b.dual_tests);
}

void expect_identical_dual(const DualTestResult& a, const DualTestResult& b) {
  ASSERT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.total_work, b.total_work);
  if (!a.feasible) return;
  ASSERT_EQ(a.assignment.size(), b.assignment.size());
  for (std::size_t i = 0; i < a.assignment.size(); ++i) {
    EXPECT_EQ(a.assignment[i].shelf, b.assignment[i].shelf) << "task " << i;
    EXPECT_EQ(a.assignment[i].allotment, b.assignment[i].allotment)
        << "task " << i;
  }
}

/// dual_test_into at `lambda`, tables built for the call, fresh buffers.
DualTestResult partition_at(const Instance& instance, double lambda) {
  const InstanceAllotments tables(instance);
  DualTestWorkspace ws;
  DualTestResult out;
  dual_test_into(instance, lambda, tables, ws, out);
  return out;
}

/// Returns the reference's accepted shuffle candidates, so a grid can
/// check that it covers calls where a later candidate replaces an earlier
/// winner.
int expect_demt_matches_reference(const Instance& instance,
                                  const DemtOptions& options) {
  const DemtResult vec = demt_schedule(instance, options);
  const DemtResult ref = demt_schedule_reference(instance, options);
  require_valid(vec.schedule, instance);
  gate::expect_same_entries(vec.schedule, ref.schedule);
  expect_identical_diag(vec.diag, ref.diag);
  return ref.diag.shuffle_improvements;
}

// ------------------------------------------------------ knapsack kernels

std::vector<KnapsackItem> random_items(Rng& rng, int n, int max_cost,
                                       bool allow_zero_weight = false) {
  std::vector<KnapsackItem> items;
  for (int i = 0; i < n; ++i) {
    const double weight = allow_zero_weight && rng.bernoulli(0.3)
                              ? 0.0
                              : rng.uniform(0.0, 10.0);
    items.push_back(KnapsackItem{
        static_cast<int>(rng.uniform_int(1, max_cost)), weight});
  }
  return items;
}

void expect_knapsack_matches_reference(const std::vector<KnapsackItem>& items,
                                       int capacity) {
  const std::vector<int> vec = max_weight_knapsack_kernel(items, capacity);
  const std::vector<int> ref = max_weight_knapsack_reference(items, capacity);
  EXPECT_EQ(vec, ref);
}

TEST(DemtKernel, KnapsackDifferentialFuzz) {
  Rng rng(0xA1);
  for (int trial = 0; trial < 400; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 40));
    const int capacity = static_cast<int>(rng.uniform_int(0, 64));
    const auto items = random_items(rng, n, 12, /*allow_zero_weight=*/true);
    expect_knapsack_matches_reference(items, capacity);
  }
}

TEST(DemtKernel, KnapsackZeroWeightItems) {
  // Zero-work tasks: selecting them never helps, but the tie-break path
  // (cand > dp[j] is false on equality) must match the reference exactly.
  Rng rng(0xA2);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<KnapsackItem> items;
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 9));
    for (int i = 0; i < n; ++i) {
      items.push_back(
          KnapsackItem{static_cast<int>(rng.uniform_int(1, 4)), 0.0});
    }
    const int capacity = static_cast<int>(rng.uniform_int(1, 12));
    expect_knapsack_matches_reference(items, capacity);
    EXPECT_TRUE(max_weight_knapsack_kernel(items, capacity).empty());
  }
}

TEST(DemtKernel, KnapsackSingleProcessorCapacity) {
  // capacity == 1: only one unit-cost item can win; the sweep's cost >
  // capacity skip path dominates.
  Rng rng(0xA3);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 15));
    const auto items = random_items(rng, n, 5, /*allow_zero_weight=*/true);
    expect_knapsack_matches_reference(items, 1);
    const auto selected = max_weight_knapsack_kernel(items, 1);
    EXPECT_LE(selected.size(), 1u);
    if (!selected.empty()) EXPECT_EQ(items[selected[0]].cost, 1);
  }
}

TEST(DemtKernel, KnapsackAllSaturatingRows) {
  // Every item saturates the budget by itself: the DP must pick exactly
  // the heaviest one (first on ties), and the row sweep only ever updates
  // the last cell.
  Rng rng(0xA4);
  for (int trial = 0; trial < 50; ++trial) {
    const int capacity = 1 + static_cast<int>(rng.uniform_int(0, 19));
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 11));
    std::vector<KnapsackItem> items;
    for (int i = 0; i < n; ++i) {
      items.push_back(KnapsackItem{capacity, rng.uniform(0.0, 10.0)});
    }
    expect_knapsack_matches_reference(items, capacity);
    const auto selected = max_weight_knapsack_kernel(items, capacity);
    ASSERT_EQ(selected.size(), 1u);
    for (const KnapsackItem& item : items) {
      EXPECT_LE(item.weight, items[selected[0]].weight);
    }
  }
}

TEST(DemtKernel, KnapsackIntoMatchesVectorOverloads) {
  Rng rng(0xA5);
  KnapsackWorkspace ws;
  std::vector<int> selected;
  for (int trial = 0; trial < 50; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 24));
    const int capacity = static_cast<int>(rng.uniform_int(0, 32));
    const auto items = random_items(rng, n, 8);
    std::vector<int> costs;
    std::vector<double> weights;
    for (const KnapsackItem& item : items) {
      costs.push_back(item.cost);
      weights.push_back(item.weight);
    }
    max_weight_knapsack_into(costs.data(), weights.data(), n, capacity, ws,
                             selected);
    EXPECT_EQ(selected, max_weight_knapsack_kernel(items, capacity));
    EXPECT_EQ(selected, max_weight_knapsack_reference(items, capacity));
  }
}

TEST(DemtKernel, KnapsackWorkspaceReuseAcrossShapes) {
  // Alternating problem shapes through one workspace must not leak state:
  // each call's answer equals a fresh-buffer run of the same problem.
  Rng rng(0xA6);
  KnapsackWorkspace ws;
  std::vector<int> selected;
  for (int trial = 0; trial < 40; ++trial) {
    const int n = trial % 2 == 0 ? 30 : 1 + static_cast<int>(
                                            rng.uniform_int(0, 4));
    const int capacity = trial % 3 == 0 ? 257 : 7;
    const auto items = random_items(rng, n, 16);
    std::vector<int> costs;
    std::vector<double> weights;
    for (const KnapsackItem& item : items) {
      costs.push_back(item.cost);
      weights.push_back(item.weight);
    }
    max_weight_knapsack_into(costs.data(), weights.data(), n, capacity, ws,
                             selected);
    EXPECT_EQ(selected, max_weight_knapsack_reference(items, capacity));
  }
}

// ----------------------------------------------------- SoA allotment rows

/// Every row of `tables` against a fresh scalar AllotmentTable per task,
/// plus the rows-derived tmin against the instance's own scan.
void expect_rows_match_scalar(const Instance& instance,
                              const InstanceAllotments& tables) {
  ASSERT_EQ(tables.num_tasks(), instance.num_tasks());
  for (int t = 0; t < instance.num_tasks(); ++t) {
    const AllotmentTable ref(instance.task(t));
    const InstanceAllotments::View view = tables.table(t);
    ASSERT_EQ(view.size(), ref.size()) << "task " << t;
    EXPECT_EQ(view.strictly_monotone(), ref.strictly_monotone())
        << "task " << t;
    for (int i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(view.time_at(i), ref.time_at(i)) << "t=" << t << " i=" << i;
      EXPECT_EQ(view.min_k_at(i), ref.min_k_at(i)) << "t=" << t << " i=" << i;
      EXPECT_EQ(view.min_work_k_at(i), ref.min_work_k_at(i))
          << "t=" << t << " i=" << i;
    }
  }
  EXPECT_EQ(tables.tmin(), instance.tmin());
}

TEST(DemtKernel, AllotmentViewMatchesScalarTableRows) {
  Rng rng(0xB1);
  for (int m : machine_sizes()) {
    const Instance instance = make_mix_instance(Mix::Moldable, 30, m, rng);
    expect_rows_match_scalar(instance, InstanceAllotments(instance));
  }
}

TEST(DemtKernel, AllotmentRowsMonotoneProperties) {
  // Structural invariants of every row: times sorted ascending, the
  // prefix-argmin k never increases (more options can only shrink the
  // smallest feasible k), and the prefix min-work never increases.
  Rng rng(0xB2);
  for (int m : {4, 64, 257}) {
    const Instance instance = make_mix_instance(Mix::Rigid, 30, m, rng);
    const InstanceAllotments tables(instance);
    for (int t = 0; t < instance.num_tasks(); ++t) {
      const MoldableTask& task = instance.task(t);
      const InstanceAllotments::View view = tables.table(t);
      for (int i = 1; i < view.size(); ++i) {
        EXPECT_LE(view.time_at(i - 1), view.time_at(i));
        EXPECT_LE(view.min_k_at(i), view.min_k_at(i - 1));
        EXPECT_LE(task.work(view.min_work_k_at(i)),
                  task.work(view.min_work_k_at(i - 1)));
      }
    }
  }
}

TEST(DemtKernel, AllotmentViewQueriesMatchTaskMethods) {
  // canonical()/min_work() agreement with both the scalar table and the
  // task's own scan at every stored boundary (the exact time, just above,
  // just below) plus out-of-range deadlines.
  Rng rng(0xB3);
  for (int m : machine_sizes()) {
    const Instance instance = make_mix_instance(Mix::Moldable, 20, m, rng);
    const InstanceAllotments tables(instance);
    for (int t = 0; t < instance.num_tasks(); ++t) {
      const MoldableTask& task = instance.task(t);
      const AllotmentTable ref(instance.task(t));
      const InstanceAllotments::View view = tables.table(t);
      std::vector<double> deadlines{-1.0, 0.0, 1e300};
      for (int i = 0; i < view.size(); ++i) {
        const double d = view.time_at(i);
        deadlines.push_back(d);
        deadlines.push_back(d * (1.0 + 1e-12));
        deadlines.push_back(d * (1.0 - 1e-12));
      }
      for (double d : deadlines) {
        EXPECT_EQ(view.canonical(d), ref.canonical(d)) << "deadline " << d;
        EXPECT_EQ(view.canonical(d), canonical_allotment_reference(task, d));
        EXPECT_EQ(view.min_work(d), ref.min_work(d));
        EXPECT_EQ(view.min_work(d), task.min_work_allotment(d));
      }
    }
  }
}

TEST(DemtKernel, AllotmentBuildReuseBitIdentical) {
  // A pooled InstanceAllotments rebuilt across instances of different
  // shapes must equal a fresh build every time (capacity, never state).
  Rng rng(0xB4);
  InstanceAllotments pooled;
  for (int round = 0; round < 12; ++round) {
    const int m = machine_sizes()[round % machine_sizes().size()];
    const int n = 5 + 7 * (round % 4);
    const Instance instance = make_mix_instance(
        static_cast<Mix>(round % 3), n, m, rng);
    pooled.build(instance);
    const InstanceAllotments fresh(instance);
    ASSERT_EQ(pooled.num_tasks(), fresh.num_tasks());
    for (int t = 0; t < fresh.num_tasks(); ++t) {
      const auto a = pooled.table(t);
      const auto b = fresh.table(t);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(a.strictly_monotone(), b.strictly_monotone());
      for (int i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.time_at(i), b.time_at(i));
        EXPECT_EQ(a.min_k_at(i), b.min_k_at(i));
        EXPECT_EQ(a.min_work_k_at(i), b.min_work_k_at(i));
      }
    }
  }
}

/// Hand-built rows for the order fill: equal-time plateaus at the start,
/// middle and end, a fully flat task, a time-monotone task whose work
/// dips, non-monotone tasks (sort fall-through), each also with
/// min_procs > 1.
Instance plateau_instance() {
  const std::vector<std::vector<double>> rows = {
      {5, 5, 5, 3, 2, 1},         // plateau at the start
      {6, 4, 4, 4, 2, 1},         // plateau in the middle
      {6, 4, 3, 1, 1, 1},         // plateau at the end
      {4, 4, 2, 2, 1, 1},         // back-to-back plateaus
      {2, 2, 2, 2, 2, 2},         // fully flat
      {10, 4, 3, 1},              // time-monotone, work dips at k = 2, 4
      {8, 3, 3, 3, 0.5},          // time-monotone, work dips, plateau
      {5, 3, 4, 2, 2, 6},         // non-monotone with a tie
      {1, 2, 3, 4, 5, 6},         // time rising throughout
      {3, 1, 3, 1, 3, 1},         // alternating ties
  };
  Instance instance(6);
  for (const auto& row : rows) {
    for (int min_procs = 1; min_procs <= static_cast<int>(row.size());
         ++min_procs) {
      instance.add_task(MoldableTask(row, 1.0 + min_procs, min_procs));
    }
  }
  return instance;
}

/// Random rows drawn to hit ties: time-monotone ones repeat the previous
/// time with probability 0.4, the others draw from four values only.
Instance tie_heavy_instance(Rng& rng, int n, int m) {
  Instance instance(m);
  for (int i = 0; i < n; ++i) {
    std::vector<double> times;
    const bool monotone = i % 2 == 0;
    double t = rng.uniform(1.0, 100.0);
    for (int k = 1; k <= m; ++k) {
      if (monotone) {
        if (k > 1 && !rng.bernoulli(0.4)) t *= rng.uniform(0.5, 1.0);
      } else {
        t = static_cast<double>(rng.uniform_int(1, 4));
      }
      times.push_back(t);
    }
    const int min_procs = static_cast<int>(rng.uniform_int(1, m));
    instance.add_task(MoldableTask(std::move(times), 1.0, min_procs));
  }
  return instance;
}

TEST(DemtKernel, AllotmentOrderFillMatchesScalarTableFuzz) {
  // The order fill reads time-monotone rows off the time vector and sorts
  // only the rest; both must reproduce the sort-based AllotmentTable on
  // every row, and one pooled object must rebuild across all of it.
  Rng rng(0xB5);
  std::vector<Instance> instances;
  for (WorkloadFamily family : all_families()) {
    for (int m : machine_sizes()) {
      instances.push_back(generate_instance(family, 20, m, rng));
    }
  }
  for (int mix = 0; mix < 3; ++mix) {
    for (int m : machine_sizes()) {
      instances.push_back(
          make_mix_instance(static_cast<Mix>(mix), 20, m, rng));
    }
  }
  instances.push_back(plateau_instance());
  for (int m : machine_sizes()) {
    for (int round = 0; round < 4; ++round) {
      instances.push_back(tie_heavy_instance(rng, 24, m));
    }
  }

  int fall_through = 0;
  int order_fill_with_ties = 0;
  InstanceAllotments pooled;
  for (const Instance& instance : instances) {
    expect_rows_match_scalar(instance, InstanceAllotments(instance));
    pooled.build(instance);
    expect_rows_match_scalar(instance, pooled);
    for (const MoldableTask& task : instance.tasks()) {
      if (!task.is_time_monotone(0.0)) {
        ++fall_through;
        continue;
      }
      for (int k = task.min_procs() + 1; k <= task.max_procs(); ++k) {
        if (task.time(k) == task.time(k - 1)) {
          ++order_fill_with_ties;
          break;
        }
      }
    }
  }
  // Both branches and the plateau handling actually ran.
  EXPECT_GT(fall_through, 50);
  EXPECT_GT(order_fill_with_ties, 50);
}

// ------------------------------------------------------- dual-test kernel

TEST(DemtKernel, DualTestDifferentialFuzz) {
  // Sweep guesses through the interesting range (reject region, the
  // accept boundary, comfortably feasible) on every mix; the row-sweep DP
  // over the tables, in fresh and in pooled buffers, must agree exactly
  // with the scan-based reference.
  Rng rng(0xC1);
  DualTestWorkspace ws;
  DualTestResult pooled;
  for (int trial = 0; trial < 60; ++trial) {
    const int m = machine_sizes()[trial % machine_sizes().size()];
    const Instance instance = make_mix_instance(
        static_cast<Mix>(trial % 3), 4 + trial % 18, m, rng);
    const InstanceAllotments tables(instance);
    const CmaxEstimate est = estimate_cmax(instance);
    for (int s = 0; s < 8; ++s) {
      const double lambda =
          est.lower_bound * 0.5 +
          (est.estimate * 2.0 - est.lower_bound * 0.5) * s / 7.0;
      const DualTestResult ref = dual_test_reference(instance, lambda);
      DualTestWorkspace fresh_ws;
      DualTestResult fresh;
      dual_test_into(instance, lambda, tables, fresh_ws, fresh);
      expect_identical_dual(fresh, ref);
      dual_test_into(instance, lambda, tables, ws, pooled);
      expect_identical_dual(pooled, ref);
    }
  }
}

TEST(DemtKernel, DualTestMonotoneFastPathSurvives) {
  // On a strictly monotone instance every task's shelf-1 Pareto set
  // collapses to the single canonical allotment: after a dual_test_into
  // the pooled option arrays hold exactly one entry per task. The rewrite
  // must not have widened the fast path back into a scan.
  Rng rng(0xC2);
  for (int m : {4, 64, 257}) {
    const Instance instance = make_mix_instance(Mix::Divisible, 20, m, rng);
    for (int t = 0; t < instance.num_tasks(); ++t) {
      ASSERT_TRUE(InstanceAllotments(instance).table(t).strictly_monotone());
    }
    const InstanceAllotments tables(instance);
    DualTestWorkspace ws;
    CmaxEstimate est;
    estimate_cmax_into(instance, 1e-4, tables, ws, est);
    DualTestResult out;
    dual_test_into(instance, est.estimate, tables, ws, out);
    ASSERT_TRUE(out.feasible);
    const auto n = static_cast<std::size_t>(instance.num_tasks());
    ASSERT_EQ(ws.opt_begin.size(), n + 1);
    EXPECT_EQ(ws.opt_procs.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ws.opt_begin[i + 1] - ws.opt_begin[i], 1) << "task " << i;
    }
  }
}

/// How dual_test_accepts settled a probe, read back from the shelf options
/// it left in the workspace: before the options were complete (some task
/// cannot meet lambda), by one of the two cheapest-choice screens, or by
/// the DP.
enum class ProbePath { OptionsReject, ScreenReject, ScreenAccept, Dp };

ProbePath classify_probe(const Instance& instance, double lambda,
                         const DualTestWorkspace& ws) {
  const auto n = static_cast<std::size_t>(instance.num_tasks());
  // A complete build writes opt_begin[n] = the option count (>= n > 0);
  // a build that stops at some task leaves it at 0.
  if (ws.opt_begin.size() != n + 1 || ws.opt_begin[n] == 0) {
    return ProbePath::OptionsReject;
  }
  double sum = 0.0;
  long long procs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto last = static_cast<std::size_t>(ws.opt_begin[i + 1]) - 1;
    if (ws.opt_work[last] < ws.shelf2_work[i]) {
      sum += ws.opt_work[last];
      procs += ws.opt_procs[last];
    } else {
      sum += ws.shelf2_work[i];
    }
  }
  const int m = instance.procs();
  if (!(sum < std::numeric_limits<double>::infinity()) ||
      !(sum <= static_cast<double>(m) * lambda * (1.0 + 1e-12))) {
    return ProbePath::ScreenReject;
  }
  return procs <= m ? ProbePath::ScreenAccept : ProbePath::Dp;
}

/// Rigid tasks (a single allotment, so shelf 2 ties shelf 1 whenever both
/// fit) and perfect-speedup tasks over power-of-two times (every allotment
/// has the same work, exactly).
Instance shelf_tie_instance(Rng& rng, int n, int m) {
  Instance instance(m);
  for (int i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      instance.add_task(make_rigid(rng, m));
      continue;
    }
    const double work =
        std::ldexp(1.0, static_cast<int>(rng.uniform_int(0, 6)));
    std::vector<double> times;
    for (int k = 1; k <= m; ++k) times.push_back(work / k);
    instance.add_task(MoldableTask(std::move(times), 1.0));
  }
  return instance;
}

/// Huge finite times: one dominant task with time 1e308 / sqrt(k), whose
/// work k * time(k) overflows to +inf from k = 4 on, so near the lower
/// bound only allotments of infinite work meet lambda; the others are
/// moldable-mix tasks scaled by 1e306.
Instance overflow_instance(Rng& rng, int n, int m) {
  Instance instance(m);
  std::vector<double> dominant;
  for (int k = 1; k <= m; ++k) {
    dominant.push_back(1e308 / std::sqrt(static_cast<double>(k)));
  }
  instance.add_task(MoldableTask(std::move(dominant), 1.0));
  for (int i = 1; i < n; ++i) {
    const MoldableTask base = make_moldable(rng, m);
    std::vector<double> times;
    for (int k = 1; k <= m; ++k) times.push_back(base.time(k) * 1e306);
    instance.add_task(MoldableTask(std::move(times), 1.0));
  }
  return instance;
}

TEST(DemtKernel, DualTestAcceptsMatchesReference) {
  // The verdict-only path — screens, then the pick-free DP — must return
  // exactly the reference's `feasible` at the search's own bounds, one
  // double either side of them, and across the guess range; each of its
  // three outcomes must actually occur.
  Rng rng(0xC7);
  std::vector<Instance> instances;
  for (int trial = 0; trial < 48; ++trial) {
    const int m = machine_sizes()[trial % machine_sizes().size()];
    instances.push_back(make_mix_instance(static_cast<Mix>(trial % 3),
                                          4 + trial % 18, m, rng));
  }
  for (int m : machine_sizes()) {
    for (int round = 0; round < 3; ++round) {
      instances.push_back(shelf_tie_instance(rng, 6 + 4 * round, m));
      instances.push_back(overflow_instance(rng, 3 + round, m));
    }
  }
  instances.push_back(plateau_instance());

  const double inf = std::numeric_limits<double>::infinity();
  int overflowed = 0;
  int ties = 0;
  int counts[4] = {0, 0, 0, 0};
  DualTestWorkspace ws;
  for (const Instance& instance : instances) {
    const InstanceAllotments tables(instance);
    const CmaxEstimate est = estimate_cmax(instance);
    std::vector<double> guesses;
    for (const double anchor : {est.lower_bound, est.estimate}) {
      guesses.push_back(std::nextafter(anchor, 0.0));
      guesses.push_back(anchor);
      guesses.push_back(std::nextafter(anchor, inf));
    }
    for (int s = 0; s < 8; ++s) {
      guesses.push_back(est.lower_bound * 0.5 +
                        (est.estimate * 2.0 - est.lower_bound * 0.5) * s /
                            7.0);
    }
    for (const double lambda : guesses) {
      if (!(lambda > 0.0)) continue;
      const bool accepted = dual_test_accepts(instance, lambda, tables, ws);
      EXPECT_EQ(accepted, dual_test_reference(instance, lambda).feasible)
          << "lambda " << lambda << " m " << instance.procs();
      const ProbePath path = classify_probe(instance, lambda, ws);
      ++counts[static_cast<int>(path)];
      if (path == ProbePath::ScreenReject) EXPECT_FALSE(accepted);
      if (path == ProbePath::ScreenAccept) EXPECT_TRUE(accepted);
      if (path == ProbePath::OptionsReject) continue;
      for (std::size_t o = 0; o < ws.opt_work.size(); ++o) {
        overflowed += ws.opt_work[o] == inf ? 1 : 0;
      }
      for (int i = 0; i < instance.num_tasks(); ++i) {
        const auto last = static_cast<std::size_t>(ws.opt_begin[i + 1]) - 1;
        ties += ws.opt_work[last] == ws.shelf2_work[i] ? 1 : 0;
      }
    }
  }
  EXPECT_GE(counts[static_cast<int>(ProbePath::ScreenReject)], 50);
  EXPECT_GE(counts[static_cast<int>(ProbePath::ScreenAccept)], 50);
  EXPECT_GE(counts[static_cast<int>(ProbePath::Dp)], 50);
  // The edge inputs reached the screens.
  EXPECT_GT(overflowed, 0);
  EXPECT_GT(ties, 0);
}

TEST(DemtKernel, DualTestCallCountRegression) {
  // The search trajectory is part of the contract: the vectorized search
  // must perform exactly as many dual tests as the scalar reference, for
  // every workspace form: fresh, and pooled across instances.
  Rng rng(0xC3);
  DualTestWorkspace pooled_ws;
  CmaxEstimate pooled;
  for (int trial = 0; trial < 40; ++trial) {
    const int m = machine_sizes()[trial % machine_sizes().size()];
    const Instance instance = make_mix_instance(
        static_cast<Mix>(trial % 3), 4 + trial % 14, m, rng);
    const CmaxSearchReference ref = estimate_cmax_reference(instance);
    EXPECT_GT(ref.dual_tests, 0);
    EXPECT_EQ(estimate_cmax(instance).dual_tests, ref.dual_tests);
    const InstanceAllotments tables(instance);
    DualTestWorkspace ws;
    CmaxEstimate fresh;
    estimate_cmax_into(instance, 1e-4, tables, ws, fresh);
    EXPECT_EQ(fresh.dual_tests, ref.dual_tests);
    estimate_cmax_into(instance, 1e-4, tables, pooled_ws, pooled);
    EXPECT_EQ(pooled.dual_tests, ref.dual_tests);
  }
}

TEST(DemtKernel, EstimateCmaxDifferential) {
  Rng rng(0xC4);
  for (int trial = 0; trial < 40; ++trial) {
    const int m = machine_sizes()[trial % machine_sizes().size()];
    const Instance instance = make_mix_instance(
        static_cast<Mix>(trial % 3), 4 + trial % 16, m, rng);
    const CmaxSearchReference ref = estimate_cmax_reference(instance);
    const CmaxEstimate vec = estimate_cmax(instance);
    EXPECT_EQ(vec.estimate, ref.estimate);
    EXPECT_EQ(vec.lower_bound, ref.lower_bound);
    EXPECT_EQ(vec.dual_tests, ref.dual_tests);
    expect_identical_dual(partition_at(instance, vec.estimate),
                          ref.partition);
  }
}

TEST(DemtKernel, EstimateCmaxIntoMatchesWorkspaceForm) {
  Rng rng(0xC5);
  DualTestWorkspace ws;
  InstanceAllotments tables;
  CmaxEstimate pooled;
  DualTestResult pooled_partition;
  for (int trial = 0; trial < 20; ++trial) {
    const int m = machine_sizes()[trial % machine_sizes().size()];
    const Instance instance = make_mix_instance(
        static_cast<Mix>(trial % 3), 4 + trial % 12, m, rng);
    tables.build(instance);
    estimate_cmax_into(instance, 1e-4, tables, ws, pooled);
    dual_test_into(instance, pooled.estimate, tables, ws, pooled_partition);
    const CmaxSearchReference ref = estimate_cmax_reference(instance);
    EXPECT_EQ(pooled.estimate, ref.estimate);
    EXPECT_EQ(pooled.lower_bound, ref.lower_bound);
    EXPECT_EQ(pooled.dual_tests, ref.dual_tests);
    expect_identical_dual(pooled_partition, ref.partition);
  }
}

/// The search keeps no partition: the dual test at its estimate must
/// rebuild the one the reference search kept for its last accepted guess,
/// field by field.
void expect_estimate_rebuilds_partition(const Instance& instance,
                                        double rel_eps) {
  const CmaxSearchReference ref = estimate_cmax_reference(instance, rel_eps);
  const CmaxEstimate vec = estimate_cmax(instance, rel_eps);
  ASSERT_EQ(vec.estimate, ref.estimate);
  ASSERT_TRUE(ref.partition.feasible);
  expect_identical_dual(partition_at(instance, vec.estimate), ref.partition);
}

TEST(DemtKernel, EstimateRebuildsSearchPartition) {
  Rng rng(0xC6);
  for (WorkloadFamily family : all_families()) {
    for (int m : machine_sizes()) {
      const Instance instance = generate_instance(family, 24, m, rng);
      expect_estimate_rebuilds_partition(instance, 1e-4);
      // Below the spacing of doubles: the search ends on adjacent bounds.
      expect_estimate_rebuilds_partition(instance, 1e-16);
    }
  }
  // The combinatorial bound accepted on the first probe: the estimate is
  // the bound itself and no bisection runs.
  Instance single(4);
  single.add_task(MoldableTask({8.0, 5.0, 4.0, 3.5}, 1.0));
  Instance ideal(4);
  for (int i = 0; i < 8; ++i) {
    ideal.add_task(MoldableTask({6.0, 3.0, 2.0, 1.5}, 1.0));
  }
  for (const Instance* instance : {&single, &ideal}) {
    ASSERT_EQ(estimate_cmax_reference(*instance).dual_tests, 1);
    expect_estimate_rebuilds_partition(*instance, 1e-4);
  }
}

// -------------------------------------------------- end-to-end bit lock

TEST(DemtKernel, DemtDifferentialMoldableMix) {
  Rng rng(0xD1);
  for (int m : machine_sizes()) {
    for (int trial = 0; trial < 10; ++trial) {
      const Instance instance =
          make_mix_instance(Mix::Moldable, 5 + trial * 2, m, rng);
      expect_demt_matches_reference(instance, DemtOptions{});
    }
  }
}

TEST(DemtKernel, DemtDifferentialRigidMix) {
  Rng rng(0xD2);
  for (int m : machine_sizes()) {
    for (int trial = 0; trial < 10; ++trial) {
      const Instance instance =
          make_mix_instance(Mix::Rigid, 5 + trial * 2, m, rng);
      expect_demt_matches_reference(instance, DemtOptions{});
    }
  }
}

TEST(DemtKernel, DemtDifferentialDivisibleMix) {
  Rng rng(0xD3);
  for (int m : machine_sizes()) {
    for (int trial = 0; trial < 10; ++trial) {
      const Instance instance =
          make_mix_instance(Mix::Divisible, 5 + trial * 2, m, rng);
      expect_demt_matches_reference(instance, DemtOptions{});
    }
  }
}

TEST(DemtKernel, DemtDifferentialGeneratorFamilies) {
  Rng rng(0xD4);
  int replaced_winners = 0;
  for (WorkloadFamily family : all_families()) {
    for (int m : machine_sizes()) {
      for (int trial = 0; trial < 3; ++trial) {
        const Instance instance =
            generate_instance(family, 8 + trial * 6, m, rng);
        if (expect_demt_matches_reference(instance, DemtOptions{}) >= 2) {
          ++replaced_winners;
        }
      }
    }
  }
  // The last accepted shuffle candidate wins: only a call that accepts two
  // or more tells that apart from keeping the first.
  EXPECT_GT(replaced_winners, 0);
}

TEST(DemtKernel, DemtOptionVariantsDifferential) {
  // Every schedule-affecting option, each against the reference: the
  // scalar and SoA pipelines must stay locked on all ablation branches,
  // not just the defaults.
  Rng rng(0xD5);
  std::vector<DemtOptions> variants;
  {
    DemtOptions o;
    o.compaction = DemtOptions::Compaction::None;
    variants.push_back(o);
    o.compaction = DemtOptions::Compaction::PullForward;
    variants.push_back(o);
  }
  {
    DemtOptions o;
    o.shuffles = 0;
    variants.push_back(o);
    o.shuffles = 5;
    o.shuffle_batch_order = true;
    variants.push_back(o);
  }
  {
    DemtOptions o;
    o.merge_small_tasks = false;
    variants.push_back(o);
    o.merge_small_tasks = true;
    o.smith_order_stacks = false;
    variants.push_back(o);
  }
  {
    // Below the spacing of doubles: both searches stop once their bounds
    // are adjacent.
    DemtOptions o;
    o.dual_eps = 1e-16;
    variants.push_back(o);
  }
  for (const DemtOptions& options : variants) {
    for (int trial = 0; trial < 5; ++trial) {
      const int m = machine_sizes()[trial % machine_sizes().size()];
      const Instance instance = make_mix_instance(
          static_cast<Mix>(trial % 3), 6 + trial * 3, m, rng);
      expect_demt_matches_reference(instance, options);
    }
  }
}

TEST(DemtKernel, DemtIntoMatchesWrapperOnWarmWorkspace) {
  // The serving entry point, called repeatedly through one warm
  // workspace and one pooled FlatPlacements, must keep producing the
  // wrapper's (and thus the reference's) schedule bit for bit.
  Rng rng(0xD6);
  DemtWorkspace ws;
  FlatPlacements out;
  DemtDiagnostics diag;
  for (int trial = 0; trial < 16; ++trial) {
    const int m = machine_sizes()[trial % machine_sizes().size()];
    const Instance instance = make_mix_instance(
        static_cast<Mix>(trial % 3), 5 + trial, m, rng);
    demt_schedule_into(instance, DemtOptions{}, ws, out, diag);
    const DemtResult ref = demt_schedule_reference(instance);
    gate::expect_same_entries(out, ref.schedule);
    expect_identical_diag(diag, ref.diag);
    const FlatMetrics metrics = out.metrics(instance);
    EXPECT_EQ(metrics.cmax, ref.schedule.cmax());
    EXPECT_EQ(metrics.weighted_completion_sum,
              ref.schedule.weighted_completion_sum(instance));
  }
}

// ------------------------------------------------------- flatlist policy

TEST(DemtKernel, FlatListPolicyDeterministicAndValid) {
  // The second serving policy over the same fuzz axes: a warm workspace
  // must reproduce a cold run exactly, and the output must be valid with
  // the fused scan's metrics equal to the object form's.
  Rng rng(0xE1);
  ListPassWorkspace warm;
  FlatPlacements warm_out;
  for (int trial = 0; trial < 30; ++trial) {
    const int m = machine_sizes()[trial % machine_sizes().size()];
    const Instance instance = make_mix_instance(
        static_cast<Mix>(trial % 3), 4 + trial % 20, m, rng);
    flat_list_schedule(instance, warm, warm_out);
    ListPassWorkspace cold;
    FlatPlacements cold_out;
    flat_list_schedule(instance, cold, cold_out);
    ASSERT_EQ(warm_out.size(), cold_out.size());
    EXPECT_EQ(warm_out.start, cold_out.start);
    EXPECT_EQ(warm_out.duration, cold_out.duration);
    require_valid(warm_out, instance);
    const Schedule schedule = to_schedule(warm_out, m);
    const FlatMetrics metrics = warm_out.metrics(instance);
    EXPECT_EQ(metrics.cmax, schedule.cmax());
    EXPECT_EQ(metrics.weighted_completion_sum,
              schedule.weighted_completion_sum(instance));
  }
}

TEST(DemtKernel, FusedMetricsBitIdenticalToSplitScans) {
  // The fused min/argmin scan against the two split scans it replaced, on
  // real schedules from both policies.
  Rng rng(0xE2);
  ListPassWorkspace list;
  FlatPlacements flat;
  for (int trial = 0; trial < 30; ++trial) {
    const int m = machine_sizes()[trial % machine_sizes().size()];
    const Instance instance = make_mix_instance(
        static_cast<Mix>(trial % 3), 4 + trial % 16, m, rng);
    if (trial % 2 == 0) {
      flat_list_schedule(instance, list, flat);
    } else {
      flat = demt_schedule(instance).schedule;
    }
    const FlatMetrics fused = flat.metrics(instance);
    EXPECT_EQ(fused.cmax, flat.cmax());
    EXPECT_EQ(fused.weighted_completion_sum,
              flat.weighted_completion_sum(instance));
  }
  // The kernel-gate sizes: DEMT schedules of Mixed instances, n = 50 and
  // 200 on m = 200 (seed 9).
  for (const int n : {50, 200}) {
    Rng gate_rng(9);
    const Instance instance =
        generate_instance(WorkloadFamily::Mixed, n, 200, gate_rng);
    flat = demt_schedule(instance).schedule;
    const FlatMetrics fused = flat.metrics(instance);
    EXPECT_EQ(fused.cmax, flat.cmax()) << "n=" << n;
    EXPECT_EQ(fused.weighted_completion_sum,
              flat.weighted_completion_sum(instance))
        << "n=" << n;
  }
}

}  // namespace
}  // namespace moldsched
