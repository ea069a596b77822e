#include "dualapprox/dual_test.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace moldsched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::int16_t kShelf2 = -1;
constexpr std::int16_t kUnreachable = -2;

/// Build the per-task shelf choices, pooled flat in `ws`: shelf-1 Pareto
/// options (increasing processor count with strictly decreasing work; for
/// monotone tasks a singleton found by binary search) and the min-work
/// lambda/2 allotment. Returns false when some task cannot meet lambda at
/// all — an immediate reject. Throws std::invalid_argument unless
/// lambda > 0.
bool build_shelf_options(const Instance& instance, double lambda,
                         const InstanceAllotments& tables,
                         DualTestWorkspace& ws) {
  if (!(lambda > 0.0)) {
    throw std::invalid_argument("dual_test: lambda must be positive");
  }
  const int n = instance.num_tasks();
  ws.opt_procs.clear();
  ws.opt_work.clear();
  ws.opt_begin.assign(static_cast<std::size_t>(n) + 1, 0);
  ws.shelf2_work.assign(static_cast<std::size_t>(n), kInf);
  ws.shelf2_procs.assign(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const MoldableTask& task = instance.task(i);
    const InstanceAllotments::View table = tables.table(i);
    if (table.strictly_monotone()) {
      // Monotone fast path: time non-increasing means every allotment from
      // the canonical one up meets lambda, and work non-decreasing means
      // none of them beats the canonical work — the Pareto set is a
      // singleton.
      const int c1 = table.canonical(lambda);
      if (c1 == 0) return false;  // cannot meet lambda: reject
      ws.opt_procs.push_back(c1);
      ws.opt_work.push_back(task.work(c1));
    } else {
      const std::size_t begin = ws.opt_procs.size();
      for (int k = task.min_procs(); k <= task.max_procs(); ++k) {
        if (task.time(k) > lambda) continue;
        const double w = task.work(k);
        if (ws.opt_procs.size() > begin && ws.opt_work.back() <= w) continue;
        ws.opt_procs.push_back(k);
        ws.opt_work.push_back(w);
      }
      if (ws.opt_procs.size() == begin) return false;  // reject
    }
    ws.opt_begin[static_cast<std::size_t>(i) + 1] =
        static_cast<int>(ws.opt_procs.size());
    const int g2 = table.min_work(lambda / 2.0);
    if (g2 > 0) {
      ws.shelf2_work[static_cast<std::size_t>(i)] = task.work(g2);
      ws.shelf2_procs[static_cast<std::size_t>(i)] = g2;
    }
  }
  return true;
}

/// The last rejection test: the minimised total work must fit in
/// m * lambda (with a relative slack of 1e-12 for rounding).
bool within_work_budget(double total_work, int m, double lambda) {
  return total_work <= static_cast<double>(m) * lambda * (1.0 + 1e-12);
}

/// Feasibility check + partition reconstruction from the final DP row and
/// the pick matrix.
void finish_from_dp(double lambda, int n, int m, DualTestWorkspace& ws,
                    DualTestResult& out) {
  const std::size_t row = static_cast<std::size_t>(m) + 1;
  if (ws.dp[static_cast<std::size_t>(m)] >= kInf) {
    return;  // even ignoring work, shelf-1 demand cannot fit: reject
  }
  out.total_work = ws.dp[static_cast<std::size_t>(m)];
  out.feasible = within_work_budget(out.total_work, m, lambda);
  if (!out.feasible) return;

  // Reconstruct the work-minimising partition.
  // Walk budgets backwards: at task i with budget j, the recorded pick
  // tells which option produced dp_i[j]; dp arrays are rebuilt implicitly
  // by the monotone budget walk.
  int j = m;
  for (int i = n - 1; i >= 0; --i) {
    const std::int16_t p =
        ws.pick[static_cast<std::size_t>(i) * row + static_cast<std::size_t>(j)];
    if (p == kUnreachable) {
      throw std::logic_error("dual_test: broken DP reconstruction");
    }
    if (p == kShelf2) {
      out.assignment[static_cast<std::size_t>(i)] = ShelfAssignment{
          Shelf::Small, ws.shelf2_procs[static_cast<std::size_t>(i)]};
    } else {
      const auto o =
          static_cast<std::size_t>(ws.opt_begin[i]) + static_cast<std::size_t>(p);
      out.assignment[static_cast<std::size_t>(i)] =
          ShelfAssignment{Shelf::Large, ws.opt_procs[o]};
      j -= ws.opt_procs[o];
    }
  }
}

/// The DP over the shelf-1 budget from the shelf options already in `ws`:
/// afterwards ws.dp[m] is the minimised total work, +inf when shelf-1
/// demand cannot fit in m processors. With `kRecordPicks` it also fills
/// the n x (m+1) pick matrix that finish_from_dp reconstructs from; the
/// verdict-only caller leaves `ws.pick` untouched. The dp values are the
/// same either way.
///
/// Soundness of the rejection certificate: any schedule of length lambda
/// induces a partition where "long" tasks (running more than lambda/2) all
/// overlap the midpoint, hence their true allotments sum to <= m, and every
/// "short" task has a lambda/2-feasible allotment. The DP minimises total
/// work over a superset of those partitions, so min-work > m*lambda (or no
/// partition at all) refutes the guess for ANY task structure, monotone or
/// not.
///
/// The DP is the budget-outer recurrence with the loops interchanged:
/// instead of computing each budget cell by scanning its options, each
/// option makes one contiguous row sweep over budgets [cost..m] with select
/// updates. Per cell the comparison sequence is unchanged — shelf-2 seed
/// first, then options in ascending order, each a strict `<` against the
/// running best — so every cell receives the bit-identical value and pick.
/// Infinities stay well-behaved: base = +inf gives candidate = +inf, and
/// +inf < best is false even when best is +inf, matching the budget-outer
/// form's explicit finiteness guards (no NaN can arise; work values are
/// non-negative).
template <bool kRecordPicks>
void fill_dp(int n, int m, DualTestWorkspace& ws) {
  // DP over the shelf-1 processor budget: dp[j] = min total work when
  // shelf-1 allotments sum to <= j. Option index per (task, budget) for
  // reconstruction; kShelf2 means the task stayed in shelf 2.
  const std::size_t row = static_cast<std::size_t>(m) + 1;
  ws.dp.assign(row, 0.0);
  ws.next.resize(row);
  if constexpr (kRecordPicks) {
    // Every cell is written by its row's seed sweep below.
    ws.pick.resize(static_cast<std::size_t>(n) * row);
  }

  for (int i = 0; i < n; ++i) {
    const auto begin = static_cast<std::size_t>(ws.opt_begin[i]);
    const auto end = static_cast<std::size_t>(ws.opt_begin[i + 1]);
    const double shelf2 = ws.shelf2_work[static_cast<std::size_t>(i)];
    const double* dp = ws.dp.data();
    double* next = ws.next.data();
    std::int16_t* pick_row = nullptr;
    if constexpr (kRecordPicks) {
      pick_row = ws.pick.data() + static_cast<std::size_t>(i) * row;
    }
    // Seed row: the shelf-2 branch for every budget.
    for (std::size_t j = 0; j < row; ++j) {
      const double cand = dp[j] + shelf2;
      const bool ok = cand < kInf;
      next[j] = ok ? cand : kInf;
      if constexpr (kRecordPicks) pick_row[j] = ok ? kShelf2 : kUnreachable;
    }
    // One row sweep per shelf-1 option, ascending (preserves the
    // budget-outer form's option visit order per cell).
    for (std::size_t o = begin; o < end; ++o) {
      const auto cost = static_cast<std::size_t>(ws.opt_procs[o]);
      const double w = ws.opt_work[o];
      const auto id = static_cast<std::int16_t>(o - begin);
      for (std::size_t j = cost; j < row; ++j) {
        const double cand = dp[j - cost] + w;
        const bool better = cand < next[j];
        next[j] = better ? cand : next[j];
        if constexpr (kRecordPicks) pick_row[j] = better ? id : pick_row[j];
      }
    }
    ws.dp.swap(ws.next);
  }
}

/// Verdict of the cheapest-choice screens: decided without the DP, or not.
enum class Screen { Reject, Accept, NeedDp };

/// Exact O(n) screens over the shelf options in `ws`. S sums, in task
/// order from 0.0, each task's cheapest choice: shelf 2, or the last
/// (cheapest) entry of its Pareto list, shelf 2 on a tie since it costs no
/// processors. Every DP candidate for task i adds a value >= its cheapest
/// choice to a prefix cell >= S's prefix, and IEEE addition is monotone in
/// each operand, so S <= dp[m] bit for bit: S failing the budget rejects.
/// If the cheapest choices' shelf-1 processors also fit in m, that path is
/// a DP candidate at every prefix, so dp[m] == S exactly: accept.
Screen screen_cheapest_choices(int n, int m, double lambda,
                               const DualTestWorkspace& ws) {
  double sum = 0.0;
  std::int64_t procs = 0;
  for (int i = 0; i < n; ++i) {
    const double shelf2 = ws.shelf2_work[static_cast<std::size_t>(i)];
    const auto last = static_cast<std::size_t>(ws.opt_begin[i + 1]) - 1;
    if (ws.opt_work[last] < shelf2) {
      sum += ws.opt_work[last];
      procs += ws.opt_procs[last];
    } else {
      sum += shelf2;
    }
  }
  if (!(sum < kInf) || !within_work_budget(sum, m, lambda)) {
    return Screen::Reject;
  }
  return procs <= m ? Screen::Accept : Screen::NeedDp;
}

}  // namespace

/// Runs entirely inside `ws` — the only allocations are capacity growth on
/// the first call at a given (n, m) and `out.assignment` growth.
void dual_test_into(const Instance& instance, double lambda,
                    const InstanceAllotments& tables, DualTestWorkspace& ws,
                    DualTestResult& out) {
  const bool built = build_shelf_options(instance, lambda, tables, ws);
  const int n = instance.num_tasks();
  out.feasible = false;
  out.total_work = 0.0;
  out.assignment.assign(static_cast<std::size_t>(n), ShelfAssignment{});
  if (!built) return;
  fill_dp<true>(n, instance.procs(), ws);
  finish_from_dp(lambda, n, instance.procs(), ws, out);
}

bool dual_test_accepts(const Instance& instance, double lambda,
                       const InstanceAllotments& tables,
                       DualTestWorkspace& ws) {
  if (!build_shelf_options(instance, lambda, tables, ws)) return false;
  const int n = instance.num_tasks();
  const int m = instance.procs();
  switch (screen_cheapest_choices(n, m, lambda, ws)) {
    case Screen::Reject: return false;
    case Screen::Accept: return true;
    case Screen::NeedDp: break;
  }
  fill_dp<false>(n, m, ws);
  const double total_work = ws.dp[static_cast<std::size_t>(m)];
  return total_work < kInf && within_work_budget(total_work, m, lambda);
}

}  // namespace moldsched
