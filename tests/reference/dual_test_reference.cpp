#include "reference/dual_test_reference.hpp"

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
/// options (increasing processor count with strictly decreasing work) and
/// the min-work lambda/2 allotment, both by scanning the task's allotments.
/// Returns false when some task cannot meet lambda at all — an immediate
/// reject.
bool build_shelf_options(const Instance& instance, double lambda,
                         DualTestWorkspace& ws) {
  const int n = instance.num_tasks();
  ws.opt_procs.clear();
  ws.opt_work.clear();
  ws.opt_begin.assign(static_cast<std::size_t>(n) + 1, 0);
  ws.shelf2_work.assign(static_cast<std::size_t>(n), kInf);
  ws.shelf2_procs.assign(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const MoldableTask& task = instance.task(i);
    const std::size_t begin = ws.opt_procs.size();
    for (int k = task.min_procs(); k <= task.max_procs(); ++k) {
      if (task.time(k) > lambda) continue;
      const double w = task.work(k);
      if (ws.opt_procs.size() > begin && ws.opt_work.back() <= w) continue;
      ws.opt_procs.push_back(k);
      ws.opt_work.push_back(w);
    }
    if (ws.opt_procs.size() == begin) return false;  // reject
    ws.opt_begin[static_cast<std::size_t>(i) + 1] =
        static_cast<int>(ws.opt_procs.size());
    const int g2 = task.min_work_allotment(lambda / 2.0);
    if (g2 > 0) {
      ws.shelf2_work[static_cast<std::size_t>(i)] = task.work(g2);
      ws.shelf2_procs[static_cast<std::size_t>(i)] = g2;
    }
  }
  return true;
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
  out.feasible =
      out.total_work <= static_cast<double>(m) * lambda * (1.0 + 1e-12);
  if (!out.feasible) return;

  // Walk budgets backwards: at task i with budget j, the recorded pick
  // tells which option produced dp_i[j].
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

}  // namespace

DualTestResult dual_test_reference(const Instance& instance, double lambda) {
  if (!(lambda > 0.0)) {
    throw std::invalid_argument("dual_test: lambda must be positive");
  }
  const int n = instance.num_tasks();
  const int m = instance.procs();
  DualTestWorkspace ws;
  DualTestResult out;
  out.assignment.assign(static_cast<std::size_t>(n), ShelfAssignment{});

  if (!build_shelf_options(instance, lambda, ws)) return out;

  // DP over the shelf-1 processor budget: dp[j] = min total work when
  // shelf-1 allotments sum to <= j; one pick per (task, budget).
  const std::size_t row = static_cast<std::size_t>(m) + 1;
  ws.dp.assign(row, 0.0);
  ws.next.resize(row);
  ws.pick.assign(static_cast<std::size_t>(n) * row, kUnreachable);

  for (int i = 0; i < n; ++i) {
    const auto begin = static_cast<std::size_t>(ws.opt_begin[i]);
    const auto end = static_cast<std::size_t>(ws.opt_begin[i + 1]);
    const double shelf2 = ws.shelf2_work[static_cast<std::size_t>(i)];
    std::int16_t* pick_row = ws.pick.data() + static_cast<std::size_t>(i) * row;
    for (int j = 0; j <= m; ++j) {
      double best = kInf;
      std::int16_t best_pick = kUnreachable;
      if (ws.dp[static_cast<std::size_t>(j)] < kInf && shelf2 < kInf) {
        best = ws.dp[static_cast<std::size_t>(j)] + shelf2;
        best_pick = kShelf2;
      }
      for (std::size_t o = begin; o < end; ++o) {
        const int cost = ws.opt_procs[o];
        if (cost > j) break;  // options sorted by increasing procs
        const double base = ws.dp[static_cast<std::size_t>(j - cost)];
        if (base >= kInf) continue;
        const double candidate = base + ws.opt_work[o];
        if (candidate < best) {
          best = candidate;
          best_pick = static_cast<std::int16_t>(o - begin);
        }
      }
      ws.next[static_cast<std::size_t>(j)] = best;
      pick_row[static_cast<std::size_t>(j)] = best_pick;
    }
    ws.dp.swap(ws.next);
  }

  finish_from_dp(lambda, n, m, ws, out);
  return out;
}

}  // namespace moldsched
