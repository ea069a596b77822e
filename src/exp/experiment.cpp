#include "exp/experiment.hpp"

#include <stdexcept>

#include "dualapprox/cmax_estimator.hpp"
#include "lp/minsum_bound.hpp"
#include "sched/validator.hpp"
#include "tasks/time_grid.hpp"
#include "util/timer.hpp"

namespace moldsched {

namespace {

struct RunOutcome {
  double cmax_lb = 0.0;
  double minsum_lb = 0.0;
  std::int64_t lp_iterations = 0;
  std::vector<double> cmax;      // per algorithm
  std::vector<double> minsum;    // per algorithm
  std::vector<double> runtime_s; // per algorithm
};

RunOutcome execute_run(const PointConfig& config,
                       const std::vector<AlgorithmSpec>& algorithms,
                       Rng rng) {
  const Instance instance =
      generate_instance(config.family, config.n, config.m, rng,
                        config.generator);

  RunOutcome outcome;
  const CmaxEstimate estimate = estimate_cmax(instance);
  outcome.cmax_lb = estimate.lower_bound;

  if (config.compute_lp_bound) {
    const TimeGrid grid(estimate.estimate, instance.tmin());
    const MinsumBoundResult bound =
        minsum_lower_bound(instance, grid, config.lp_options);
    outcome.minsum_lb = bound.bound;
    outcome.lp_iterations = bound.iterations;
  }

  outcome.cmax.reserve(algorithms.size());
  outcome.minsum.reserve(algorithms.size());
  outcome.runtime_s.reserve(algorithms.size());
  for (const auto& algorithm : algorithms) {
    WallTimer timer;
    const FlatPlacements schedule = algorithm.run(instance);
    outcome.runtime_s.push_back(timer.seconds());
    if (config.validate) require_valid(schedule, instance);
    outcome.cmax.push_back(schedule.cmax());
    outcome.minsum.push_back(schedule.weighted_completion_sum(instance));
  }
  return outcome;
}

}  // namespace

PointResult run_point(const PointConfig& config,
                      const std::vector<AlgorithmSpec>& algorithms,
                      ThreadPool* pool) {
  if (config.runs < 1) throw std::invalid_argument("run_point: runs < 1");
  if (algorithms.empty()) {
    throw std::invalid_argument("run_point: no algorithms");
  }

  // Decorrelated per-run streams: the fork chain depends only on the seed
  // and the point coordinates, never on thread interleaving.
  Rng root(config.seed);
  Rng point_rng =
      root.fork(static_cast<std::uint64_t>(config.family) * 1000003ULL +
                static_cast<std::uint64_t>(config.n) * 1009ULL +
                static_cast<std::uint64_t>(config.m));
  std::vector<Rng> run_rngs;
  run_rngs.reserve(static_cast<std::size_t>(config.runs));
  for (int r = 0; r < config.runs; ++r) {
    run_rngs.push_back(point_rng.fork(static_cast<std::uint64_t>(r)));
  }

  std::vector<RunOutcome> outcomes(static_cast<std::size_t>(config.runs));
  auto body = [&](std::size_t r) {
    outcomes[r] = execute_run(config, algorithms, run_rngs[r]);
  };
  // Default executor: the shared pool — unless the caller brought a pool,
  // opted out, or this call already runs on a pool worker (submitting and
  // blocking there could deadlock the pool).
  if (pool == nullptr && config.parallel_runs &&
      !ThreadPool::this_thread_is_worker()) {
    pool = &shared_thread_pool();
  }
  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for(0, static_cast<std::size_t>(config.runs), body);
  } else {
    for (std::size_t r = 0; r < static_cast<std::size_t>(config.runs); ++r) {
      body(r);
    }
  }

  PointResult result;
  result.config = config;
  for (const auto& algorithm : algorithms) {
    result.algorithm_order.push_back(algorithm.name);
    result.stats.emplace(algorithm.name, AlgoPointStats{});
  }
  for (const auto& outcome : outcomes) {
    result.cmax_lower_bound.add(outcome.cmax_lb);
    if (config.compute_lp_bound) {
      result.lp_bound.add(outcome.minsum_lb);
      result.lp_iterations.add(static_cast<double>(outcome.lp_iterations));
    }
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
      auto& stats = result.stats[algorithms[a].name];
      stats.cmax_ratio.add(outcome.cmax[a], outcome.cmax_lb);
      if (config.compute_lp_bound) {
        stats.minsum_ratio.add(outcome.minsum[a], outcome.minsum_lb);
      }
      stats.runtime_s.add(outcome.runtime_s[a]);
    }
  }
  return result;
}

}  // namespace moldsched
