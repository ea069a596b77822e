/// \file quickstart.cpp
/// Minimal end-to-end tour of the public API: build a small moldable
/// instance by hand, schedule it with the bi-criteria algorithm, inspect
/// the result against both lower bounds, and print an ASCII Gantt chart.
///
///   ./quickstart

#include <cstdio>

#include "core/demt.hpp"
#include "dualapprox/cmax_estimator.hpp"
#include "lp/minsum_bound.hpp"
#include "sched/gantt.hpp"
#include "sched/validator.hpp"
#include "tasks/instance.hpp"

int main() {
  using namespace moldsched;

  // An 8-processor cluster with a handful of moldable jobs. Each task is a
  // vector of processing times p(1..m) plus a weight (priority).
  Instance instance(8);
  // A perfectly parallel render job: p(k) = 24 / k.
  {
    std::vector<double> times;
    for (int k = 1; k <= 8; ++k) times.push_back(24.0 / k);
    instance.add_task(MoldableTask(std::move(times), 3.0));
  }
  // A solver with diminishing returns past 4 processors.
  instance.add_task(
      MoldableTask({16.0, 8.5, 6.0, 4.8, 4.5, 4.4, 4.35, 4.3}, 5.0));
  // Six short sequential post-processing scripts (no speedup at all).
  for (int i = 0; i < 6; ++i) {
    instance.add_task(MoldableTask(std::vector<double>(8, 1.5), 1.0));
  }
  // A rigid legacy MPI job that only runs on exactly 4 processors.
  instance.add_task(MoldableTask({9.0, 9.0, 9.0, 2.6, 2.6, 2.6, 2.6, 2.6},
                                 2.0, /*min_procs=*/4));

  // Schedule with the paper's bi-criteria batch algorithm.
  const DemtResult result = demt_schedule(instance);
  require_valid(result.schedule, instance);  // throws if anything is off

  std::printf("scheduled %d tasks on %d processors\n", instance.num_tasks(),
              instance.procs());
  std::printf("  makespan (Cmax)        : %.3f\n", result.schedule.cmax());
  std::printf("  weighted minsum (SwC)  : %.3f\n",
              result.schedule.weighted_completion_sum(instance));
  std::printf("  batches used           : %d (grid K = %d)\n",
              result.diag.num_batches, result.diag.grid_k);

  // How good is that? Compare against the two lower bounds the paper uses.
  const CmaxEstimate cmax_bound = estimate_cmax(instance);
  const MinsumBoundResult minsum_bound_result = minsum_lower_bound(instance);
  std::printf("  Cmax ratio vs bound    : %.3f (bound %.3f)\n",
              result.schedule.cmax() / cmax_bound.lower_bound,
              cmax_bound.lower_bound);
  std::printf("  minsum ratio vs bound  : %.3f (bound %.3f)\n",
              result.schedule.weighted_completion_sum(instance) /
                  minsum_bound_result.bound,
              minsum_bound_result.bound);

  std::printf("\n%s", render_gantt(result.schedule, instance.procs()).c_str());
  return 0;
}
