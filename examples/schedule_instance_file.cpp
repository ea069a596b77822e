/// \file schedule_instance_file.cpp
/// Miniature cluster front-end tool: read a serialized instance (or
/// generate one and save it), schedule it with a chosen algorithm, report
/// both criteria against the lower bounds, and optionally draw the Gantt.
///
///   # generate an instance file, then schedule it with two algorithms
///   ./schedule_instance_file --generate cirne --n 30 --m 16 --out /tmp/i.msi
///   ./schedule_instance_file --in /tmp/i.msi --algo DEMT --gantt
///   ./schedule_instance_file --in /tmp/i.msi --algo SAF

#include <fstream>
#include <iostream>
#include <sstream>

#include "dualapprox/cmax_estimator.hpp"
#include "exp/algorithms.hpp"
#include "lp/minsum_bound.hpp"
#include "sched/gantt.hpp"
#include "sched/validator.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

int main(int argc, char** argv) {
  using namespace moldsched;
  const ArgParser args(argc, argv);

  if (args.has("generate")) {
    Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 42)));
    const auto family = parse_family(args.get_string("generate", "cirne"));
    const int n = static_cast<int>(args.get_int("n", 30));
    const int m = static_cast<int>(args.get_int("m", 16));
    const Instance instance = generate_instance(family, n, m, rng);
    const std::string path = args.get_string("out", "instance.msi");
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    instance.save(out);
    std::cout << "wrote " << n << " " << family_name(family) << " tasks (m="
              << m << ") to " << path << "\n";
    return 0;
  }

  const std::string in_path = args.get_string("in", "");
  if (in_path.empty()) {
    std::cerr << "usage: --generate FAMILY --out FILE | --in FILE [--algo "
                 "NAME] [--gantt]\n";
    return 1;
  }
  std::ifstream in(in_path);
  if (!in) {
    std::cerr << "cannot read " << in_path << "\n";
    return 1;
  }
  const Instance instance = Instance::load(in);

  const std::string algo_name = args.get_string("algo", "DEMT");
  const auto algorithms = algorithms_by_name({algo_name});
  const FlatPlacements schedule = algorithms.front().run(instance);
  require_valid(schedule, instance);

  const auto cmax_bound = estimate_cmax(instance);
  const auto minsum_bound_result = minsum_lower_bound(instance);
  std::cout << algo_name << " on " << instance.num_tasks() << " tasks / "
            << instance.procs() << " processors\n"
            << "  Cmax   = " << schedule.cmax() << "  (ratio "
            << schedule.cmax() / cmax_bound.lower_bound << ")\n"
            << "  sum wC = " << schedule.weighted_completion_sum(instance)
            << "  (ratio "
            << schedule.weighted_completion_sum(instance) /
                   minsum_bound_result.bound
            << ")\n";
  if (args.has("gantt")) {
    std::cout << "\n" << render_gantt(schedule, instance.procs());
  }
  return 0;
}
