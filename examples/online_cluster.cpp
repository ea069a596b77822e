/// \file online_cluster.cpp
/// On-line batch scheduling on a simulated cluster front-end (paper §2.2
/// and §5): jobs arrive over time through the submission queue, the
/// scheduler batches them with DEMT, and part of the machine is reserved
/// for a maintenance window. Compares DEMT batches against the two rigid
/// list policies (FlatList: Smith order; LPT: longest first) on the same
/// arrival trace; any SchedulingPolicy plugs in the same way.
///
///   ./online_cluster [--jobs 40] [--m 32] [--rate 0.8] [--seed 1]

#include <cmath>
#include <cstdio>

#include "baselines/lpt_policy.hpp"
#include "core/policy.hpp"
#include "sim/online.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads/generators.hpp"

int main(int argc, char** argv) {
  using namespace moldsched;
  const ArgParser args(argc, argv);
  const int num_jobs = static_cast<int>(args.get_int("jobs", 40));
  const int m = static_cast<int>(args.get_int("m", 32));
  const double rate = args.get_double("rate", 0.8);  // arrivals per time unit
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));

  // Poisson-ish arrival trace of Cirne–Berman jobs.
  std::vector<OnlineJob> jobs;
  double clock = 0.0;
  for (int i = 0; i < num_jobs; ++i) {
    Instance one = generate_instance(WorkloadFamily::Cirne, 1, m, rng);
    clock += -std::log(1.0 - rng.uniform()) / rate;  // exponential gap
    jobs.push_back(OnlineJob{one.task(0), clock});
  }

  // Maintenance: a quarter of the nodes offline during [10, 25).
  std::vector<NodeReservation> reservations;
  for (int p = 0; p < m / 4; ++p) {
    reservations.push_back(NodeReservation{p, 10.0, 25.0});
  }

  std::printf("online cluster: %d jobs, m=%d, arrival rate %.2f, "
              "%d nodes reserved during [10, 25)\n\n",
              num_jobs, m, rate, m / 4);

  auto run = [&](const char* name, const SchedulingPolicy& policy) {
    const auto policy_ws = policy.make_workspace();
    OnlineWorkspace ws;
    FlatOnlineResult result;
    online_batch_schedule_into(m, jobs, policy, *policy_ws, reservations, ws,
                               result);
    RunningStats flow;
    for (double f : result.flow) flow.add(f);
    std::printf("%-12s batches=%3d cmax=%8.2f  mean flow=%7.2f  "
                "max flow=%7.2f  sum wC=%9.1f\n",
                name, result.num_batches, result.cmax, flow.mean(), flow.max(),
                result.weighted_completion_sum);
  };
  run("DEMT", DemtPolicy());
  run("FlatList", FlatListPolicy());
  run("LPT", LptRigidPolicy());

  std::printf("\nreading: batching with DEMT keeps mean flow competitive "
              "while the reservation window shrinks the machine.\n");
  return 0;
}
