#include "reference/online_reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace moldsched {

namespace {

void check_inputs(int m, const std::vector<OnlineJob>& jobs,
                  const std::vector<NodeReservation>& reservations) {
  if (m < 1) throw std::invalid_argument("online_batch_schedule: m < 1");
  if (jobs.empty()) {
    throw std::invalid_argument("online_batch_schedule: no jobs");
  }
  for (const auto& r : reservations) {
    if (r.proc < 0 || r.proc >= m || !(r.finish > r.start)) {
      throw std::invalid_argument("online_batch_schedule: bad reservation");
    }
  }
  for (const auto& job : jobs) {
    if (!(std::isfinite(job.release) && job.release >= 0.0)) {
      throw std::invalid_argument(
          "online_batch_schedule: release must be finite and non-negative");
    }
  }
}

/// Build the reduced-machine batch instance for the jobs of the open batch
/// (time vectors truncated to the reduced width).
Instance build_batch_instance(const std::vector<OnlineJob>& jobs,
                              const std::vector<int>& batch_jobs, int avail) {
  Instance batch_instance(avail);
  for (int job_id : batch_jobs) {
    const MoldableTask& task = jobs[static_cast<std::size_t>(job_id)].task;
    if (task.min_procs() > avail) {
      throw std::invalid_argument(
          "online_batch_schedule: job cannot fit on available "
          "processors");
    }
    std::vector<double> times(task.times().begin(),
                              task.times().begin() +
                                  std::min(task.max_procs(), avail));
    batch_instance.add_task(
        MoldableTask(std::move(times), task.weight(), task.min_procs()));
  }
  return batch_instance;
}

std::vector<bool> blocked_procs(int m,
                                const std::vector<NodeReservation>& reservations,
                                double start, double finish) {
  std::vector<bool> blocked(static_cast<std::size_t>(m), false);
  for (const auto& r : reservations) {
    if (r.start < finish && r.finish > start) {
      blocked[static_cast<std::size_t>(r.proc)] = true;
    }
  }
  return blocked;
}

}  // namespace

OnlineResult online_batch_schedule_reference(
    int m, const std::vector<OnlineJob>& jobs, const OfflineScheduler& offline,
    const std::vector<NodeReservation>& reservations) {
  check_inputs(m, jobs, reservations);
  const int n = static_cast<int>(jobs.size());

  // Jobs in release order (arrival-index tie-break, matching the flat
  // core so the two paths stay bit-identical on simultaneous releases).
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double ra = jobs[static_cast<std::size_t>(a)].release;
    const double rb = jobs[static_cast<std::size_t>(b)].release;
    if (ra != rb) return ra < rb;
    return a < b;
  });

  OnlineResult result(m, n);
  result.completion.assign(static_cast<std::size_t>(n), 0.0);
  result.flow.assign(static_cast<std::size_t>(n), 0.0);

  std::size_t next = 0;
  double now = 0.0;
  while (next < order.size()) {
    // The batch opens when the machine is idle and at least one job has
    // arrived.
    now = std::max(now, jobs[static_cast<std::size_t>(order[next])].release);
    std::vector<int> batch_jobs;
    while (next < order.size() &&
           jobs[static_cast<std::size_t>(order[next])].release <= now + 1e-12) {
      batch_jobs.push_back(order[next]);
      ++next;
    }

    // Determine the available processors against reservations: start from
    // "everything free", schedule, check which reservations the batch
    // overlaps, remove those processors and retry until stable.
    std::vector<bool> blocked(static_cast<std::size_t>(m), false);
    Schedule batch_schedule(1, 0);
    std::vector<int> free_procs;
    // Same iteration budget as the flat core (the two paths must stay
    // bit-identical, including on inputs that exercise the budget).
    const int max_iterations =
        (static_cast<int>(reservations.size()) + 1) * (m + 2);
    bool settled = false;
    for (int iteration = 0; iteration < max_iterations; ++iteration) {
      free_procs.clear();
      for (int p = 0; p < m; ++p) {
        if (!blocked[static_cast<std::size_t>(p)]) free_procs.push_back(p);
      }
      const int avail = static_cast<int>(free_procs.size());
      if (avail == 0) {
        // Fully reserved at this instant: jump past the earliest blocking
        // reservation end and rebuild the batch window.
        double jump = std::numeric_limits<double>::infinity();
        for (const auto& r : reservations) {
          if (r.finish > now) jump = std::min(jump, r.finish);
        }
        if (!std::isfinite(jump)) {
          throw std::logic_error(
              "online_batch_schedule: machine permanently fully reserved");
        }
        now = jump;
        blocked = blocked_procs(m, reservations, now, now);
        continue;
      }
      // Build the batch instance on the reduced machine.
      const Instance batch_instance =
          build_batch_instance(jobs, batch_jobs, avail);
      batch_schedule = to_schedule(offline(batch_instance), avail);
      const double horizon = now + batch_schedule.cmax();
      auto new_blocked = blocked_procs(m, reservations, now, horizon);
      if (new_blocked == blocked) {  // fixpoint: no new conflicts
        settled = true;
        break;
      }
      for (std::size_t p = 0; p < new_blocked.size(); ++p) {
        if (new_blocked[p]) blocked[p] = true;  // monotone growth => converges
      }
    }
    if (!settled) {
      throw std::logic_error(
          "online_batch_schedule: reservation fixpoint failed to converge");
    }

    // Lift the batch schedule into global time / global processor ids.
    for (std::size_t b = 0; b < batch_jobs.size(); ++b) {
      const int job_id = batch_jobs[b];
      const Placement& p = batch_schedule.placement(static_cast<int>(b));
      std::vector<int> procs;
      procs.reserve(p.procs.size());
      for (int local : p.procs) {
        procs.push_back(free_procs[static_cast<std::size_t>(local)]);
      }
      result.schedule.place(job_id, now + p.start, p.duration, std::move(procs));
      const double completion = now + p.finish();
      result.completion[static_cast<std::size_t>(job_id)] = completion;
      result.flow[static_cast<std::size_t>(job_id)] =
          completion - jobs[static_cast<std::size_t>(job_id)].release;
      result.cmax = std::max(result.cmax, completion);
      const double w = jobs[static_cast<std::size_t>(job_id)].task.weight();
      result.weighted_completion_sum += w * completion;
      result.weighted_flow_sum +=
          w * result.flow[static_cast<std::size_t>(job_id)];
    }
    result.batch_starts.push_back(now);
    ++result.num_batches;
    now += batch_schedule.cmax();
  }
  return result;
}

}  // namespace moldsched
