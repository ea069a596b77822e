#include "sim/online.hpp"

#include <algorithm>
#include <cmath>
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
  validate_reservations(m, reservations,
                        "online_batch_schedule: bad reservation");
  for (const auto& job : jobs) {
    // A NaN release would be a sort key with no strict weak order.
    if (!(std::isfinite(job.release) && job.release >= 0.0)) {
      throw std::invalid_argument(
          "online_batch_schedule: release must be finite and non-negative");
    }
  }
}

/// Fill the pooled reduced-machine batch instance for the jobs of the open
/// batch (time vectors truncated to the reduced width): zero heap
/// allocation once the instance's shell pool is warm.
void rebuild_batch_instance(const OnlineJob* jobs,
                            const std::vector<int>& batch_jobs, int avail,
                            Instance& batch_instance) {
  batch_instance.reset(avail);
  for (int job_id : batch_jobs) {
    const MoldableTask& task = jobs[static_cast<std::size_t>(job_id)].task;
    if (task.min_procs() > avail) {
      throw std::invalid_argument(
          "online_batch_schedule: job cannot fit on available "
          "processors");
    }
    batch_instance.add_task_truncated(task, avail);
  }
}

}  // namespace

void validate_reservations(int m,
                           const std::vector<NodeReservation>& reservations,
                           const char* what) {
  for (const auto& r : reservations) {
    if (r.proc < 0 || r.proc >= m || !(r.finish > r.start)) {
      throw std::invalid_argument(what);
    }
  }
}

void FlatOnlineResult::reset(int num_jobs) {
  schedule.reset(num_jobs);
  completion.assign(static_cast<std::size_t>(num_jobs), 0.0);
  flow.assign(static_cast<std::size_t>(num_jobs), 0.0);
  cmax = 0.0;
  weighted_completion_sum = 0.0;
  weighted_flow_sum = 0.0;
  num_batches = 0;
  batch_starts.clear();
}

void online_blocked_procs_into(
    int m, const std::vector<NodeReservation>& reservations, double start,
    double finish, std::vector<std::uint8_t>& blocked) {
  blocked.assign(static_cast<std::size_t>(m), 0);
  for (const auto& r : reservations) {
    if (r.start < finish && r.finish > start) {
      blocked[static_cast<std::size_t>(r.proc)] = 1;
    }
  }
}

void online_settle_batch(int m, const OnlineJob* jobs,
                         const std::vector<NodeReservation>& reservations,
                         const SchedulingPolicy& policy,
                         PolicyWorkspace& policy_ws, OnlineWorkspace& ws,
                         double& now) {
  // Determine the available processors against reservations: start from
  // "everything free", schedule, check which reservations the batch
  // overlaps, remove those processors and retry until stable — the shared
  // reservation_fixpoint loop, proposing the batch's own makespan as the
  // window. On return ws.batch holds the settled batch-local placements
  // and ws.free_procs the processors the batch may use.
  ws.blocked.assign(static_cast<std::size_t>(m), 0);
  (void)reservation_fixpoint(
      m, reservations, ws, now,
      [&](int avail) {
        rebuild_batch_instance(jobs, ws.batch_jobs, avail, ws.batch_instance);
        policy.schedule_into(ws.batch_instance, policy_ws, ws.batch);
        // The lift indexes free_procs by the local ids: never trust them.
        policy.check_output(ws.batch_instance, ws.batch);
        return ws.batch.cmax();
      },
      "online_batch_schedule");
}

void online_lift_batch(const OnlineJob* jobs, const int* batch_jobs,
                       std::size_t count, const FlatPlacements& batch,
                       const std::vector<int>& free_procs, double clock,
                       FlatOnlineResult& out) {
  // Lift the batch placements into global time / global processor ids.
  for (std::size_t b = 0; b < count; ++b) {
    const int job_id = batch_jobs[b];
    const auto job = static_cast<std::size_t>(job_id);
    out.schedule.start[job] = clock + batch.start[b];
    out.schedule.duration[job] = batch.duration[b];
    out.schedule.proc_begin[job] =
        static_cast<int>(out.schedule.proc_ids.size());
    out.schedule.proc_count[job] = batch.proc_count[b];
    const auto begin = static_cast<std::size_t>(batch.proc_begin[b]);
    const auto pcount = static_cast<std::size_t>(batch.proc_count[b]);
    for (std::size_t p = begin; p < begin + pcount; ++p) {
      out.schedule.proc_ids.push_back(
          free_procs[static_cast<std::size_t>(batch.proc_ids[p])]);
    }
    const double completion = clock + (batch.start[b] + batch.duration[b]);
    out.completion[job] = completion;
    out.flow[job] = completion - jobs[job].release;
    out.cmax = std::max(out.cmax, completion);
    const double w = jobs[job].task.weight();
    out.weighted_completion_sum += w * completion;
    out.weighted_flow_sum += w * out.flow[job];
  }
  out.batch_starts.push_back(clock);
  ++out.num_batches;
}

void online_decide_batch(int m, const OnlineJob* jobs,
                         const std::vector<NodeReservation>& reservations,
                         const SchedulingPolicy& policy,
                         PolicyWorkspace& policy_ws, OnlineWorkspace& ws,
                         double& now, FlatOnlineResult& out) {
  online_settle_batch(m, jobs, reservations, policy, policy_ws, ws, now);
  online_lift_batch(jobs, ws.batch_jobs.data(), ws.batch_jobs.size(), ws.batch,
                    ws.free_procs, now, out);
  now += ws.batch.cmax();
}

void online_batch_schedule_into(
    int m, const std::vector<OnlineJob>& jobs, const SchedulingPolicy& policy,
    PolicyWorkspace& policy_ws,
    const std::vector<NodeReservation>& reservations, OnlineWorkspace& ws,
    FlatOnlineResult& out) {
  check_inputs(m, jobs, reservations);
  const int n = static_cast<int>(jobs.size());

  // Jobs in release order; arrival index breaks ties so simultaneous
  // releases keep a well-defined batch order (the same order a stream
  // feeding them one by one produces).
  ws.order.resize(static_cast<std::size_t>(n));
  std::iota(ws.order.begin(), ws.order.end(), 0);
  std::sort(ws.order.begin(), ws.order.end(), [&](int a, int b) {
    const double ra = jobs[static_cast<std::size_t>(a)].release;
    const double rb = jobs[static_cast<std::size_t>(b)].release;
    if (ra != rb) return ra < rb;
    return a < b;
  });

  out.reset(n);

  std::size_t next = 0;
  double now = 0.0;
  while (next < ws.order.size()) {
    // The batch opens when the machine is idle and at least one job has
    // arrived.
    now = std::max(now, jobs[static_cast<std::size_t>(ws.order[next])].release);
    ws.batch_jobs.clear();
    while (next < ws.order.size() &&
           jobs[static_cast<std::size_t>(ws.order[next])].release <=
               now + kReleaseTieEps) {
      ws.batch_jobs.push_back(ws.order[next]);
      ++next;
    }
    online_decide_batch(m, jobs.data(), reservations, policy, policy_ws, ws,
                        now, out);
  }
}

}  // namespace moldsched
