#include "reference/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace moldsched {

Schedule::Schedule(int m, int num_tasks) : m_(m) {
  if (m < 1) throw std::invalid_argument("Schedule: m must be >= 1");
  if (num_tasks < 0) {
    throw std::invalid_argument("Schedule: num_tasks must be >= 0");
  }
  placements_.resize(static_cast<std::size_t>(num_tasks));
  placed_.resize(static_cast<std::size_t>(num_tasks), false);
}

void Schedule::check_task(int task) const {
  if (task < 0 || task >= num_tasks()) {
    throw std::invalid_argument("Schedule: task index out of range");
  }
}

void Schedule::place(int task, double start, double duration,
                     std::vector<int> procs) {
  check_task(task);
  if (!(start >= 0.0) || !std::isfinite(start)) {
    throw std::invalid_argument("Schedule::place: bad start time");
  }
  if (!(duration > 0.0) || !std::isfinite(duration)) {
    throw std::invalid_argument("Schedule::place: bad duration");
  }
  if (procs.empty()) {
    throw std::invalid_argument("Schedule::place: empty processor set");
  }
  std::vector<int> sorted = procs;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.front() < 0 || sorted.back() >= m_) {
    throw std::invalid_argument("Schedule::place: processor id out of range");
  }
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw std::invalid_argument("Schedule::place: duplicate processor id");
  }
  auto& p = placements_[static_cast<std::size_t>(task)];
  p.start = start;
  p.duration = duration;
  p.procs = std::move(sorted);
  placed_[static_cast<std::size_t>(task)] = true;
}

bool Schedule::complete() const noexcept {
  return std::all_of(placed_.begin(), placed_.end(),
                     [](bool b) { return b; });
}

const Placement& Schedule::placement(int task) const {
  check_task(task);
  if (!placed_[static_cast<std::size_t>(task)]) {
    throw std::logic_error("Schedule::placement: task not assigned");
  }
  return placements_[static_cast<std::size_t>(task)];
}

double Schedule::completion(int task) const {
  return placement(task).finish();
}

double Schedule::cmax() const {
  double best = 0.0;
  for (int i = 0; i < num_tasks(); ++i) {
    best = std::max(best, completion(i));
  }
  return best;
}

double Schedule::weighted_completion_sum(const Instance& instance) const {
  if (instance.num_tasks() != num_tasks()) {
    throw std::logic_error(
        "weighted_completion_sum: instance/schedule size mismatch");
  }
  double sum = 0.0;
  for (int i = 0; i < num_tasks(); ++i) {
    sum += instance.task(i).weight() * completion(i);
  }
  return sum;
}

Schedule to_schedule(const FlatPlacements& flat, int m) {
  Schedule schedule(m, flat.size());
  std::vector<int> procs;
  for (int e = 0; e < flat.size(); ++e) {
    if (!flat.assigned(e)) continue;
    const auto entry = static_cast<std::size_t>(e);
    const auto begin = flat.proc_ids.begin() + flat.proc_begin[entry];
    procs.assign(begin, begin + flat.proc_count[entry]);
    schedule.place(e, flat.start[entry], flat.duration[entry], procs);
  }
  return schedule;
}

FlatPlacements to_flat(const Schedule& schedule) {
  FlatPlacements flat;
  flat.reset(schedule.num_tasks());
  for (int t = 0; t < schedule.num_tasks(); ++t) {
    if (!schedule.assigned(t)) continue;
    const Placement& p = schedule.placement(t);
    const auto e = static_cast<std::size_t>(t);
    flat.start[e] = p.start;
    flat.duration[e] = p.duration;
    flat.proc_begin[e] = static_cast<int>(flat.proc_ids.size());
    flat.proc_count[e] = p.nprocs();
    flat.proc_ids.insert(flat.proc_ids.end(), p.procs.begin(), p.procs.end());
  }
  return flat;
}

}  // namespace moldsched
