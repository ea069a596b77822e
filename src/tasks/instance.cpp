#include "tasks/instance.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

namespace moldsched {

Instance::Instance(int m) : m_(m) {
  if (m < 1) throw std::invalid_argument("Instance: m must be >= 1");
}

int Instance::add_task(MoldableTask task) {
  if (task.max_procs() > m_) {
    throw std::invalid_argument(
        "Instance::add_task: task defined on more processors than the "
        "cluster has");
  }
  tasks_.push_back(std::move(task));
  return static_cast<int>(tasks_.size()) - 1;
}

void Instance::reset(int m) {
  if (m < 1) throw std::invalid_argument("Instance: m must be >= 1");
  m_ = m;
  while (!tasks_.empty()) {
    pool_.push_back(std::move(tasks_.back()));
    tasks_.pop_back();
  }
}

int Instance::add_task_truncated(const MoldableTask& src, int max_procs) {
  MoldableTask shell;
  if (!pool_.empty()) {
    shell = std::move(pool_.back());
    pool_.pop_back();
  }
  shell.assign_truncated(src, std::min(max_procs, m_));
  tasks_.push_back(std::move(shell));
  return static_cast<int>(tasks_.size()) - 1;
}

double Instance::tmin() const {
  if (tasks_.empty()) throw std::logic_error("Instance::tmin: no tasks");
  double best = std::numeric_limits<double>::infinity();
  for (const auto& t : tasks_) best = std::min(best, t.min_time());
  return best;
}

double Instance::total_min_work() const noexcept {
  double sum = 0.0;
  for (const auto& t : tasks_) sum += t.min_work();
  return sum;
}

double Instance::total_weight() const noexcept {
  double sum = 0.0;
  for (const auto& t : tasks_) sum += t.weight();
  return sum;
}

bool Instance::is_monotone(double tol) const noexcept {
  for (const auto& t : tasks_) {
    if (!t.is_time_monotone(tol) || !t.is_work_monotone(tol)) return false;
  }
  return true;
}

// Format:
//   moldsched-instance v1
//   m <procs>
//   n <num_tasks>
//   task <weight> <min_procs> <max_procs> <p(1)> ... <p(max_procs)>   (n lines)
void Instance::save(std::ostream& out) const {
  out << "moldsched-instance v1\n";
  out << "m " << m_ << "\n";
  out << "n " << tasks_.size() << "\n";
  out.precision(17);
  for (const auto& t : tasks_) {
    out << "task " << t.weight() << ' ' << t.min_procs() << ' '
        << t.max_procs();
    for (int k = 1; k <= t.max_procs(); ++k) out << ' ' << t.time(k);
    out << '\n';
  }
}

Instance Instance::load(std::istream& in) {
  std::string magic, version;
  in >> magic >> version;
  if (magic != "moldsched-instance" || version != "v1") {
    throw std::runtime_error("Instance::load: bad header");
  }
  std::string key;
  int m = 0;
  long long n = -1;
  in >> key >> m;
  if (key != "m") throw std::runtime_error("Instance::load: expected 'm'");
  if (!in || m < 1) {
    throw std::runtime_error("Instance::load: m missing or < 1");
  }
  in >> key >> n;
  if (key != "n") throw std::runtime_error("Instance::load: expected 'n'");
  if (!in || n < 0) {
    throw std::runtime_error("Instance::load: n missing or < 0");
  }
  Instance instance(m);
  for (long long i = 0; i < n; ++i) {
    double weight = 0.0;
    int min_procs = 0, max_procs = 0;
    in >> key >> weight >> min_procs >> max_procs;
    if (key != "task" || !in) {
      throw std::runtime_error("Instance::load: bad task record");
    }
    if (max_procs < 1 || max_procs > m) {
      throw std::runtime_error("Instance::load: max_procs outside [1, m]");
    }
    if (min_procs < 1 || min_procs > max_procs) {
      throw std::runtime_error(
          "Instance::load: min_procs outside [1, max_procs]");
    }
    // Grown per value read, so memory follows the input actually present
    // rather than a count the record claims.
    std::vector<double> times;
    for (int k = 0; k < max_procs; ++k) {
      double t = 0.0;
      if (!(in >> t)) {
        throw std::runtime_error("Instance::load: truncated task times");
      }
      times.push_back(t);
    }
    instance.add_task(MoldableTask(std::move(times), weight, min_procs));
  }
  return instance;
}

}  // namespace moldsched
