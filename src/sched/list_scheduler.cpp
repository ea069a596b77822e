#include "sched/list_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <stdexcept>

namespace moldsched {

namespace {

constexpr double kTol = 1e-12;
constexpr int kStarted = INT_MAX;

struct EventLater {
  bool operator()(const ListPassWorkspace::FinishEvent& a,
                  const ListPassWorkspace::FinishEvent& b) const noexcept {
    return a.time > b.time;
  }
};

/// First list position >= lo whose leaf in the min-tree `tree` (leaves at
/// [leaves, 2 * leaves)) is <= idle, or -1 when none is.
int next_fitting(const std::vector<int>& tree, std::size_t leaves,
                 std::size_t lo, int idle) {
  if (lo >= leaves) return -1;
  std::size_t i = lo + leaves;
  do {
    while ((i & 1) == 0) i >>= 1;  // widen while i is a left child
    if (tree[i] <= idle) {
      while (i < leaves) {
        i *= 2;
        if (tree[i] > idle) ++i;
      }
      return static_cast<int>(i - leaves);
    }
    ++i;
  } while (!std::has_single_bit(i));  // wrapped past the last position
  return -1;
}

}  // namespace

void list_schedule_into(int m, int num_entries, ListPassWorkspace& ws,
                        FlatPlacements& out) {
  out.reset(num_entries);
  ws.events.clear();
  const std::size_t n = ws.jobs.size();
  const std::size_t leaves = std::bit_ceil(n);
  ws.pending.assign(2 * leaves, kStarted);
  for (std::size_t j = 0; j < n; ++j) {
    ws.pending[leaves + j] = ws.jobs[j].nprocs;
  }
  for (std::size_t i = leaves - 1; i > 0; --i) {
    ws.pending[i] = std::min(ws.pending[2 * i], ws.pending[2 * i + 1]);
  }
  ws.idle.assign((static_cast<std::size_t>(m) + 63) / 64, ~std::uint64_t{0});
  if (m % 64 != 0) ws.idle.back() = (std::uint64_t{1} << (m % 64)) - 1;
  int idle_count = m;
  std::size_t remaining = n;
  double now = 0.0;

  for (;;) {
    // Start every pending job that fits, in list order.
    for (int j = next_fitting(ws.pending, leaves, 0, idle_count); j >= 0;
         j = next_fitting(ws.pending, leaves, static_cast<std::size_t>(j) + 1,
                          idle_count)) {
      const ListJob& job = ws.jobs[static_cast<std::size_t>(j)];
      const auto e = static_cast<std::size_t>(job.task);
      out.start[e] = now;
      out.duration[e] = job.duration;
      out.proc_begin[e] = static_cast<int>(out.proc_ids.size());
      out.proc_count[e] = job.nprocs;
      // Take the lowest-numbered idle processors, ascending.
      int need = job.nprocs;
      for (std::size_t w = 0; need > 0; ++w) {
        std::uint64_t bits = ws.idle[w];
        for (; bits != 0 && need > 0; bits &= bits - 1, --need) {
          out.proc_ids.push_back(static_cast<int>(w * 64) +
                                 std::countr_zero(bits));
        }
        ws.idle[w] = bits;
      }
      idle_count -= job.nprocs;
      ws.events.push_back({now + job.duration, job.task});
      std::push_heap(ws.events.begin(), ws.events.end(), EventLater{});
      std::size_t i = leaves + static_cast<std::size_t>(j);
      ws.pending[i] = kStarted;
      for (i >>= 1; i > 0; i >>= 1) {
        const int v = std::min(ws.pending[2 * i], ws.pending[2 * i + 1]);
        if (v == ws.pending[i]) break;
        ws.pending[i] = v;
      }
      --remaining;
    }
    if (remaining == 0) return;

    // Advance to the next finish event and free every processor that
    // finishes by then (within kTol). With no running job left, the rest
    // need more processors than the machine has.
    if (ws.events.empty()) {
      throw std::logic_error("list_schedule: deadlock (jobs cannot fit)");
    }
    now = ws.events.front().time;
    while (!ws.events.empty() && ws.events.front().time <= now + kTol) {
      const auto e = static_cast<std::size_t>(ws.events.front().entry);
      std::pop_heap(ws.events.begin(), ws.events.end(), EventLater{});
      ws.events.pop_back();
      const auto begin = static_cast<std::size_t>(out.proc_begin[e]);
      const auto count = static_cast<std::size_t>(out.proc_count[e]);
      for (std::size_t i = begin; i < begin + count; ++i) {
        const auto p = static_cast<unsigned>(out.proc_ids[i]);
        ws.idle[p / 64] |= std::uint64_t{1} << (p % 64);
      }
      idle_count += out.proc_count[e];
    }
  }
}

FlatPlacements list_schedule(int m, int num_tasks,
                             const std::vector<ListJob>& jobs) {
  // Validate here so the allocation-free core can trust its inputs.
  if (m < 1) throw std::invalid_argument("list_schedule: m must be >= 1");
  if (num_tasks < 0) {
    throw std::invalid_argument("list_schedule: num_tasks must be >= 0");
  }
  std::vector<bool> seen(static_cast<std::size_t>(num_tasks), false);
  for (const auto& job : jobs) {
    if (job.task < 0 || job.task >= num_tasks) {
      throw std::invalid_argument("list_schedule: task index out of range");
    }
    if (seen[static_cast<std::size_t>(job.task)]) {
      throw std::invalid_argument("list_schedule: duplicate task in list");
    }
    seen[static_cast<std::size_t>(job.task)] = true;
    if (job.nprocs < 1 || job.nprocs > m) {
      throw std::invalid_argument("list_schedule: allotment out of range");
    }
    if (!(job.duration > 0.0) || !std::isfinite(job.duration)) {
      throw std::invalid_argument("list_schedule: bad duration");
    }
  }
  ListPassWorkspace ws;
  ws.jobs = jobs;
  FlatPlacements out;
  list_schedule_into(m, num_tasks, ws, out);
  return out;
}

}  // namespace moldsched
