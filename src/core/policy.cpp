#include "core/policy.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace moldsched {

PolicyWorkspace::~PolicyWorkspace() = default;
SchedulingPolicy::~SchedulingPolicy() = default;

const void* SchedulingPolicy::workspace_key() const noexcept { return this; }

std::uint64_t SchedulingPolicy::cache_key() const noexcept { return 0; }

void SchedulingPolicy::check_output(const Instance& batch,
                                    const FlatPlacements& out) const {
  const auto fail = [&](const char* what) {
    throw std::logic_error(std::string("policy '") + name() + "' " + what);
  };
  const std::size_t size = out.start.size();
  if (out.duration.size() != size || out.proc_begin.size() != size ||
      out.proc_count.size() != size) {
    fail("returned placement arrays of unequal lengths");
  }
  if (out.size() != batch.num_tasks()) {
    fail("returned a placement count other than the batch's task count");
  }
  const auto pool = static_cast<long long>(out.proc_ids.size());
  for (int e = 0; e < out.size(); ++e) {
    const auto entry = static_cast<std::size_t>(e);
    const long long begin = out.proc_begin[entry];
    const long long count = out.proc_count[entry];
    if (!out.assigned(e) || count < 1 || begin < 0 || begin + count > pool) {
      fail("left a task without a placement");
    }
  }
  for (const int id : out.proc_ids) {
    if (id < 0 || id >= batch.procs()) {
      fail("placed a task on a processor outside the batch's machine");
    }
  }
}

namespace {

/// SplitMix64 finalization over (h ^ v) — the same mixer the decision
/// cache's signature uses (util/rng.hpp lineage).
std::uint64_t mix_key(std::uint64_t h, std::uint64_t v) noexcept {
  std::uint64_t z = (h ^ v) + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t mix_key(std::uint64_t h, double v) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return mix_key(h, bits);
}

}  // namespace

void fill_min_work_jobs(const Instance& instance, ListPassWorkspace& list) {
  const int n = instance.num_tasks();
  list.jobs.clear();
  for (int t = 0; t < n; ++t) {
    const MoldableTask& task = instance.task(t);
    const int k = task.min_work_procs();
    list.jobs.push_back(ListJob{t, k, task.time(k)});
  }
}

void flat_list_schedule(const Instance& instance, ListPassWorkspace& list,
                        FlatPlacements& out) {
  fill_min_work_jobs(instance, list);
  // Smith ratio decreasing; task id breaks ties so the order (and thus the
  // schedule) is deterministic. std::sort, not stable_sort: the latter may
  // allocate its merge buffer, and the explicit tie-break already pins the
  // order.
  std::sort(list.jobs.begin(), list.jobs.end(),
            [&](const ListJob& a, const ListJob& b) {
              const double ra =
                  instance.task(a.task).weight() / a.duration;
              const double rb =
                  instance.task(b.task).weight() / b.duration;
              if (ra != rb) return ra > rb;
              return a.task < b.task;
            });
  list_schedule_into(instance.procs(), instance.num_tasks(), list, out);
}

namespace {

struct DemtPolicyWorkspace final : PolicyWorkspace {
  DemtWorkspace demt;
};

struct FlatListPolicyWorkspace final : PolicyWorkspace {
  ListPassWorkspace list;
};

}  // namespace

std::unique_ptr<PolicyWorkspace> DemtPolicy::make_workspace() const {
  return std::make_unique<DemtPolicyWorkspace>();
}

void DemtPolicy::schedule_into(const Instance& batch, PolicyWorkspace& ws,
                               FlatPlacements& out) const {
  auto& demt_ws = static_cast<DemtPolicyWorkspace&>(ws);
  // The driver writes the winning per-task placements straight into the
  // caller's pooled FlatPlacements: no per-request allocation once the
  // workspace is warm.
  demt_schedule_into(batch, options_, demt_ws.demt, out, ws.last_diag);
}

const void* DemtPolicy::workspace_key() const noexcept {
  static const char kKey = 0;
  return &kKey;
}

std::uint64_t DemtPolicy::cache_key() const noexcept {
  // Every DemtOptions field, by value: each one can change the schedule.
  std::uint64_t h = 0x44454D5450434B59ULL;  // class tag ("DEMTPCKY")
  h = mix_key(h, options_.dual_eps);
  h = mix_key(h, static_cast<std::uint64_t>(options_.merge_small_tasks));
  h = mix_key(h, static_cast<std::uint64_t>(options_.smith_order_stacks));
  h = mix_key(h, static_cast<std::uint64_t>(options_.compaction));
  h = mix_key(h, static_cast<std::uint64_t>(options_.shuffles));
  h = mix_key(h, static_cast<std::uint64_t>(options_.shuffle_batch_order));
  h = mix_key(h, options_.cmax_budget_factor);
  // mix_key never returns 0 for this tag chain in practice, but the
  // cache treats 0 as "uncacheable" — keep the contract airtight.
  return h != 0 ? h : 1;
}

std::unique_ptr<PolicyWorkspace> FlatListPolicy::make_workspace() const {
  return std::make_unique<FlatListPolicyWorkspace>();
}

void FlatListPolicy::schedule_into(const Instance& batch, PolicyWorkspace& ws,
                                   FlatPlacements& out) const {
  auto& flat_ws = static_cast<FlatListPolicyWorkspace&>(ws);
  flat_list_schedule(batch, flat_ws.list, out);
}

const void* FlatListPolicy::workspace_key() const noexcept {
  static const char kKey = 0;
  return &kKey;
}

std::uint64_t FlatListPolicy::cache_key() const noexcept {
  return 0x464C41544C495354ULL;  // "FLATLIST": stateless, one key per class
}

}  // namespace moldsched
