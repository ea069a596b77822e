#include "baselines/lpt_policy.hpp"

#include <algorithm>

namespace moldsched {

namespace {

struct LptRigidWorkspace final : PolicyWorkspace {
  ListPassWorkspace list;
};

}  // namespace

std::unique_ptr<PolicyWorkspace> LptRigidPolicy::make_workspace() const {
  return std::make_unique<LptRigidWorkspace>();
}

void LptRigidPolicy::schedule_into(const Instance& batch, PolicyWorkspace& ws,
                                   FlatPlacements& out) const {
  auto& lpt_ws = static_cast<LptRigidWorkspace&>(ws);
  ListPassWorkspace& list = lpt_ws.list;
  fill_min_work_jobs(batch, list);
  // Longest duration first; task id pins ties so the schedule is a pure
  // function of the instance.
  std::sort(list.jobs.begin(), list.jobs.end(),
            [](const ListJob& a, const ListJob& b) {
              if (a.duration != b.duration) return a.duration > b.duration;
              return a.task < b.task;
            });
  list_schedule_into(batch.procs(), batch.num_tasks(), list, out);
}

const void* LptRigidPolicy::workspace_key() const noexcept {
  static const char kKey = 0;
  return &kKey;
}

std::uint64_t LptRigidPolicy::cache_key() const noexcept {
  return 0x4C50545249474944ULL;  // "LPTRIGID": stateless, one key per class
}

}  // namespace moldsched
