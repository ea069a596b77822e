/// \file gate_workloads.hpp
/// The seeded inputs of the serving and kernel gates, shared by the
/// identity tests (tests/*.cpp) and the allocation suite (tests/alloc/),
/// so a gate and its allocation twin always run on the same data, plus
/// the exact comparators the identity gates share. Sizes,
/// seeds and serving options are the `--quick` presets the gates were
/// calibrated on; docs/BENCHMARKS.md maps every gate to its test.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/policy.hpp"
#include "serve/async_scheduler.hpp"
#include "sim/online.hpp"
#include "sim/stream.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace moldsched::gate {

inline constexpr std::uint64_t kSeed = 20040627;

/// The generator family of the i-th request or job: the four families
/// cycle.
inline WorkloadFamily family(int i) {
  static const WorkloadFamily kFamilies[] = {
      WorkloadFamily::WeaklyParallel, WorkloadFamily::Cirne,
      WorkloadFamily::HighlyParallel, WorkloadFamily::Mixed};
  return kFamilies[i % 4];
}

/// `count` instances of n tasks on m processors, families cycled.
inline std::vector<Instance> family_cycle_instances(int count, int n, int m,
                                                    Rng& rng) {
  std::vector<Instance> instances;
  instances.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    instances.push_back(generate_instance(family(i), n, m, rng));
  }
  return instances;
}

// ------------------------------------------------ engine and serve one-shots

inline constexpr int kN = 60;        ///< tasks per one-shot request
inline constexpr int kM = 32;        ///< processors per one-shot request
inline constexpr int kShuffles = 8;  ///< DEMT shuffles per one-shot request
inline constexpr int kEngineRequests = 8;        ///< worker-count gate
inline constexpr int kEngineAllocRequests = 48;  ///< allocation gate
inline constexpr int kOnlineJobs = 24;           ///< jobs per on-line request

/// Off-line requests for the engine's worker-count and allocation gates,
/// plus on-line job lists (one per four requests) for the on-line
/// simulator's allocation gate.
struct EngineWorkload {
  std::vector<Instance> instances;
  std::vector<std::vector<OnlineJob>> streams;
};

inline EngineWorkload engine_workload(int requests) {
  Rng rng(kSeed);
  EngineWorkload workload;
  workload.instances = family_cycle_instances(requests, kN, kM, rng);
  workload.streams.resize(
      static_cast<std::size_t>(std::max(1, requests / 4)));
  for (auto& stream : workload.streams) {
    double clock = 0.0;
    for (int j = 0; j < kOnlineJobs; ++j) {
      Instance one = generate_instance(family(j), 1, kM, rng);
      clock += rng.uniform(0.0, 1.0);
      stream.push_back(OnlineJob{one.task(0), clock});
    }
  }
  return workload;
}

inline constexpr int kServeRequests = 24;
inline constexpr int kServeReps = 2;
inline constexpr int kServeMaxBatch = 16;
inline constexpr double kServeFlushMs = 0.5;

/// The serving gates' one-shot instances.
inline std::vector<Instance> serve_instances() {
  Rng rng(kSeed);
  return family_cycle_instances(kServeRequests, kN, kM, rng);
}

/// Two priority lanes weighted 3:1, no per-lane bound.
inline std::vector<LaneSpec> serve_lanes() {
  std::vector<LaneSpec> lanes(2);
  lanes[0].name = "lane0";
  lanes[0].weight = 3;
  lanes[1].name = "lane1";
  lanes[1].weight = 1;
  return lanes;
}

// ------------------------------------------------------ fault injection

/// A SchedulingPolicy that forwards every call to `inner`, and fails on
/// demand: it throws or sleeps when handed a chosen instance, or on its
/// Nth call. Faults reach the serving layer the way real ones do, from
/// the policy a request or stream runs: a throw fails the one request
/// whose call threw, and a sleep longer than watchdog_ms gets the
/// strand's shard declared failed. Every result that does come back is
/// the inner policy's, bit for bit, and name() is the inner policy's
/// name. Arm the faults before serving; calls may then come from any
/// number of strands.
class FaultyPolicy final : public SchedulingPolicy {
 public:
  explicit FaultyPolicy(const SchedulingPolicy& inner) : inner_(&inner) {}

  /// Throw on the next `times` calls that schedule `instance`.
  void throw_on(const Instance& instance, int times) {
    rules_.push_back(Rule{&instance, 0, times, 0.0});
  }
  /// Sleep `ms` before every call that schedules `instance`.
  void sleep_on(const Instance& instance, double ms) {
    rules_.push_back(Rule{&instance, 0, 0, ms});
  }
  /// Sleep `ms` before the `call`-th call (1-based), whatever its batch:
  /// the way to stall one stream, whose batch instances are its own.
  void sleep_on_call(int call, double ms) {
    rules_.push_back(Rule{nullptr, call, 0, ms});
  }

  /// Faults that have fired so far, throws and sleeps.
  [[nodiscard]] int fired() const noexcept {
    return fired_.load(std::memory_order_acquire);
  }
  /// Calls that have thrown so far.
  [[nodiscard]] int throws_fired() const noexcept {
    return throws_fired_.load(std::memory_order_acquire);
  }

  [[nodiscard]] const char* name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] std::unique_ptr<PolicyWorkspace> make_workspace()
      const override {
    return inner_->make_workspace();
  }
  void schedule_into(const Instance& batch, PolicyWorkspace& ws,
                     FlatPlacements& out) const override {
    bool fail = false;
    double sleep_ms = 0.0;
    {
      const std::lock_guard lock(mutex_);
      const int call = ++calls_;
      for (Rule& rule : rules_) {
        const bool hit = rule.instance != nullptr ? rule.instance == &batch
                                                  : rule.call == call;
        if (!hit) continue;
        if (rule.throws > 0) {
          --rule.throws;
          fail = true;
        } else if (rule.sleep_ms > 0.0) {
          sleep_ms += rule.sleep_ms;
        } else {
          continue;  // a spent throw
        }
        fired_.fetch_add(1, std::memory_order_release);
      }
    }
    if (fail) {
      throws_fired_.fetch_add(1, std::memory_order_release);
      throw std::runtime_error("FaultyPolicy: injected throw");
    }
    if (sleep_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms));
    }
    inner_->schedule_into(batch, ws, out);
  }

 private:
  struct Rule {
    const Instance* instance;  ///< null: match by call number instead
    int call;                  ///< 1-based call number (instance == null)
    int throws;                ///< throws left (a throw rule)
    double sleep_ms;           ///< stall per hit (a sleep rule)
  };
  const SchedulingPolicy* inner_;
  mutable std::mutex mutex_;
  mutable std::vector<Rule> rules_;  ///< guarded by mutex_ while serving
  mutable int calls_ = 0;            ///< guarded by mutex_
  mutable std::atomic<int> fired_{0};
  mutable std::atomic<int> throws_fired_{0};
};

// ------------------------------------------------- decision cache (Zipf)

inline constexpr int kZipfShapes = 16;
inline constexpr int kZipfRequests = kZipfShapes * 8;
inline constexpr double kZipfMinHitRate = 0.80;

/// A shape catalog and a Zipf(s = 1.1) request mix over it (indices into
/// the catalog), drawn by inverse CDF.
struct ZipfWorkload {
  std::vector<Instance> catalog;
  std::vector<int> mix;
};

inline ZipfWorkload zipf_workload() {
  Rng rng(kSeed ^ 0x5A495046ULL);  // "ZIPF"
  ZipfWorkload workload;
  workload.catalog = family_cycle_instances(kZipfShapes, kN, kM, rng);
  std::vector<double> cdf(kZipfShapes);
  double mass = 0.0;
  for (int k = 0; k < kZipfShapes; ++k) {
    mass += 1.0 / std::pow(static_cast<double>(k + 1), 1.1);
    cdf[static_cast<std::size_t>(k)] = mass;
  }
  for (int r = 0; r < kZipfRequests; ++r) {
    const double u = rng.uniform(0.0, mass);
    const auto shape = static_cast<int>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    workload.mix.push_back(std::min(shape, kZipfShapes - 1));
  }
  return workload;
}

// ---------------------------------------- sparse-watermark speculation

/// One feed of the speculation tape: a batch of arrivals released
/// together, with the watermark held exactly at their release.
struct SparseFeed {
  std::vector<StreamArrival> arrivals;
  double watermark = 0.0;
};

/// 6 feeds of 48 moldable arrivals, releases 10 apart: every batch is
/// decided speculatively by its own feed and confirmed by the next.
inline std::vector<SparseFeed> sparse_watermark_tape() {
  Rng rng(kSeed ^ 0x53504543ULL);  // "SPEC"
  std::vector<SparseFeed> tape(6);
  for (int b = 0; b < 6; ++b) {
    const double release = 10.0 * b;
    SparseFeed& feed = tape[static_cast<std::size_t>(b)];
    feed.watermark = release;
    for (int j = 0; j < 48; ++j) {
      Instance tmp = generate_instance(family(j), 1, kM, rng);
      feed.arrivals.push_back(moldable_arrival(tmp.task(0), release));
    }
  }
  return tape;
}

// ---------------------------------------------------- streaming (§5 mix)

inline constexpr int kStreamM = 16;
inline constexpr int kStreamMaxBatch = 8;
inline constexpr int kStreamShuffles = 4;

/// Three Poisson job lists (16 jobs, mean gap 0.8, families cycled) and
/// three one-shot Mixed instances (n = 24) to interleave with them.
struct StreamWorkload {
  std::vector<std::vector<OnlineJob>> jobs;
  std::vector<Instance> oneshots;
};

inline StreamWorkload stream_workload() {
  Rng rng(kSeed);
  StreamWorkload workload;
  for (int s = 0; s < 3; ++s) {
    std::vector<OnlineJob> jobs;
    double release = 0.0;
    for (int i = 0; i < 16; ++i) {
      Instance tmp = generate_instance(family(i), 1, kStreamM, rng);
      jobs.push_back(OnlineJob{tmp.task(0), release});
      release += rng.exponential(0.8);
    }
    workload.jobs.push_back(std::move(jobs));
  }
  for (int s = 0; s < 3; ++s) {
    workload.oneshots.push_back(
        generate_instance(WorkloadFamily::Mixed, 24, kStreamM, rng));
  }
  return workload;
}

// ------------------------------------------------------- trace replay

inline constexpr int kTraceMaxJobs = 80;  ///< mini-trace jobs replayed
inline constexpr int kTraceChunk = 8;     ///< max arrivals per feed
inline constexpr int kTraceLanes = 4;     ///< SLO lanes

// -------------------------------------------------------- comparators

/// Two flat placement sets are equal entry by entry, bit for bit.
inline void expect_identical_placements(const FlatPlacements& a,
                                        const FlatPlacements& b) {
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.proc_begin, b.proc_begin);
  EXPECT_EQ(a.proc_count, b.proc_count);
  EXPECT_EQ(a.proc_ids, b.proc_ids);
}

/// Place entry `e` at [start, start + duration) on `procs`, appended to
/// the id pool as a range of its own (the builder of hand-made cases).
inline void place(FlatPlacements& flat, int e, double start, double duration,
                  std::initializer_list<int> procs) {
  const auto i = static_cast<std::size_t>(e);
  flat.start[i] = start;
  flat.duration[i] = duration;
  flat.proc_begin[i] = static_cast<int>(flat.proc_ids.size());
  flat.proc_count[i] = static_cast<int>(procs.size());
  flat.proc_ids.insert(flat.proc_ids.end(), procs);
}

/// The processor ids of entry `e`, in order.
inline std::vector<int> entry_procs(const FlatPlacements& flat, int e) {
  const auto i = static_cast<std::size_t>(e);
  const auto begin = flat.proc_ids.begin() + flat.proc_begin[i];
  return std::vector<int>(begin, begin + flat.proc_count[i]);
}

/// Two schedules place every task alike, bit for bit: the same assigned
/// flag, start, duration and processor ids in order. Unlike
/// expect_identical_placements it ignores where the id ranges sit in the
/// pool, so a schedule whose merged stacks share one range equals its
/// one-range-per-task copy.
inline void expect_same_entries(const FlatPlacements& a,
                                const FlatPlacements& b) {
  ASSERT_EQ(a.size(), b.size());
  for (int e = 0; e < a.size(); ++e) {
    const auto i = static_cast<std::size_t>(e);
    ASSERT_EQ(a.assigned(e), b.assigned(e)) << "task " << e;
    if (!a.assigned(e)) continue;
    EXPECT_EQ(a.start[i], b.start[i]) << "task " << e;
    EXPECT_EQ(a.duration[i], b.duration[i]) << "task " << e;
    EXPECT_EQ(entry_procs(a, e), entry_procs(b, e)) << "task " << e;
  }
}

// ------------------------------------------------------------ runners

/// The batch framework on `policy` with fresh workspaces: the one-call
/// form of online_batch_schedule_into.
inline FlatOnlineResult run_online(
    int m, const std::vector<OnlineJob>& jobs, const SchedulingPolicy& policy,
    const std::vector<NodeReservation>& reservations = {}) {
  const auto policy_ws = policy.make_workspace();
  OnlineWorkspace ws;
  FlatOnlineResult out;
  online_batch_schedule_into(m, jobs, policy, *policy_ws, reservations, ws,
                             out);
  return out;
}

// -------------------------------------------------------- stream replays

/// Every placement, completion, batch boundary and metric of a stream
/// reassembled from its deliveries (in order, the last one final) equals
/// the off-line reference on its `num_jobs` jobs. `OnlineResult` is the
/// oracle's result type (tests/reference/online_reference.hpp), a template
/// parameter so the allocation suite, which links no oracle, can share
/// this header.
template <typename OnlineResult>
void expect_replays_reference(const std::vector<StreamDelivery>& deliveries,
                              const OnlineResult& reference,
                              std::size_t num_jobs) {
  std::size_t job = 0;
  std::vector<double> batch_starts;
  for (const StreamDelivery& delivery : deliveries) {
    ASSERT_EQ(delivery.first_job, static_cast<int>(job));
    for (int e = 0; e < delivery.num_jobs(); ++e, ++job) {
      const auto entry = static_cast<std::size_t>(e);
      const FlatPlacements& got = delivery.placements;
      const auto& p = reference.schedule.placement(static_cast<int>(job));
      EXPECT_EQ(got.start[entry], p.start) << "job " << job;
      EXPECT_EQ(got.duration[entry], p.duration);
      EXPECT_EQ(entry_procs(got, e), p.procs) << "job " << job;
      EXPECT_EQ(delivery.completion[entry], reference.completion[job]);
    }
    batch_starts.insert(batch_starts.end(), delivery.batch_starts.begin(),
                        delivery.batch_starts.end());
  }
  EXPECT_EQ(job, num_jobs);
  EXPECT_EQ(batch_starts, reference.batch_starts);
  const StreamDelivery& last = deliveries.back();
  EXPECT_TRUE(last.final_delivery);
  EXPECT_EQ(last.cmax, reference.cmax);
  EXPECT_EQ(last.weighted_completion_sum, reference.weighted_completion_sum);
  EXPECT_EQ(last.weighted_flow_sum, reference.weighted_flow_sum);
  EXPECT_EQ(last.num_batches, reference.num_batches);
}

}  // namespace moldsched::gate
