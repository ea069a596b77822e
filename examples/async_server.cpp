/// \file async_server.cpp
/// Server-style use of the async submit/poll layer: requests arrive one by
/// one (an open-loop arrival stream, not pre-assembled batches), each
/// submit returns a Ticket immediately, the scheduler coalesces them into
/// engine batches behind the caller's back, and a completion loop polls
/// tickets and retires results as they finish — including explicit
/// Rejected handling when the arrival rate overruns the admission bound.
///
/// The server runs two priority lanes (AsyncOptions::lanes): an
/// "interactive" lane (weight 3) serving the cheap FlatListPolicy and a
/// "batch" lane (weight 1, its own small in-flight bound) serving the full
/// DemtPolicy — the weighted-fair pop keeps interactive latency low while
/// batch work streams through, and the per-lane bound keeps slow batch
/// requests from monopolising the slot table.
///
///   ./async_server [--requests 200] [--n 40] [--m 32] [--shards 2]
///                  [--max-batch 16] [--flush-ms 0.5] [--capacity 32]
///                  [--batch-every N] [--seed 1]

#include <cstdio>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "serve/async_scheduler.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "workloads/generators.hpp"

int main(int argc, char** argv) {
  using namespace moldsched;
  const ArgParser args(argc, argv);
  if (args.help_requested()) {
    std::printf(
        "async_server -- open-loop request stream through the async "
        "submit/poll serving layer,\nserved on two priority lanes "
        "(interactive flatlist, weight 3; batch demt, weight 1)\n\n"
        "  --requests N    requests to stream               [200]\n"
        "  --n N           tasks per instance               [40]\n"
        "  --m N           processors per instance          [32]\n"
        "  --shards K      engine shards                    [2]\n"
        "  --max-batch N   coalescing batch bound           [16]\n"
        "  --flush-ms X    deadline flush in ms             [0.5]\n"
        "  --capacity N    admission bound (small on purpose:\n"
        "                  overload shows Rejected tickets) [32]\n"
        "  --batch-every N every Nth request rides the batch\n"
        "                  (demt) lane                      [4]\n"
        "  --seed S        RNG seed                         [1]\n"
        "Architecture and contracts: docs/SERVING.md; measured numbers:\n"
        "perfbench/ (the repository benchmark).\n");
    return 0;
  }
  const int num_requests = static_cast<int>(args.get_int("requests", 200));
  const int n = static_cast<int>(args.get_int("n", 40));
  const int m = static_cast<int>(args.get_int("m", 32));
  const int batch_every =
      std::max(1, static_cast<int>(args.get_int("batch-every", 4)));

  // Two priority lanes: interactive work is served 3x as often as batch
  // work when both are backlogged, and the batch lane's own in-flight
  // bound keeps the slow requests from hogging the slot table.
  LaneSpec interactive;
  interactive.name = "interactive";
  interactive.weight = 3;
  LaneSpec batch;
  batch.name = "batch";
  batch.weight = 1;
  batch.queue_capacity = 8;
  constexpr int kInteractiveLane = 0;
  constexpr int kBatchLane = 1;

  DemtOptions demt_options;
  const DemtPolicy demt_policy(demt_options);
  const FlatListPolicy flat_policy;

  AsyncOptions options;
  options.shards = static_cast<int>(args.get_int("shards", 2));
  options.max_batch = static_cast<int>(args.get_int("max-batch", 16));
  options.flush_after_ms = args.get_double("flush-ms", 0.5);
  options.queue_capacity = static_cast<int>(args.get_int("capacity", 32));
  options.keep_schedules = false;  // metrics-only serving
  options.lanes = {interactive, batch};
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));

  const std::vector<WorkloadFamily> families = {
      WorkloadFamily::WeaklyParallel, WorkloadFamily::Cirne,
      WorkloadFamily::HighlyParallel, WorkloadFamily::Mixed};
  std::vector<Instance> instances;
  instances.reserve(static_cast<std::size_t>(num_requests));
  for (int i = 0; i < num_requests; ++i) {
    instances.push_back(generate_instance(
        families[static_cast<std::size_t>(i) % families.size()], n, m, rng));
  }

  std::printf(
      "async_server: %d requests (n=%d, m=%d), every %dth on the batch "
      "lane, %d shards,\nmax_batch=%d, flush=%.2fms, capacity=%d, pool=%zu "
      "workers\n\n",
      num_requests, n, m, batch_every, options.shards, options.max_batch,
      options.flush_after_ms, options.queue_capacity,
      shared_thread_pool().size());

  AsyncScheduler server(options);
  std::vector<std::pair<int, Ticket>> outstanding;
  RunningStats lane_latency_ms[2];
  RunningStats cmax_stats;
  int rejected = 0;
  int completed = 0;
  EngineResult result;

  // Retire every finished ticket without blocking; frees admission slots.
  const auto reap = [&] {
    std::size_t kept = 0;
    for (auto& entry : outstanding) {
      const TicketStatus status = server.poll(entry.second);
      if (status == TicketStatus::Done || status == TicketStatus::Failed) {
        lane_latency_ms[entry.second.lane].add(
            server.latency_seconds(entry.second) * 1e3);
        (void)server.take(entry.second, result);
        if (status == TicketStatus::Done) cmax_stats.add(result.cmax);
        ++completed;
      } else {
        outstanding[kept++] = entry;
      }
    }
    outstanding.resize(kept);
  };

  WallTimer timer;
  for (int i = 0; i < num_requests; ++i) {
    // Every batch_every-th request is heavy DEMT work on the batch lane;
    // the rest are interactive FlatList requests.
    const bool heavy = i % batch_every == batch_every - 1;
    EngineRequest request;
    request.instance = &instances[static_cast<std::size_t>(i)];
    request.policy = heavy
                         ? static_cast<const SchedulingPolicy*>(&demt_policy)
                         : &flat_policy;
    const int lane = heavy ? kBatchLane : kInteractiveLane;
    Ticket ticket = server.submit(request, lane);
    if (!ticket.accepted()) {
      // Overloaded (global table or the lane's own bound): an
      // admission-bounded server says no instead of queueing without bound
      // (a real front-end would return 429). This client applies
      // backpressure — block on the oldest outstanding ticket, retire
      // finished work, then retry once.
      ++rejected;
      if (!outstanding.empty()) {
        (void)server.wait(outstanding.front().second);
        reap();
      }
      ticket = server.submit(request, lane);
      if (!ticket.accepted()) continue;  // still saturated: drop
    }
    outstanding.emplace_back(i, ticket);
    if (outstanding.size() >= static_cast<std::size_t>(options.queue_capacity) / 2) {
      reap();
    }
  }
  server.drain();
  reap();
  const double elapsed = timer.seconds();

  const AsyncStats stats = server.stats();
  std::printf("streamed %d requests in %.2f ms: %d served, %d rejected "
              "(admission bound %d)\n",
              num_requests, elapsed * 1e3, completed, rejected,
              options.queue_capacity);
  std::printf("throughput %.1f req/s\n",
              static_cast<double>(completed) / elapsed);
  for (int l = 0; l < server.num_lanes(); ++l) {
    const LaneStats& lane = stats.lanes[static_cast<std::size_t>(l)];
    std::printf(
        "lane %-12s (weight %d): %llu served, %llu rejected; latency ms "
        "mean %.3f [%.3f, %.3f]\n",
        lane.name.c_str(), server.lane_spec(l).weight,
        static_cast<unsigned long long>(lane.completed),
        static_cast<unsigned long long>(lane.rejected),
        lane_latency_ms[l].mean(), lane_latency_ms[l].min(),
        lane_latency_ms[l].max());
  }
  std::printf("batches %llu (size-flush %llu, deadline-flush %llu, forced "
              "%llu); mean batch %.1f requests\n",
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.size_flushes),
              static_cast<unsigned long long>(stats.deadline_flushes),
              static_cast<unsigned long long>(stats.forced_flushes),
              stats.batches > 0
                  ? static_cast<double>(stats.completed + stats.failed) /
                        static_cast<double>(stats.batches)
                  : 0.0);
  std::printf("schedule quality: mean cmax %.2f over served requests\n",
              cmax_stats.mean());
  return 0;
}
