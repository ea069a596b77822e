/// \file stream_server.cpp
/// Server-style use of the streaming online path (paper §5 job mix as a
/// live workload): several clients drive open-loop Poisson arrival
/// processes of moldable, rigid, and divisible jobs; each client owns one
/// stream pinned to a shard, feeds arrivals in watermark windows as its
/// simulated clock advances, and retires batch decisions as they are
/// delivered — in order, per stream — while one-shot batch requests share
/// the same scheduler. Reported at the end: arrival throughput, decision
/// latency, per-kind job counts, mean flow time, and the divisible filler
/// utilisation of the idle holes.
///
/// With `--trace <file>` the clients replay a real SWF cluster log
/// instead: the log is compiled into a release-ordered tape
/// (docs/TRACES.md) and dealt round-robin across the streams, so every
/// client drives a release-ordered subsequence of the real arrival
/// process.
///
///   ./stream_server [--streams 4] [--arrivals 120] [--m 32]
///                   [--shards 2] [--gap 0.5] [--window 2.0]
///                   [--algorithm flatlist|demt] [--seed 1]
///                   [--trace log.swf] [--scale X] [--moldable]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "serve/async_scheduler.hpp"
#include "trace/tape.hpp"
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
        "stream_server -- open-loop Poisson job-mix streams through the "
        "async serving layer\n\n"
        "  --streams K    concurrent client streams          [4]\n"
        "  --arrivals N   arrivals per stream                [120]\n"
        "  --m N          processors per stream machine      [32]\n"
        "  --shards K     engine shards                      [2]\n"
        "  --gap X        mean inter-arrival gap (Poisson)   [0.5]\n"
        "  --window X     watermark window per feed          [2.0]\n"
        "  --algorithm A  flatlist | demt                    [flatlist]\n"
        "  --seed S       RNG seed                           [1]\n"
        "  --trace F      replay an SWF log instead of the Poisson mix\n"
        "                 (dealt round-robin across the streams)\n"
        "  --scale X      trace clock compression (time_scale)  [1.0]\n"
        "  --moldable     compile trace jobs as moldable Downey tasks\n"
        "Streaming lifecycle and contracts: docs/ONLINE.md; trace\n"
        "format and scaling knobs: docs/TRACES.md; measured numbers:\n"
        "perfbench/ (the repository benchmark).\n");
    return 0;
  }
  const int num_streams = static_cast<int>(args.get_int("streams", 4));
  const int num_arrivals = static_cast<int>(args.get_int("arrivals", 120));
  const std::string trace_path = args.get_string("trace", "");
  int m = static_cast<int>(args.get_int("m", trace_path.empty() ? 32 : 0));
  const double mean_gap = args.get_double("gap", 0.5);
  const std::string algorithm_name = args.get_string("algorithm", "flatlist");
  const DemtPolicy demt_policy;
  const FlatListPolicy flat_policy;
  AsyncOptions options;
  options.shards = static_cast<int>(args.get_int("shards", 2));
  options.max_streams = std::max(8, num_streams);
  AsyncScheduler server(options);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));

  // With --trace, compile the SWF log into a release-ordered tape
  // (docs/TRACES.md) before sizing the streams; the tape resolves the
  // machine from the log's MaxProcs header unless --m overrides it.
  Tape log_tape;
  if (!trace_path.empty()) {
    SwfTrace swf;
    load_swf_file(trace_path, swf);
    TapeOptions tape_options;
    tape_options.m = m;
    tape_options.time_scale = args.get_double("scale", 1.0);
    tape_options.moldable = args.has("moldable");
    compile_tape(swf, tape_options, log_tape);
    m = log_tape.m;
  }
  // Default watermark window: ~100 feed rounds over the trace's span.
  const double window = args.get_double(
      "window", trace_path.empty() ? 2.0
                                   : std::max(log_tape.span / 100.0, 1e-9));

  // One arrival tape per client: an open-loop Poisson process over the
  // §5 mix — mostly moldable, some rigid, some divisible filler — or,
  // with --trace, a round-robin deal of the compiled log (every client's
  // tape is a release-ordered subsequence of the real arrival process).
  struct Client {
    StreamTicket stream;
    std::vector<StreamArrival> tape;
    std::size_t fed = 0;        ///< arrivals already submitted
    double clock = 0.0;         ///< simulated wall clock == watermark
    std::vector<Ticket> feeds;  ///< outstanding feed tickets, in order
    int moldable = 0, rigid = 0, divisible = 0;
  };
  std::vector<Client> clients(static_cast<std::size_t>(num_streams));
  StreamConfig stream_config;
  stream_config.m = m;
  stream_config.policy =
      algorithm_name == "demt"
          ? static_cast<const SchedulingPolicy*>(&demt_policy)
          : &flat_policy;
  if (!trace_path.empty()) {
    for (std::size_t i = 0; i < log_tape.arrivals.size(); ++i) {
      Client& client = clients[i % clients.size()];
      const StreamArrival& arrival = log_tape.arrivals[i];
      client.tape.push_back(arrival);
      if (arrival.task.min_procs() == arrival.task.max_procs()) {
        ++client.rigid;
      } else {
        ++client.moldable;
      }
    }
    for (auto& client : clients) {
      client.stream = server.open_stream(stream_config);
    }
  } else {
    for (auto& client : clients) {
      double release = 0.0;
      for (int i = 0; i < num_arrivals; ++i) {
        const double pick = rng.uniform();
        if (pick < 0.70) {
          Instance tmp = generate_instance(WorkloadFamily::Mixed, 1, m, rng);
          client.tape.push_back(moldable_arrival(tmp.task(0), release));
          ++client.moldable;
        } else if (pick < 0.85) {
          client.tape.push_back(rigid_arrival(
              static_cast<int>(rng.uniform_int(1, std::max(1, m / 4))),
              rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0), release));
          ++client.rigid;
        } else {
          client.tape.push_back(divisible_arrival(
              rng.uniform(2.0, 10.0), rng.uniform(0.5, 2.0), release));
          ++client.divisible;
        }
        release += rng.exponential(mean_gap);
      }
      client.stream = server.open_stream(stream_config);
    }
  }
  int total_arrivals = 0;
  for (const auto& client : clients) {
    total_arrivals += static_cast<int>(client.tape.size());
  }

  if (trace_path.empty()) {
    std::printf(
        "stream_server: %d streams x %d arrivals (m=%d), %s, %d shards, "
        "gap=%.2f, window=%.2f, pool=%zu workers\n\n",
        num_streams, num_arrivals, m, algorithm_name.c_str(), options.shards,
        mean_gap, window, shared_thread_pool().size());
  } else {
    std::printf(
        "stream_server: replaying %s (%lld/%lld usable jobs, span %.0f) "
        "over %d streams (m=%d), %s, %d shards, window=%.2f, pool=%zu "
        "workers\n\n",
        trace_path.c_str(), static_cast<long long>(log_tape.jobs_kept()),
        static_cast<long long>(log_tape.jobs_in_trace), log_tape.span,
        num_streams, m, algorithm_name.c_str(), options.shards, window,
        shared_thread_pool().size());
  }

  RunningStats latency_ms;
  RunningStats flow;
  double divisible_work_placed = 0.0;
  int decided_jobs = 0, batches = 0, divisible_done = 0;
  StreamDelivery delivery;

  // Retire finished feed tickets in per-stream order (ordered delivery:
  // a later feed never completes before an earlier one on the same
  // stream, so draining from the front is enough).
  const auto reap = [&](Client& client) {
    std::size_t taken = 0;
    for (const Ticket& ticket : client.feeds) {
      const TicketStatus status = server.poll(ticket);
      if (status != TicketStatus::Done && status != TicketStatus::Failed) {
        break;
      }
      latency_ms.add(server.latency_seconds(ticket) * 1e3);
      if (server.take_stream(ticket, delivery)) {
        decided_jobs += delivery.num_jobs();
        batches = delivery.num_batches;
        divisible_done += static_cast<int>(delivery.divisible_done.size());
        for (int e = 0; e < delivery.num_jobs(); ++e) {
          // Flow of a decided job: completion minus release; the release
          // is not in the delivery, so approximate with the batch window
          // start (exact per-job flow comes from the result_ accessor at
          // engine level; the server keeps it simple).
          flow.add(delivery.completion[static_cast<std::size_t>(e)] -
                   delivery.placements.start[static_cast<std::size_t>(e)]);
        }
        for (const auto& chunk : delivery.chunks) {
          divisible_work_placed += chunk.duration;
        }
      }
      ++taken;
    }
    client.feeds.erase(client.feeds.begin(),
                       client.feeds.begin() + static_cast<std::ptrdiff_t>(taken));
  };

  // A rejected feed means the slot table is full: apply backpressure —
  // retire the client's oldest outstanding feed, then retry. Arrivals are
  // only marked fed once their feed is accepted (never dropped silently).
  int backpressure_stalls = 0;
  const auto submit_with_backpressure =
      [&](Client& client, std::size_t end) -> Ticket {
    for (;;) {
      const Ticket ticket = server.submit_stream(
          client.stream, client.tape.data() + client.fed,
          end - client.fed, client.clock);
      if (ticket.accepted()) return ticket;
      ++backpressure_stalls;
      if (!client.feeds.empty()) {
        (void)server.wait(client.feeds.front());
        reap(client);
      } else {
        // The slots are held by other clients: retire their finished
        // feeds so admission can reopen.
        for (auto& other : clients) reap(other);
      }
    }
  };

  WallTimer timer;
  bool feeding = true;
  while (feeding) {
    feeding = false;
    for (auto& client : clients) {
      if (client.fed >= client.tape.size()) continue;
      feeding = true;
      // Advance the client's simulated clock one watermark window and
      // feed every arrival it covers.
      client.clock += window;
      std::size_t end = client.fed;
      while (end < client.tape.size() &&
             client.tape[end].release <= client.clock) {
        ++end;
      }
      client.feeds.push_back(submit_with_backpressure(client, end));
      client.fed = end;
      reap(client);
    }
  }
  for (auto& client : clients) {
    for (;;) {
      const Ticket close = server.close_stream(client.stream);
      if (close.accepted()) {
        client.feeds.push_back(close);
        break;
      }
      ++backpressure_stalls;  // slot table full: retire finished feeds
      if (!client.feeds.empty()) {
        (void)server.wait(client.feeds.front());
        reap(client);
      } else {
        for (auto& other : clients) reap(other);
      }
    }
  }
  server.drain();
  for (auto& client : clients) reap(client);
  const double elapsed = timer.seconds();

  const AsyncStats stats = server.stats();
  int moldable = 0, rigid = 0, divisible = 0;
  for (const auto& client : clients) {
    moldable += client.moldable;
    rigid += client.rigid;
    divisible += client.divisible;
  }
  std::printf(
      "served %d arrivals (%d moldable, %d rigid, %d divisible) in "
      "%.2f ms: %.1f arrivals/s\n",
      total_arrivals, moldable, rigid, divisible, elapsed * 1e3,
      static_cast<double>(total_arrivals) / elapsed);
  std::printf(
      "decisions: %d batch jobs in ~%d batches/stream; feed latency ms "
      "mean %.3f [%.3f, %.3f]\n",
      decided_jobs, batches, latency_ms.mean(), latency_ms.min(),
      latency_ms.max());
  std::printf(
      "divisible filler: %d jobs completed, %.1f proc-time units poured "
      "into idle holes\n",
      divisible_done, divisible_work_placed);
  std::printf(
      "mean in-batch wait+run %.2f; streams %llu opened / %llu closed, "
      "%llu feeds, %llu engine batches, %d backpressure stalls\n",
      flow.mean(), static_cast<unsigned long long>(stats.streams_opened),
      static_cast<unsigned long long>(stats.streams_closed),
      static_cast<unsigned long long>(stats.stream_feeds),
      static_cast<unsigned long long>(stats.batches), backpressure_stalls);
  return 0;
}
