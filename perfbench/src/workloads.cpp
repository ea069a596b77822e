#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "dualapprox/cmax_estimator.hpp"
#include "dualapprox/dual_test.hpp"
#include "engine/engine.hpp"
#include "sim/online.hpp"
#include "sim/stream.hpp"
#include "tasks/allotment_table.hpp"
#include "trace/swf.hpp"
#include "trace/swf_write.hpp"
#include "trace/tape.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace perfbench {

using namespace moldsched;

namespace {

/// Far enough out that the deadline flush never fires during a run.
constexpr double kNoDeadlineFlushMs = 1e9;
/// The traced run stops starting rounds once this many spans are held.
constexpr std::size_t kMaxSpans = std::size_t{1} << 21;

AsyncOptions system_options(DecisionCache& cache) {
  AsyncOptions options;
  options.shards = 1;
  options.flush_after_ms = kNoDeadlineFlushMs;
  options.keep_schedules = false;
  options.cache = &cache;
  return options;
}

/// Independent, seed-determined random stream `id` of a run.
Rng stream_rng(std::uint64_t seed, std::uint64_t id) {
  SplitMix64 mix(seed ^ (0x9E3779B97F4A7C15ULL * (id + 1)));
  return Rng(mix.next());
}

/// `per_second` rounds per second of run, and at least `floor` rounds.
int scaled_rounds(double seconds, double per_second, int floor) {
  return std::max(floor, static_cast<int>(std::lround(seconds * per_second)));
}

double ms_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-6;
}

/// The traced run runs at least two rounds, then rounds until about
/// `seconds` have passed since `start` or the span buffer is large.
bool more_traced_rounds(int round, std::int64_t start, double seconds,
                        const Tracer& tracer) {
  return round < 2 ||
         (ms_since(start) < seconds * 1e3 && tracer.size() < kMaxSpans);
}

/// Counts gathered by the traced run's direct replays. `untraced_s` and
/// `traced_s` total the same work run without and with spans: the serving
/// pass and every direct replay.
struct LayerCounts {
  std::int64_t demt_calls = 0;
  std::int64_t dual_tests = 0;
  std::int64_t demt_batches = 0;
  std::int64_t shuffles_accepted = 0;
  std::int64_t shuffles_attempted = 0;
  std::int64_t requests = 0;  ///< one-shot requests replayed
  std::int64_t feeds = 0;     ///< stream feeds and closes replayed
  std::int64_t replays = 0;   ///< whole-tape stream replays
  std::int64_t spec_decided = 0;
  std::int64_t spec_committed = 0;
  std::int64_t spec_rolled_back = 0;
  std::int64_t decisions = 0;  ///< stream batch decisions
  std::int64_t decision_jobs = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_evictions = 0;
  double untraced_s = 0.0;
  double traced_s = 0.0;
};

/// Scratch for running one DEMT call layer by layer.
struct LayerScratch {
  InstanceAllotments tables;
  DualTestWorkspace dual;
  CmaxEstimate estimate;
  DualTestResult probe;
  DemtWorkspace demt;
  FlatPlacements flat;
  DemtDiagnostics diag;
  SignatureScratch signature;
  FlatPlacements replay;
  DemtDiagnostics replay_diag;
};

/// Time each layer of one DEMT call on `instance` through its public
/// entry point: allotment tables, the Cmax search, two dual tests (at the
/// accepted estimate and at the refuted bound), and the whole call. With
/// a null `tracer` and `counts` the same calls run unobserved.
void decompose_demt(const Instance& instance, const DemtOptions& options,
                    LayerScratch& s, Tracer* tracer, LayerCounts* counts) {
  {
    const Scope span(tracer, "tasks.allotments_build");
    s.tables.build(instance);
  }
  {
    const Scope span(tracer, "dualapprox.estimate_cmax_into");
    estimate_cmax_into(instance, options.dual_eps, s.tables, s.dual,
                       s.estimate);
  }
  for (const double lambda : {s.estimate.estimate, s.estimate.lower_bound}) {
    const Scope span(tracer, "dualapprox.dual_test_into");
    dual_test_into(instance, lambda, s.tables, s.dual, s.probe);
  }
  {
    const Scope span(tracer, "core.demt_schedule_into");
    demt_schedule_into(instance, options, s.demt, s.flat, s.diag);
  }
  if (counts == nullptr) return;
  ++counts->demt_calls;
  counts->dual_tests += s.estimate.dual_tests;
  counts->demt_batches += s.diag.num_batches;
  counts->shuffles_accepted += s.diag.shuffle_improvements;
  counts->shuffles_attempted += options.shuffles;
}

/// One direct path of the traced run: an engine with its own cache, a
/// shadow cache for the per-layer calls, and the DEMT scratch.
struct DirectPath {
  DecisionCache engine_cache;
  DecisionCache shadow;
  SchedulerEngine engine{EngineOptions{1, false, &engine_cache}};
  LayerScratch scratch;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Every per-layer metric, derived from the spans and counts; a layer the
/// workload never reaches reports 0.
std::vector<Metric> layer_metrics(const Tracer& tracer,
                                  const LayerCounts& c) {
  const SpanTotals allot = tracer.totals("tasks.allotments_build");
  const SpanTotals estimate = tracer.totals("dualapprox.estimate_cmax_into");
  const SpanTotals dual = tracer.totals("dualapprox.dual_test_into");
  const SpanTotals demt = tracer.totals("core.demt_schedule_into");
  const SpanTotals sig = tracer.totals("core.cache.canonical_signature");
  const SpanTotals lookup = tracer.totals("core.cache.lookup");
  const SpanTotals insert = tracer.totals("core.cache.insert");
  const SpanTotals engine = tracer.totals("engine.schedule_batch_into");
  const SpanTotals submit = tracer.totals("serve.submit");
  const SpanTotals take = tracer.totals("serve.take");
  const SpanTotals generation = tracer.totals("serve.generation");
  const SpanTotals feed = tracer.totals("sim.feed");
  const SpanTotals finish = tracer.totals("sim.finish");
  const SpanTotals policy = tracer.totals("sim.policy");
  const SpanTotals parse = tracer.totals("trace.parse_swf");
  const SpanTotals compile = tracer.totals("trace.compile_tape");

  const double cache_ms = sig.total_ms + lookup.total_ms + insert.total_ms;
  const double demt_self =
      demt.count > 0 ? demt.mean_ms() - estimate.mean_ms() - allot.mean_ms()
                     : 0.0;
  const double engine_self =
      engine.count > 0
          ? (engine.self_ms - cache_ms) / static_cast<double>(engine.count)
          : 0.0;
  const double serve_self =
      c.requests > 0 ? (generation.total_ms - engine.total_ms) /
                           static_cast<double>(c.requests)
                     : 0.0;
  const double stream_self =
      c.feeds > 0 ? (generation.total_ms - feed.total_ms - finish.total_ms) /
                        static_cast<double>(c.feeds)
                  : 0.0;
  const auto per = [](double total, std::int64_t n) {
    return n > 0 ? total / static_cast<double>(n) : 0.0;
  };
  return {
      {"dualapprox.estimate_ms", estimate.mean_ms(), "ms"},
      {"dualapprox.dual_test_us", dual.mean_ms() * 1e3, "us"},
      {"dualapprox.dual_tests",
       per(static_cast<double>(c.dual_tests), c.demt_calls), "count/call"},
      {"tasks.allotments_us", allot.mean_ms() * 1e3, "us"},
      {"core.demt.call_ms", demt.mean_ms(), "ms"},
      {"core.demt.self_ms", demt_self, "ms"},
      {"core.demt.batches",
       per(static_cast<double>(c.demt_batches), c.demt_calls), "count/call"},
      {"core.demt.shuffle_accept_ratio",
       ratio(static_cast<double>(c.shuffles_accepted),
             static_cast<double>(c.shuffles_attempted)),
       "ratio"},
      {"core.cache.signature_us", sig.mean_ms() * 1e3, "us"},
      {"core.cache.lookup_us", lookup.mean_ms() * 1e3, "us"},
      {"core.cache.insert_us", insert.mean_ms() * 1e3, "us"},
      {"core.cache.hit_ratio",
       ratio(static_cast<double>(c.cache_hits),
             static_cast<double>(c.cache_lookups)),
       "ratio"},
      {"core.cache.evictions", static_cast<double>(c.cache_evictions),
       "count"},
      {"engine.batch_ms", engine.mean_ms(), "ms"},
      {"engine.self_ms", engine_self, "ms"},
      {"serve.submit_us", submit.mean_ms() * 1e3, "us"},
      {"serve.take_us", take.mean_ms() * 1e3, "us"},
      {"serve.self_ms", serve_self, "ms"},
      {"serve.stream_self_ms", stream_self, "ms"},
      {"sim.feed_p50_ms", quantile(feed.durations_ms, 0.50), "ms"},
      {"sim.feed_p99_ms", quantile(feed.durations_ms, 0.99), "ms"},
      {"sim.policy_ms", policy.mean_ms(), "ms"},
      {"sim.batch_jobs",
       per(static_cast<double>(c.decision_jobs), c.decisions),
       "count/decision"},
      {"sim.spec_commit_ratio",
       ratio(static_cast<double>(c.spec_committed),
             static_cast<double>(c.spec_decided)),
       "ratio"},
      {"sim.rollbacks", per(static_cast<double>(c.spec_rolled_back),
                            c.replays),
       "count/replay"},
      {"trace.parse_ms", parse.mean_ms(), "ms"},
      {"trace.compile_ms", compile.mean_ms(), "ms"},
      {"bench.untraced_wall_s", c.untraced_s, "s"},
      {"bench.traced_wall_s", c.traced_s, "s"},
      {"bench.trace_overhead", ratio(c.traced_s, c.untraced_s), "ratio"},
  };
}

bool same_result(const EngineResult& a, const EngineResult& b) {
  return a.cmax == b.cmax &&
         a.weighted_completion_sum == b.weighted_completion_sum &&
         a.diag.cmax_estimate == b.diag.cmax_estimate &&
         a.diag.cmax_lower_bound == b.diag.cmax_lower_bound &&
         a.diag.num_batches == b.diag.num_batches &&
         a.diag.dual_tests == b.diag.dual_tests &&
         a.diag.shuffle_improvements == b.diag.shuffle_improvements;
}

// ------------------------------------------------------------ one-shot

/// Shared closed loop of the one-shot workloads: one client keeps
/// `outstanding` requests in flight as one explicitly flushed batch,
/// waits for every result, then sends the next batch.
class OneShotWorkload : public Workload {
 public:
  explicit OneShotWorkload(int outstanding)
      : outstanding_(outstanding),
        tickets_(static_cast<std::size_t>(outstanding)),
        sent_(static_cast<std::size_t>(outstanding)) {}

  std::int64_t serve_round(System& system, RoundSamples* samples,
                           Tally& tally, Tracer* tracer) override {
    return serve(system, requests_, samples, tally, tracer);
  }

  std::vector<Metric> trace_layers(System& system, Tracer& tracer,
                                   double seconds, Tally& tally) override;

 protected:
  /// Serve `requests` through the closed loop, results into results_.
  std::int64_t serve(System& system,
                     const std::vector<const Instance*>& requests,
                     RoundSamples* samples, Tally& tally, Tracer* tracer);
  /// Count rejected/Failed requests of the last serve (failed_ flags).
  void count_failures(Tally& tally, const char* what);
  /// Called between the untraced and traced pass over one round's inputs.
  virtual void between_passes(System& /*system*/) {}
  /// The requests the set-up warm-up serves.
  [[nodiscard]] virtual const std::vector<const Instance*>& warmup() const = 0;

  std::vector<const Instance*> requests_;
  std::vector<EngineResult> results_;
  std::vector<std::uint8_t> failed_;

 private:
  /// Replay `requests` batch by batch directly through an engine, the
  /// cache and each DEMT layer, as the serving path runs them; spans go
  /// to `tracer` and counts to `counts` when they are non-null. Outputs
  /// of the direct engine must equal the served results_.
  void replay_direct(const std::vector<const Instance*>& requests,
                     const DemtOptions& options, DirectPath& path,
                     const TimedPolicy& policy, Tracer* tracer,
                     LayerCounts* counts, Tally* tally);

  int outstanding_;
  std::vector<Ticket> tickets_;
  std::vector<std::int64_t> sent_;
};

std::int64_t OneShotWorkload::serve(
    System& system, const std::vector<const Instance*>& requests,
    RoundSamples* samples, Tally& tally, Tracer* tracer) {
  const std::size_t n = requests.size();
  results_.resize(n);
  failed_.assign(n, 0);
  EngineRequest request;
  request.policy = &system.policy;
  std::int64_t placed = 0;
  for (std::size_t g = 0; g < n; g += static_cast<std::size_t>(outstanding_)) {
    const std::size_t count =
        std::min(n - g, static_cast<std::size_t>(outstanding_));
    const Scope generation(tracer, "serve.generation");
    for (std::size_t i = 0; i < count; ++i) {
      request.instance = requests[g + i];
      sent_[i] = now_ns();
      const Scope span(tracer, "serve.submit");
      tickets_[i] = system.async.submit(request);
    }
    system.async.flush();
    for (std::size_t i = 0; i < count; ++i) {
      const Ticket& ticket = tickets_[i];
      bool done = false;
      if (ticket.accepted() &&
          system.async.wait(ticket) == TicketStatus::Done) {
        const Scope span(tracer, "serve.take");
        done = system.async.take(ticket, results_[g + i]);
      } else if (ticket.accepted()) {
        (void)system.async.take(ticket, results_[g + i]);  // frees the slot
      }
      if (samples) samples->latency_ms.push_back(ms_since(sent_[i]));
      if (done) {
        placed += requests[g + i]->num_tasks();
      } else {
        failed_[g + i] = 1;
      }
    }
    if (samples) samples->group_ms.push_back(ms_since(sent_[0]));
  }
  tally.attempted += static_cast<std::int64_t>(n);
  return placed;
}

void OneShotWorkload::count_failures(Tally& tally, const char* what) {
  for (std::size_t i = 0; i < failed_.size(); ++i) {
    if (failed_[i]) {
      tally.fail(std::string(what) + ": request " + std::to_string(i) +
                 " was rejected or failed");
    }
  }
}

void OneShotWorkload::replay_direct(
    const std::vector<const Instance*>& requests, const DemtOptions& options,
    DirectPath& path, const TimedPolicy& policy, Tracer* tracer,
    LayerCounts* counts, Tally* tally) {
  const auto step = static_cast<std::size_t>(outstanding_);
  std::vector<EngineRequest> batch(step);
  std::vector<EngineResult> out(step);
  for (std::size_t g = 0; g < requests.size(); g += step) {
    const std::size_t count = std::min(requests.size() - g, step);
    for (std::size_t i = 0; i < count; ++i) {
      batch[i].instance = requests[g + i];
      batch[i].policy = &policy;
    }
    {
      const Scope span(tracer, "engine.schedule_batch_into");
      path.engine.schedule_batch_into(batch.data(), count, out.data());
    }
    for (std::size_t i = 0; tally != nullptr && i < count; ++i) {
      if (!failed_[g + i] && !same_result(out[i], results_[g + i])) {
        tally->fail("direct engine replay of request " +
                    std::to_string(g + i) + " differs from the served result");
      }
    }
    // The cache and DEMT layers of the same requests, in the engine's
    // order: signature, lookup, and on a miss the policy run and insert.
    for (std::size_t i = 0; i < count; ++i) {
      const Instance& instance = *requests[g + i];
      LayerScratch& scratch = path.scratch;
      InstanceSignature sig;
      {
        const Scope span(tracer, "core.cache.canonical_signature");
        sig = canonical_signature(instance,
                                  path.shadow.options().quantize_steps,
                                  scratch.signature);
      }
      bool hit = false;
      {
        const Scope span(tracer, "core.cache.lookup");
        hit = path.shadow.lookup(sig, policy.cache_key(), instance,
                                 scratch.replay, scratch.replay_diag);
      }
      if (!hit) {
        decompose_demt(instance, options, scratch, tracer, counts);
        const Scope span(tracer, "core.cache.insert");
        path.shadow.insert(sig, policy.cache_key(), instance, scratch.flat,
                           scratch.diag);
      }
    }
    if (counts) counts->requests += static_cast<std::int64_t>(count);
  }
}

std::vector<Metric> OneShotWorkload::trace_layers(System& system,
                                                  Tracer& tracer,
                                                  double seconds,
                                                  Tally& tally) {
  const DemtOptions& options = system.policy.options();
  // Two direct paths replay the same requests, one unobserved and one
  // with spans, so the tracing overhead covers every per-layer span. Both
  // start in the state set-up left the serving system in: warm them with
  // the same warm-up requests.
  DirectPath plain;
  DirectPath observed;
  const TimedPolicy untimed(system.policy, nullptr, "engine.policy");
  const TimedPolicy policy(system.policy, &tracer, "engine.policy");
  for (DirectPath* path : {&plain, &observed}) {
    replay_direct(warmup(), options, *path, untimed, nullptr, nullptr,
                  nullptr);
  }
  LayerCounts counts;
  const DecisionCacheStats before = system.cache.stats();
  const std::int64_t start = now_ns();
  for (int round = 0; more_traced_rounds(round, start, seconds, tracer);
       ++round) {
    prepare_round(round);
    std::int64_t t0 = now_ns();
    serve_round(system, nullptr, tally, nullptr);
    counts.untraced_s += ms_since(t0) * 1e-3;
    check_round(round, tally);
    between_passes(system);
    t0 = now_ns();
    serve_round(system, nullptr, tally, &tracer);
    counts.traced_s += ms_since(t0) * 1e-3;
    check_round(round, tally);
    t0 = now_ns();
    replay_direct(requests_, options, plain, untimed, nullptr, nullptr,
                  nullptr);
    counts.untraced_s += ms_since(t0) * 1e-3;
    t0 = now_ns();
    replay_direct(requests_, options, observed, policy, &tracer, &counts,
                  &tally);
    counts.traced_s += ms_since(t0) * 1e-3;
  }
  const DecisionCacheStats after = system.cache.stats();
  counts.cache_hits = after.hits - before.hits;
  counts.cache_lookups = counts.cache_hits + (after.misses - before.misses);
  counts.cache_evictions = after.evictions - before.evictions;
  return layer_metrics(tracer, counts);
}

/// Paper families at m = 200, n = 25..400, never repeating: every cache
/// lookup misses and DEMT runs on every request.
class FreshPaper final : public OneShotWorkload {
 public:
  explicit FreshPaper(std::uint64_t seed)
      : OneShotWorkload(kOutstanding), seed_(seed) {
    std::vector<Instance> generation;
    for (std::uint64_t g = 0; g < kWarmupRounds; ++g) {
      generate(kWarmupStream + g, generation);
      warmup_instances_.insert(warmup_instances_.end(), generation.begin(),
                               generation.end());
    }
    for (const Instance& instance : warmup_instances_) {
      warmup_.push_back(&instance);
    }
  }

  void setup(System& system, Tally& tally) override {
    serve(system, warmup_, nullptr, tally, nullptr);
    count_failures(tally, "fresh_paper warm-up");
  }

  void prepare_round(int round) override {
    generate(static_cast<std::uint64_t>(round), instances_);
    requests_.clear();
    for (const Instance& instance : instances_) requests_.push_back(&instance);
    // The Cmax bound covers every request; the LP solve takes up to 2 s
    // at n = 400, so the minsum bound covers the n <= 100 requests of the
    // first rounds only (96 instances).
    bounds_.clear();
    for (const Instance& instance : instances_) {
      const bool lp = round < kMinsumRounds && instance.num_tasks() <= 100;
      bounds_.push_back(lp ? offline_bounds(instance)
                           : Bounds{cmax_bound(instance), 0.0});
    }
  }

  [[nodiscard]] int timed_rounds(double seconds) const override {
    // The latency pool takes 50 rounds per call slot (50 x 20 = 1000
    // samples) from below the 90th percentile: at least 56 rounds.
    return scaled_rounds(seconds, 7.0, 56);
  }

  void check_round(int round, Tally& tally) override {
    count_failures(tally, "fresh_paper");
    std::vector<EngineRequest> batch(requests_.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].instance = requests_[i];
      batch[i].policy = &reference_policy_;
    }
    reference_.resize(batch.size());
    reference_engine_.schedule_batch_into(batch.data(), batch.size(),
                                          reference_.data());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (failed_[i]) continue;
      if (!same_result(results_[i], reference_[i])) {
        tally.fail("fresh_paper round " + std::to_string(round) +
                   " request " + std::to_string(i) +
                   " differs from the cache-less engine");
      }
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      quality_.cmax += reference_[i].cmax;
      quality_.cmax_bound += bounds_[i].cmax;
      if (bounds_[i].minsum > 0.0) {
        quality_.minsum += reference_[i].weighted_completion_sum;
        quality_.minsum_bound += bounds_[i].minsum;
      }
    }
  }

  [[nodiscard]] Quality quality() const override { return quality_; }

 protected:
  void between_passes(System& system) override {
    system.cache.clear();  // the traced pass must miss again
  }
  [[nodiscard]] const std::vector<const Instance*>& warmup() const override {
    return warmup_;
  }

 private:
  static constexpr int kOutstanding = 4;
  static constexpr int kMachine = 200;
  static constexpr int kMinsumRounds = 8;
  /// Warm-up requests: two rounds' worth (40 instances) of their own.
  static constexpr std::uint64_t kWarmupRounds = 2;
  static constexpr std::uint64_t kWarmupStream = 1u << 20;

  /// One round: every family at every size, size by size.
  void generate(std::uint64_t stream, std::vector<Instance>& out) const {
    Rng rng = stream_rng(seed_, stream);
    out.clear();
    for (const int n : {25, 50, 100, 200, 400}) {
      for (const WorkloadFamily family : all_families()) {
        out.push_back(generate_instance(family, n, kMachine, rng));
      }
    }
  }

  std::uint64_t seed_;
  std::vector<Instance> warmup_instances_;
  std::vector<const Instance*> warmup_;
  std::vector<Instance> instances_;
  std::vector<Bounds> bounds_;
  const DemtPolicy reference_policy_;
  SchedulerEngine reference_engine_{EngineOptions{1, false, nullptr}};
  std::vector<EngineResult> reference_;
  Quality quality_;
};

/// Zipf(1.1) draws from a fixed catalog of shapes whose first pass is the
/// warm-up: nearly every request replays a cached decision.
class RecurringZipf final : public OneShotWorkload {
 public:
  explicit RecurringZipf(std::uint64_t seed)
      : OneShotWorkload(kOutstanding), seed_(seed) {
    Rng rng = stream_rng(seed_, kCatalogStream);
    const auto& families = all_families();
    for (int i = 0; i < kShapes; ++i) {
      catalog_.push_back(generate_instance(
          families[static_cast<std::size_t>(i) % families.size()], kTasks,
          kMachine, rng));
    }
    std::vector<EngineRequest> batch(catalog_.size());
    for (std::size_t i = 0; i < catalog_.size(); ++i) {
      warmup_.push_back(&catalog_[i]);
      batch[i].instance = &catalog_[i];
      batch[i].policy = &reference_policy_;
      bounds_.push_back(offline_bounds(catalog_[i]));
    }
    reference_.resize(batch.size());
    SchedulerEngine reference_engine(EngineOptions{1, false, nullptr});
    reference_engine.schedule_batch_into(batch.data(), batch.size(),
                                         reference_.data());
    double mass = 0.0;
    for (int k = 0; k < kShapes; ++k) {
      mass += 1.0 / std::pow(static_cast<double>(k + 1), kExponent);
      cdf_.push_back(mass);
    }
    // After the catalog's first pass, the warm-up serves Zipf draws of its
    // own, so that set-up is long enough to time.
    Rng draws = stream_rng(seed_, kWarmupStream);
    for (int i = 0; i < kWarmupDraws; ++i) {
      warmup_.push_back(&catalog_[draw(draws)]);
    }
  }

  void setup(System& system, Tally& tally) override {
    serve(system, warmup_, nullptr, tally, nullptr);
    count_failures(tally, "recurring_zipf warm-up");
  }

  void prepare_round(int round) override {
    Rng rng = stream_rng(seed_, static_cast<std::uint64_t>(round));
    requests_.clear();
    shapes_.clear();
    for (int i = 0; i < kRequests; ++i) {
      const std::size_t shape = draw(rng);
      shapes_.push_back(shape);
      requests_.push_back(&catalog_[shape]);
    }
  }

  [[nodiscard]] int timed_rounds(double seconds) const override {
    return scaled_rounds(seconds, 16.0, 3);
  }

  void check_round(int round, Tally& tally) override {
    count_failures(tally, "recurring_zipf");
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      if (failed_[i]) continue;
      if (!same_result(results_[i], reference_[shapes_[i]])) {
        tally.fail("recurring_zipf round " + std::to_string(round) +
                   " request " + std::to_string(i) +
                   " differs from the cache-less engine");
      }
    }
  }

  /// Over the catalog, each shape once: Zipf weights would let three
  /// shapes decide the ratio.
  [[nodiscard]] Quality quality() const override {
    Quality q;
    for (std::size_t shape = 0; shape < catalog_.size(); ++shape) {
      q.cmax += reference_[shape].cmax;
      q.minsum += reference_[shape].weighted_completion_sum;
      q.cmax_bound += bounds_[shape].cmax;
      q.minsum_bound += bounds_[shape].minsum;
    }
    return q;
  }

 protected:
  [[nodiscard]] const std::vector<const Instance*>& warmup() const override {
    return warmup_;
  }

 private:
  static constexpr int kOutstanding = 16;
  static constexpr int kShapes = 32;
  static constexpr int kTasks = 60;
  static constexpr int kMachine = 32;
  static constexpr int kRequests = 1024;
  static constexpr double kExponent = 1.1;
  static constexpr int kWarmupDraws = 4 * kRequests;
  static constexpr std::uint64_t kCatalogStream = 1u << 20;
  static constexpr std::uint64_t kWarmupStream = kCatalogStream + 1;

  /// One Zipf draw: a catalog index.
  std::size_t draw(Rng& rng) const {
    const double u = rng.uniform(0.0, cdf_.back());
    return std::min<std::size_t>(
        static_cast<std::size_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin()),
        catalog_.size() - 1);
  }

  std::uint64_t seed_;
  std::vector<Instance> catalog_;
  std::vector<const Instance*> warmup_;
  std::vector<Bounds> bounds_;
  const DemtPolicy reference_policy_;
  std::vector<EngineResult> reference_;  ///< per catalog shape
  std::vector<double> cdf_;
  std::vector<std::size_t> shapes_;
};

// -------------------------------------------------------------- stream

/// A seeded synthetic SWF log, written as text, parsed and compiled into a
/// moldable tape, dealt round-robin to a few streams and fed in watermark
/// windows; one client keeps one feed per stream in flight.
class TraceStream final : public Workload {
 public:
  explicit TraceStream(std::uint64_t seed) {
    SynthSwfOptions synth;
    synth.jobs = kLogJobs;
    synth.mean_gap = kMeanGapS;
    Rng rng = stream_rng(seed, kLogStream);
    SwfTrace log;
    synthesize_swf(synth, rng, log);
    std::ostringstream text;
    write_swf(log, text);
    swf_text_ = text.str();
    tape_options_.moldable = true;

    Tape tape;
    parse_swf(swf_text_, trace_);
    compile_tape(trace_, tape_options_, tape);
    m_ = tape.m;
    arrivals_ = tape.arrivals.size();
    const double first = tape.arrivals.front().release;
    const double last = tape.arrivals.back().release;
    for (int w = 0; w < kWindows; ++w) {
      watermarks_.push_back(w + 1 == kWindows
                                ? last
                                : first + (last - first) * (w + 1) / kWindows);
    }
    streams_.resize(kStreams);
    for (std::size_t i = 0; i < tape.arrivals.size(); ++i) {
      streams_[i % kStreams].arrivals.push_back(tape.arrivals[i]);
    }
    const DemtPolicy policy;
    const std::unique_ptr<PolicyWorkspace> ws = policy.make_workspace();
    OnlineWorkspace online;
    for (StreamInput& s : streams_) {
      std::size_t next = 0;
      for (const double mark : watermarks_) {
        const std::size_t begin = next;
        while (next < s.arrivals.size() && s.arrivals[next].release <= mark) {
          ++next;
        }
        s.begin.push_back(begin);
        s.count.push_back(next - begin);
      }
      std::vector<OnlineJob> jobs;
      for (const StreamArrival& a : s.arrivals) {
        jobs.push_back(OnlineJob{a.task, a.release});
      }
      online_batch_schedule_into(m_, jobs, policy, *ws, {}, online,
                                 s.reference);
      s.bounds = stream_bounds(m_, s.arrivals);
      s.deliveries.resize(kWindows + 1);
    }
    failed_.assign(kStreams * (kWindows + 1), 0);
  }

  void setup(System& system, Tally& tally) override {
    Tape tape;
    parse_swf(swf_text_, trace_);
    compile_tape(trace_, tape_options_, tape);
    if (tape.arrivals.size() != arrivals_) {
      tally.fail("trace_stream: recompiled tape differs in length");
    }
    serve_round(system, nullptr, tally, nullptr);
    count_failures(tally, "trace_stream warm-up");
  }

  void prepare_round(int /*round*/) override {}

  [[nodiscard]] int timed_rounds(double seconds) const override {
    return scaled_rounds(seconds, 1.25, 3);
  }

  std::int64_t serve_round(System& system, RoundSamples* samples,
                           Tally& tally, Tracer* tracer) override;

  void check_round(int round, Tally& tally) override;

  [[nodiscard]] Quality quality() const override { return quality_; }

  std::vector<Metric> trace_layers(System& system, Tracer& tracer,
                                   double seconds, Tally& tally) override;

 private:
  static constexpr int kLogJobs = 32000;
  /// Mean submit gap of the synthetic log (s). With the generator's
  /// runtime and width mix each of the four streams runs at roughly half
  /// load: batches of a few jobs, and speculation both commits and rolls
  /// back. At the generator's default gap the streams saturate and every
  /// decision is a large batch.
  static constexpr double kMeanGapS = 200.0;
  static constexpr int kStreams = 4;
  static constexpr int kWindows = 1600;
  static constexpr std::uint64_t kLogStream = 1u << 20;

  struct StreamInput {
    std::vector<StreamArrival> arrivals;
    std::vector<std::size_t> begin;  ///< per window
    std::vector<std::size_t> count;  ///< per window
    FlatOnlineResult reference;
    Bounds bounds;
    std::vector<StreamDelivery> deliveries;  ///< per window, then the close
  };

  void count_failures(Tally& tally, const char* what);
  /// Feed the whole tape through direct OnlineStream sessions, one per
  /// stream, in the order the serving pass runs the same feeds; spans go
  /// to `tracer` and counts to `counts` when they are non-null.
  void replay_direct(const SchedulingPolicy& inner, Tracer* tracer,
                     std::vector<Instance>* capture, LayerCounts* counts);
  /// parse_swf and compile_tape of the log, as set-up runs them.
  void recompile(Tracer* tracer);

  std::string swf_text_;
  SwfTrace trace_;
  TapeOptions tape_options_;
  int m_ = 1;
  std::size_t arrivals_ = 0;
  std::vector<double> watermarks_;
  std::vector<StreamInput> streams_;
  std::vector<std::uint8_t> failed_;  ///< per (stream, feed)
  Quality quality_;
  std::vector<OnlineStream> direct_ = std::vector<OnlineStream>(kStreams);
  StreamDelivery direct_delivery_;
};

std::int64_t TraceStream::serve_round(System& system, RoundSamples* samples,
                                      Tally& tally, Tracer* tracer) {
  StreamOptions options;
  options.m = m_;
  options.policy = &system.policy;
  options.speculate = true;
  StreamTicket streams[kStreams];
  Ticket tickets[kStreams];
  std::int64_t sent[kStreams];
  for (int s = 0; s < kStreams; ++s) {
    streams[s] = system.async.open_stream(options);
  }
  failed_.assign(failed_.size(), 0);
  for (int w = 0; w <= kWindows; ++w) {
    const Scope generation(tracer, "serve.generation");
    for (int s = 0; s < kStreams; ++s) {
      const StreamInput& in = streams_[static_cast<std::size_t>(s)];
      sent[s] = now_ns();
      const Scope span(tracer, "serve.submit");
      tickets[s] =
          w < kWindows
              ? system.async.submit_stream(
                    streams[s], in.arrivals.data() + in.begin[w], in.count[w],
                    watermarks_[static_cast<std::size_t>(w)])
              : system.async.close_stream(streams[s]);
    }
    system.async.flush();
    for (int s = 0; s < kStreams; ++s) {
      StreamInput& in = streams_[static_cast<std::size_t>(s)];
      bool done = false;
      if (tickets[s].accepted() &&
          system.async.wait(tickets[s]) == TicketStatus::Done) {
        const Scope span(tracer, "serve.take");
        done = system.async.take_stream(
            tickets[s], in.deliveries[static_cast<std::size_t>(w)]);
      } else if (tickets[s].accepted()) {
        (void)system.async.take_stream(
            tickets[s], in.deliveries[static_cast<std::size_t>(w)]);
      }
      if (samples) samples->latency_ms.push_back(ms_since(sent[s]));
      if (!done) failed_[static_cast<std::size_t>(s * (kWindows + 1) + w)] = 1;
    }
    if (samples) samples->group_ms.push_back(ms_since(sent[0]));
  }
  tally.attempted += kStreams * (kWindows + 1);
  return static_cast<std::int64_t>(arrivals_);
}

void TraceStream::count_failures(Tally& tally, const char* what) {
  for (std::size_t i = 0; i < failed_.size(); ++i) {
    if (failed_[i]) {
      tally.fail(std::string(what) + ": feed " + std::to_string(i) +
                 " was rejected or failed");
    }
  }
}

/// Whether delivery `d` continues `ref` exactly from job `next_job` and
/// batch `next_batch` (both advanced past it); the final delivery must
/// also close on the reference's totals.
bool delivery_matches(const StreamDelivery& d, bool final_delivery,
                      const FlatOnlineResult& ref, int& next_job,
                      std::size_t& next_batch) {
  bool same = d.first_job == next_job && d.final_delivery == final_delivery &&
              static_cast<std::size_t>(next_job + d.num_jobs()) <=
                  ref.completion.size();
  for (int e = 0; e < d.num_jobs() && same; ++e) {
    const auto de = static_cast<std::size_t>(e);
    const auto j = static_cast<std::size_t>(next_job + e);
    const FlatPlacements& got = d.placements;
    const FlatPlacements& want = ref.schedule;
    const int* got_procs = got.proc_ids.data() + got.proc_begin[de];
    same = got.start[de] == want.start[j] &&
           got.duration[de] == want.duration[j] &&
           d.completion[de] == ref.completion[j] &&
           got.proc_count[de] == want.proc_count[j] &&
           std::equal(got_procs, got_procs + got.proc_count[de],
                      want.proc_ids.data() + want.proc_begin[j]);
  }
  next_job += d.num_jobs();
  for (const double start : d.batch_starts) {
    same = same && next_batch < ref.batch_starts.size() &&
           ref.batch_starts[next_batch] == start;
    ++next_batch;
  }
  if (final_delivery) {
    same = same && next_job == static_cast<int>(ref.completion.size()) &&
           next_batch == ref.batch_starts.size() && d.cmax == ref.cmax &&
           d.weighted_completion_sum == ref.weighted_completion_sum;
  }
  return same;
}

void TraceStream::check_round(int round, Tally& tally) {
  count_failures(tally, "trace_stream");
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    const StreamInput& in = streams_[s];
    int next_job = 0;
    std::size_t next_batch = 0;
    for (std::size_t w = 0; w < in.deliveries.size(); ++w) {
      if (failed_[s * (kWindows + 1) + w]) continue;  // counted above
      if (!delivery_matches(in.deliveries[w], w + 1 == in.deliveries.size(),
                            in.reference, next_job, next_batch)) {
        tally.fail("trace_stream round " + std::to_string(round) +
                   " stream " + std::to_string(s) + " feed " +
                   std::to_string(w) +
                   " differs from online_batch_schedule_into");
      }
    }
  }
  for (const StreamInput& in : streams_) {
    quality_.cmax += in.reference.cmax;
    quality_.minsum += in.reference.weighted_completion_sum;
    quality_.cmax_bound += in.bounds.cmax;
    quality_.minsum_bound += in.bounds.minsum;
  }
}

void TraceStream::replay_direct(const SchedulingPolicy& inner, Tracer* tracer,
                                std::vector<Instance>* capture,
                                LayerCounts* counts) {
  TimedPolicy policy(inner, tracer, "sim.policy");
  policy.capture_into(capture);
  std::vector<std::unique_ptr<PolicyWorkspace>> ws;
  for (OnlineStream& stream : direct_) {
    stream.open(m_, {});
    stream.set_speculate(true);
    ws.push_back(policy.make_workspace());
  }
  for (std::size_t w = 0; w < watermarks_.size(); ++w) {
    for (std::size_t s = 0; s < direct_.size(); ++s) {
      const StreamInput& in = streams_[s];
      const Scope span(tracer, "sim.feed");
      direct_[s].feed(in.arrivals.data() + in.begin[w], in.count[w],
                      watermarks_[w], policy, *ws[s], direct_delivery_);
    }
  }
  for (std::size_t s = 0; s < direct_.size(); ++s) {
    const Scope span(tracer, "sim.finish");
    direct_[s].finish(policy, *ws[s], direct_delivery_);
  }
  if (counts == nullptr) return;
  for (const OnlineStream& stream : direct_) {
    counts->spec_decided +=
        static_cast<std::int64_t>(stream.speculated_batches());
    counts->spec_committed +=
        static_cast<std::int64_t>(stream.committed_speculations());
    counts->spec_rolled_back +=
        static_cast<std::int64_t>(stream.rolled_back_speculations());
  }
  counts->feeds += kStreams * (kWindows + 1);
  counts->decisions += policy.decisions();
  counts->decision_jobs += policy.batch_jobs();
  ++counts->replays;
}

void TraceStream::recompile(Tracer* tracer) {
  {
    const Scope span(tracer, "trace.parse_swf");
    parse_swf(swf_text_, trace_);
  }
  Tape tape;
  const Scope span(tracer, "trace.compile_tape");
  compile_tape(trace_, tape_options_, tape);
}

std::vector<Metric> TraceStream::trace_layers(System& system, Tracer& tracer,
                                              double seconds, Tally& tally) {
  // A warm-up replay readies the direct sessions and collects the batch
  // instances the DEMT decomposition below runs on.
  std::vector<Instance> captured;
  replay_direct(system.policy, nullptr, &captured, nullptr);
  LayerCounts counts;
  LayerScratch scratch;
  const DecisionCacheStats before = system.cache.stats();
  const std::int64_t start = now_ns();
  for (int round = 0; more_traced_rounds(round, start, seconds, tracer);
       ++round) {
    std::int64_t t0 = now_ns();
    serve_round(system, nullptr, tally, nullptr);
    counts.untraced_s += ms_since(t0) * 1e-3;
    check_round(round, tally);
    t0 = now_ns();
    serve_round(system, nullptr, tally, &tracer);
    counts.traced_s += ms_since(t0) * 1e-3;
    check_round(round, tally);
    t0 = now_ns();
    replay_direct(system.policy, nullptr, nullptr, nullptr);
    recompile(nullptr);
    counts.untraced_s += ms_since(t0) * 1e-3;
    t0 = now_ns();
    replay_direct(system.policy, &tracer, nullptr, &counts);
    recompile(&tracer);
    counts.traced_s += ms_since(t0) * 1e-3;
  }
  // The DEMT layers of one replay's batch decisions, once unobserved and
  // once with spans.
  std::int64_t t0 = now_ns();
  for (const Instance& batch : captured) {
    decompose_demt(batch, system.policy.options(), scratch, nullptr, nullptr);
  }
  counts.untraced_s += ms_since(t0) * 1e-3;
  t0 = now_ns();
  for (const Instance& batch : captured) {
    decompose_demt(batch, system.policy.options(), scratch, &tracer, &counts);
  }
  counts.traced_s += ms_since(t0) * 1e-3;
  const DecisionCacheStats after = system.cache.stats();
  counts.cache_hits = after.hits - before.hits;
  counts.cache_lookups = counts.cache_hits + (after.misses - before.misses);
  counts.cache_evictions = after.evictions - before.evictions;
  return layer_metrics(tracer, counts);
}

}  // namespace

System::System() : async(system_options(cache)) {}

void Tally::fail(std::string why) {
  ++failed;
  if (errors.size() < 20) errors.push_back(std::move(why));
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "fresh_paper") return std::make_unique<FreshPaper>(seed);
  if (name == "recurring_zipf") return std::make_unique<RecurringZipf>(seed);
  if (name == "trace_stream") return std::make_unique<TraceStream>(seed);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (fresh_paper, recurring_zipf, trace_stream)");
}

}  // namespace perfbench
