/// Micro costs of the algorithmic components: the per-batch knapsack, the
/// dual-approximation search, the list scheduler, the generators, and the
/// full DEMT call. These back the complexity claims (knapsack O(mn),
/// overall O(mnK)) with measurements.
///
/// Self-contained harness (no external benchmark dependency): every
/// component is timed with a calibrated repetition loop, and a global
/// operator-new hook counts heap allocations so the zero-allocation claim
/// of the DEMT shuffle loop is verified, not asserted. Results go to stdout
/// and, machine-readable, to BENCH_demt_micro.json (--json PATH to
/// override, --json "" to disable).

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "alloc_hook.hpp"
#include "core/batching.hpp"
#include "core/demt.hpp"
#include "core/knapsack.hpp"
#include "dualapprox/cmax_estimator.hpp"
#include "sched/flat_schedule.hpp"
#include "sched/list_scheduler.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/strfmt.hpp"
#include "util/timer.hpp"
#include "workloads/generators.hpp"

// Allocation counting uses the shared hook in alloc_hook.hpp;
// measurements take deltas around the timed region (single-threaded
// here, so the delta is exact). Rows report -1 under sanitizers.

namespace {

using namespace moldsched;

struct BenchResult {
  std::string name;
  int n = 0;
  int reps = 0;
  double per_call_s = 0.0;
  double tasks_per_s = 0.0;  // n / per_call_s when n is a task count
  double allocs_per_call = -1.0;  // -1 = not measured
};

std::vector<BenchResult> g_results;

/// Time `body` with enough repetitions to accumulate ~min_time seconds.
template <typename F>
void bench(const std::string& name, int n, F&& body,
           double min_time = 0.05) {
  body();  // warm-up (also sizes any reusable workspaces)
  int reps = 1;
  double elapsed = 0.0;
  for (;;) {
    const std::uint64_t alloc_before =
        g_alloc_count.load(std::memory_order_relaxed);
    WallTimer timer;
    for (int r = 0; r < reps; ++r) body();
    elapsed = timer.seconds();
    if (elapsed >= min_time || reps >= (1 << 20)) {
      const std::uint64_t alloc_after =
          g_alloc_count.load(std::memory_order_relaxed);
      BenchResult result;
      result.name = name;
      result.n = n;
      result.reps = reps;
      result.per_call_s = elapsed / reps;
      result.tasks_per_s = n > 0 ? n / result.per_call_s : 0.0;
      result.allocs_per_call =
          kAllocHookEnabled
              ? static_cast<double>(alloc_after - alloc_before) / reps
              : -1.0;
      g_results.push_back(result);
      std::cout << strfmt("%-28s n=%4d  %12.3f us/call  %10.0f tasks/s  "
                          "%8.1f allocs/call\n",
                          name.c_str(), n, result.per_call_s * 1e6,
                          result.tasks_per_s, result.allocs_per_call);
      return;
    }
    reps *= 2;
  }
}

Instance make_instance(int n, int m, WorkloadFamily family,
                       std::uint64_t seed) {
  Rng rng(seed);
  return generate_instance(family, n, m, rng);
}

void write_json(const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"micro_components\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < g_results.size(); ++i) {
    const auto& r = g_results[i];
    out << strfmt("    {\"name\": \"%s\", \"n\": %d, \"reps\": %d, "
                  "\"per_call_s\": %.9f, \"tasks_per_s\": %.3f, "
                  "\"allocs_per_call\": %.2f}%s\n",
                  r.name.c_str(), r.n, r.reps, r.per_call_s, r.tasks_per_s,
                  r.allocs_per_call, i + 1 < g_results.size() ? "," : "");
  }
  out << "  ]\n}\n";
  std::cout << "# json written to " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace moldsched;
  const ArgParser args(argc, argv);
  if (args.help_requested()) {
    std::cout
        << "micro_components -- per-component micro costs of the DEMT\n"
        << "pipeline (knapsack, generators, dual-approx search, list\n"
        << "scheduler, batch build, full DEMT), with a global operator-new\n"
        << "hook verifying the zero-allocation shuffle loop.\n"
        << "Gated per-call checks (non-zero exit on failure): the\n"
        << "steady-state dual_test and knapsack row-sweep paths must run\n"
        << "allocation-free, the fused metric scan must match the split\n"
        << "scans bit-for-bit and allocate nothing, and at the largest size\n"
        << "the vectorized knapsack / fused scan must stay within 1.5x of\n"
        << "their scalar references (margin absorbs machine noise; the\n"
        << "point is catching a kernel regressing to much slower).\n\n"
        << "  --sizes a,b,c   task counts [25,100,400]\n"
        << "  --m N           processors [200]\n"
        << "  --quick         sizes 50,200\n"
        << "  --json PATH     JSON report [BENCH_demt_micro.json]; \"\" off\n\n"
        << "JSON schema: {benchmark, results: [{name, n, reps,\n"
        << "per_call_s, tasks_per_s, allocs_per_call}]} -- one row per\n"
        << "(component, n); allocs_per_call = -1 when not measured; the\n"
        << "shuffle_alloc_delta row reports heap allocations per extra\n"
        << "shuffle iteration (must be ~0).\n"
        << "Full schema reference and recorded baselines for every\n"
        << "BENCH_*.json report: docs/BENCHMARKS.md.\n";
    return 0;
  }
  const std::vector<int> sizes =
      args.has("quick") ? std::vector<int>{50, 200}
                        : args.get_int_list("sizes", {25, 100, 400});
  const int m = static_cast<int>(args.get_int("m", 200));

  // Knapsack three ways: the public vectorized entry point (allocates its
  // returned selection), the retained scalar reference, and the pooled
  // row-sweep kernel the batch loop actually calls. The last one is the
  // serving path, so it carries two gates: zero steady-state allocations,
  // and -- at the largest size -- per-call time within 1.5x of the scalar
  // reference (the sweep should win outright; the margin is noise head
  // room, the gate catches a rewrite that regresses the kernel).
  bool knap_alloc_ok = true;
  double knap_ref_s = 0.0;
  double knap_sweep_s = 0.0;
  for (int n : sizes) {
    Rng rng(1);
    std::vector<KnapsackItem> items;
    std::vector<int> costs;
    std::vector<double> weights;
    for (int i = 0; i < n; ++i) {
      items.push_back(KnapsackItem{static_cast<int>(rng.uniform_int(1, 16)),
                                   rng.uniform(1.0, 10.0)});
      costs.push_back(items.back().cost);
      weights.push_back(items.back().weight);
    }
    bench(strfmt("knapsack"), n,
          [&] { (void)max_weight_knapsack(items, m); });
    bench("knapsack_reference", n,
          [&] { (void)max_weight_knapsack_reference(items, m); });
    knap_ref_s = g_results.back().per_call_s;
    KnapsackWorkspace kws;
    std::vector<int> selected;
    bench("knapsack_row_sweep", n, [&] {
      max_weight_knapsack_into(costs.data(), weights.data(), n, m, kws,
                               selected);
    });
    knap_sweep_s = g_results.back().per_call_s;
    if (kAllocHookEnabled && g_results.back().allocs_per_call != 0.0) {
      knap_alloc_ok = false;
    }
  }
  // Timing gate at the largest size only (small sizes are all overhead).
  const bool knap_time_ok =
      knap_sweep_s <= knap_ref_s * 1.5 || knap_ref_s == 0.0;

  for (int n : sizes) {
    Rng rng(2);
    bench("generate_instance", n,
          [&] { (void)generate_instance(WorkloadFamily::Cirne, n, m, rng); });
  }

  for (int n : sizes) {
    const Instance instance = make_instance(n, m, WorkloadFamily::Mixed, 3);
    bench("dual_approx_search", n, [&] { (void)estimate_cmax(instance); });
  }

  // The same search through the pooled workspace form demt_schedule uses:
  // after the first call, every dual_test of the bisection must run
  // allocation-free (the pick matrix, DP rows, option pools and partition
  // buffers all live in the workspace). Gated below.
  bool dual_ws_ok = true;
  for (int n : sizes) {
    const Instance instance = make_instance(n, m, WorkloadFamily::Mixed, 3);
    const InstanceAllotments tables(instance);
    DualTestWorkspace ws;
    DualTestResult scratch;
    // Per-test allocations, isolated from the CmaxEstimate return value:
    // one search sizes the workspace, then dual_test_into runs directly
    // across the search's typical guess range.
    CmaxEstimate sized;
    estimate_cmax_into(instance, 1e-4, tables, ws, sized);
    dual_test_into(instance, sized.estimate, tables, ws, scratch);  // warm
    const std::uint64_t before = g_alloc_count.load();
    const int probes = 64;
    for (int i = 0; i < probes; ++i) {
      const double lambda =
          sized.lower_bound +
          (sized.estimate * 2.0 - sized.lower_bound) * (i + 1) / probes;
      dual_test_into(instance, lambda, tables, ws, scratch);
    }
    const double per_test =
        kAllocHookEnabled
            ? static_cast<double>(g_alloc_count.load() - before) / probes
            : -1.0;
    std::cout << strfmt("%-28s n=%4d  allocs/dual_test = %.2f\n",
                        "dual_test_steady_state", n, per_test);
    BenchResult result;
    result.name = "dual_test_steady_state";
    result.n = n;
    result.reps = probes;
    result.allocs_per_call = per_test;
    g_results.push_back(result);
    if (kAllocHookEnabled && per_test != 0.0) dual_ws_ok = false;
  }

  for (int n : sizes) {
    Rng rng(4);
    std::vector<ListJob> jobs;
    for (int i = 0; i < n; ++i) {
      jobs.push_back(ListJob{i, static_cast<int>(rng.uniform_int(1, 32)),
                             rng.uniform(0.5, 10.0), 0.0});
    }
    bench("list_scheduler", n, [&] { (void)list_schedule(m, n, jobs); });
  }

  for (int n : sizes) {
    const Instance instance = make_instance(n, m, WorkloadFamily::Mixed, 7);
    std::vector<int> pending;
    for (int i = 0; i < n; ++i) pending.push_back(i);
    const double length = estimate_cmax(instance).estimate / 4.0;
    bench("batch_build", n,
          [&] { (void)build_batch_items(instance, pending, length); });
  }

  // Fused min/argmin candidate-metric scan vs the two split scans it
  // replaced. Three gates: the fused pass allocates nothing, its results
  // equal the split scans bit-for-bit (same adds, same max comparisons,
  // same order -- see FlatPlacements::metrics), and at the largest size it
  // stays within 1.5x of the split pair (it touches each entry once
  // instead of twice, so it should simply win; the gate is a regression
  // tripwire, not a tight bound).
  bool metrics_alloc_ok = true;
  bool metrics_identical = true;
  double metrics_fused_s = 0.0;
  double metrics_split_s = 0.0;
  for (int n : sizes) {
    const Instance instance = make_instance(n, m, WorkloadFamily::Mixed, 9);
    const DemtResult placed = demt_schedule(instance);
    FlatPlacements flat;
    flat.assign_from(placed.schedule);
    FlatMetrics fused;
    bench("metrics_fused_scan", n, [&] { fused = flat.metrics(instance); });
    metrics_fused_s = g_results.back().per_call_s;
    if (kAllocHookEnabled && g_results.back().allocs_per_call != 0.0) {
      metrics_alloc_ok = false;
    }
    double split_wc = 0.0;
    double split_cmax = 0.0;
    bench("metrics_split_scans", n, [&] {
      split_wc = flat.weighted_completion_sum(instance);
      split_cmax = flat.cmax();
    });
    metrics_split_s = g_results.back().per_call_s;
    if (fused.weighted_completion_sum != split_wc ||
        fused.cmax != split_cmax) {
      metrics_identical = false;
    }
  }
  const bool metrics_time_ok =
      metrics_fused_s <= metrics_split_s * 1.5 || metrics_split_s == 0.0;

  for (int n : sizes) {
    const Instance instance = make_instance(n, m, WorkloadFamily::Cirne, 6);
    bench("demt_full", n, [&] { (void)demt_schedule(instance); }, 0.2);
  }

  for (int n : sizes) {
    const Instance instance = make_instance(n, m, WorkloadFamily::Cirne, 6);
    DemtOptions options;
    options.shuffles = 0;
    bench("demt_no_shuffle", n,
          [&] { (void)demt_schedule(instance, options); }, 0.2);
  }

  // Zero-allocation check for the shuffle loop: compare a 1-shuffle call
  // against a 65-shuffle call. The extra 64 iterations must reuse the
  // workspace, so the allocation delta per extra shuffle should be ~0.
  {
    const int n = 200;
    const Instance instance = make_instance(n, m, WorkloadFamily::Cirne, 6);
    DemtOptions base;
    base.shuffles = 1;
    DemtOptions heavy;
    heavy.shuffles = 65;
    (void)demt_schedule(instance, base);  // warm-up
    const auto count_allocs = [&](const DemtOptions& options) {
      const std::uint64_t before = g_alloc_count.load();
      (void)demt_schedule(instance, options);
      return static_cast<double>(g_alloc_count.load() - before);
    };
    const double allocs_1 = count_allocs(base);
    const double allocs_65 = count_allocs(heavy);
    const double per_shuffle =
        kAllocHookEnabled ? (allocs_65 - allocs_1) / 64.0 : -1.0;
    std::cout << strfmt("%-28s n=%4d  allocs/shuffle-iter = %.2f "
                        "(1 shuffle: %.0f, 65 shuffles: %.0f)\n",
                        "shuffle_alloc_delta", n, per_shuffle, allocs_1,
                        allocs_65);
    BenchResult result;
    result.name = "shuffle_alloc_delta";
    result.n = n;
    result.reps = 1;
    result.allocs_per_call = per_shuffle;
    g_results.push_back(result);
  }

  // Cold-path allocation budget: one demt_schedule call through the
  // convenience form, which builds a fresh DemtWorkspace every time — the
  // opposite of the pooled serving path. Measured on the serving baseline
  // shape (n=60, m=32 — the BENCH_serve default): the count is all
  // workspace sizing (tables, DP rows, pick matrix, placement buffers),
  // ≈346 today. Informational gate with generous head room (~2x the
  // recorded figure): it trips only when a change turns workspace sizing
  // into per-element churn.
  bool cold_alloc_ok = true;
  {
    const int n = 60;
    const Instance instance = make_instance(n, 32, WorkloadFamily::Cirne, 6);
    (void)demt_schedule(instance);  // settle any one-time static state
    const std::uint64_t before = g_alloc_count.load();
    (void)demt_schedule(instance);
    const double cold_allocs =
        kAllocHookEnabled
            ? static_cast<double>(g_alloc_count.load() - before)
            : -1.0;
    std::cout << strfmt("%-28s n=%4d  allocs/cold-call = %.0f\n",
                        "demt_no_workspace_reuse", n, cold_allocs);
    BenchResult result;
    result.name = "demt_no_workspace_reuse";
    result.n = n;
    result.reps = 1;
    result.allocs_per_call = cold_allocs;
    g_results.push_back(result);
    if (kAllocHookEnabled && cold_allocs > 700.0) cold_alloc_ok = false;
  }

  // Distinct default from fig7_runtime's BENCH_demt.json (different
  // schema); running both benches must not clobber either report.
  const std::string json_path =
      args.get_string("json", "BENCH_demt_micro.json");
  if (!json_path.empty()) write_json(json_path);
  bool ok = true;
  if (!dual_ws_ok) {
    std::cerr << "ERROR: dual_test workspace path allocated per test\n";
    ok = false;
  }
  if (!knap_alloc_ok) {
    std::cerr << "ERROR: knapsack row-sweep kernel allocated per call\n";
    ok = false;
  }
  if (!knap_time_ok) {
    std::cerr << strfmt("ERROR: knapsack row sweep slower than 1.5x the "
                        "scalar reference (%.3f us vs %.3f us per call)\n",
                        knap_sweep_s * 1e6, knap_ref_s * 1e6);
    ok = false;
  }
  if (!metrics_alloc_ok) {
    std::cerr << "ERROR: fused metric scan allocated per call\n";
    ok = false;
  }
  if (!metrics_identical) {
    std::cerr << "ERROR: fused metric scan diverged from the split scans\n";
    ok = false;
  }
  if (!metrics_time_ok) {
    std::cerr << strfmt("ERROR: fused metric scan slower than 1.5x the "
                        "split scans (%.3f us vs %.3f us per call)\n",
                        metrics_fused_s * 1e6, metrics_split_s * 1e6);
    ok = false;
  }
  if (!cold_alloc_ok) {
    std::cerr << "ERROR: cold demt_schedule call blew its allocation "
                 "budget (workspace sizing should stay near ~350 allocs)\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
