/// Micro costs of the algorithmic components: the per-batch knapsack, the
/// dual-approximation search, the list scheduler, the batch build, the
/// generators, and the full DEMT call. These back the complexity claims
/// (knapsack O(mn), overall O(mnK)) with measurements.
///
/// Self-contained harness (no external benchmark dependency): every
/// component is timed with a calibrated repetition loop. Results go to
/// stdout and, machine-readable, to BENCH_demt_micro.json (--json PATH to
/// override, --json "" to disable). The zero-allocation and bit-identity
/// checks of the same kernels run in ctest (tests/alloc/,
/// DemtKernel.FusedMetricsBitIdenticalToSplitScans).

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/batching.hpp"
#include "core/demt.hpp"
#include "core/knapsack.hpp"
#include "dualapprox/cmax_estimator.hpp"
#include "reference/cmax_estimator_reference.hpp"
#include "reference/knapsack_reference.hpp"
#include "sched/flat_schedule.hpp"
#include "sched/list_scheduler.hpp"
#include "tasks/allotment_table.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/strfmt.hpp"
#include "util/timer.hpp"
#include "workloads/generators.hpp"

namespace {

using namespace moldsched;

struct BenchResult {
  std::string name;
  int n = 0;
  int reps = 0;
  double per_call_s = 0.0;
  double tasks_per_s = 0.0;  // n / per_call_s when n is a task count
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
    WallTimer timer;
    for (int r = 0; r < reps; ++r) body();
    elapsed = timer.seconds();
    if (elapsed >= min_time || reps >= (1 << 20)) {
      BenchResult result;
      result.name = name;
      result.n = n;
      result.reps = reps;
      result.per_call_s = elapsed / reps;
      result.tasks_per_s = n > 0 ? n / result.per_call_s : 0.0;
      g_results.push_back(result);
      std::cout << strfmt("%-28s n=%4d  %12.3f us/call  %10.0f tasks/s\n",
                          name.c_str(), n, result.per_call_s * 1e6,
                          result.tasks_per_s);
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
                  "\"per_call_s\": %.9f, \"tasks_per_s\": %.3f}%s\n",
                  r.name.c_str(), r.n, r.reps, r.per_call_s, r.tasks_per_s,
                  i + 1 < g_results.size() ? "," : "");
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
        << "scheduler, batch build, full DEMT).\n"
        << "Exit gates (non-zero exit on failure): at the largest size the\n"
        << "vectorized knapsack row sweep / C*max search / fused metric\n"
        << "scan must stay within 1.5x of their scalar references (margin\n"
        << "absorbs machine noise; the point is catching a kernel\n"
        << "regressing to much slower).\n\n"
        << "  --sizes a,b,c   task counts [25,100,400]\n"
        << "  --m N           processors [200]\n"
        << "  --quick         sizes 50,200\n"
        << "  --json PATH     JSON report [BENCH_demt_micro.json]; \"\" off\n\n"
        << "JSON schema: {benchmark, results: [{name, n, reps,\n"
        << "per_call_s, tasks_per_s}]} -- one row per (component, n).\n"
        << "Full schema reference and recorded baselines for every\n"
        << "BENCH_*.json report: docs/BENCHMARKS.md.\n";
    return 0;
  }
  const std::vector<int> sizes =
      args.has("quick") ? std::vector<int>{50, 200}
                        : args.get_int_list("sizes", {25, 100, 400});
  const int m = static_cast<int>(args.get_int("m", 200));

  // Knapsack two ways: the scalar oracle from the test-only reference
  // library, and the pooled row-sweep kernel the batch loop actually
  // calls. The kernel is gated at the largest size on per-call time within
  // 1.5x of the scalar reference (the sweep should win outright; the margin
  // is noise head room, the gate catches a rewrite that regresses the
  // kernel).
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
  }
  // Timing gate at the largest size only (small sizes are all overhead).
  const bool knap_time_ok =
      knap_sweep_s <= knap_ref_s * 1.5 || knap_ref_s == 0.0;

  for (int n : sizes) {
    Rng rng(2);
    bench("generate_instance", n,
          [&] { (void)generate_instance(WorkloadFamily::Cirne, n, m, rng); });
  }

  // The C*max search two ways: the scalar oracle (fresh buffers, the
  // scan-based dual test) and the per-request form DEMT calls, on tables
  // built once and a warm workspace. Gated like the knapsack: the search
  // at the largest size within 1.5x of the reference.
  double search_ref_s = 0.0;
  double search_s = 0.0;
  for (int n : sizes) {
    const Instance instance = make_instance(n, m, WorkloadFamily::Mixed, 3);
    bench("estimate_cmax_reference", n,
          [&] { (void)estimate_cmax_reference(instance); });
    search_ref_s = g_results.back().per_call_s;
    const InstanceAllotments tables(instance);
    DualTestWorkspace ws;
    CmaxEstimate estimate;
    bench("dual_approx_search", n, [&] {
      estimate_cmax_into(instance, 1e-4, tables, ws, estimate);
    });
    search_s = g_results.back().per_call_s;
  }
  const bool search_time_ok =
      search_s <= search_ref_s * 1.5 || search_ref_s == 0.0;

  for (int n : sizes) {
    Rng rng(4);
    std::vector<ListJob> jobs;
    for (int i = 0; i < n; ++i) {
      jobs.push_back(ListJob{i, static_cast<int>(rng.uniform_int(1, 32)),
                             rng.uniform(0.5, 10.0)});
    }
    bench("list_scheduler", n, [&] { (void)list_schedule(m, n, jobs); });
  }

  // The batch build DEMT runs per batch length: table lookups into warm
  // flat buffers (tables built once outside the timed loop, as per call).
  for (int n : sizes) {
    const Instance instance = make_instance(n, m, WorkloadFamily::Mixed, 7);
    std::vector<int> pending;
    for (int i = 0; i < n; ++i) pending.push_back(i);
    const double length = estimate_cmax(instance).estimate / 4.0;
    const InstanceAllotments tables(instance);
    BatchBuildWorkspace bws;
    FlatBatchItems items;
    bench("batch_build", n, [&] {
      build_batch_items_into(instance, pending, length, BatchBuildOptions{},
                             tables, bws, items);
    });
  }

  // Fused min/argmin candidate-metric scan vs the two split scans it
  // replaced, gated at the largest size on staying within 1.5x of the
  // split pair (it touches each entry once instead of twice, so it should
  // simply win; the gate is a regression tripwire, not a tight bound).
  double metrics_fused_s = 0.0;
  double metrics_split_s = 0.0;
  for (int n : sizes) {
    const Instance instance = make_instance(n, m, WorkloadFamily::Mixed, 9);
    const FlatPlacements flat = demt_schedule(instance).schedule;
    // Both sides store into a volatile sink so neither scan is dead code.
    volatile double sink = 0.0;
    bench("metrics_fused_scan", n, [&] {
      const FlatMetrics fused = flat.metrics(instance);
      sink = fused.weighted_completion_sum + fused.cmax;
    });
    metrics_fused_s = g_results.back().per_call_s;
    bench("metrics_split_scans", n, [&] {
      sink = flat.weighted_completion_sum(instance) + flat.cmax();
    });
    metrics_split_s = g_results.back().per_call_s;
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

  // Distinct default from fig7_runtime's BENCH_demt.json (different
  // schema); running both benches must not clobber either report.
  const std::string json_path =
      args.get_string("json", "BENCH_demt_micro.json");
  if (!json_path.empty()) write_json(json_path);
  bool ok = true;
  if (!knap_time_ok) {
    std::cerr << strfmt("ERROR: knapsack row sweep slower than 1.5x the "
                        "scalar reference (%.3f us vs %.3f us per call)\n",
                        knap_sweep_s * 1e6, knap_ref_s * 1e6);
    ok = false;
  }
  if (!search_time_ok) {
    std::cerr << strfmt("ERROR: C*max search slower than 1.5x the scalar "
                        "reference (%.3f us vs %.3f us per call)\n",
                        search_s * 1e6, search_ref_s * 1e6);
    ok = false;
  }
  if (!metrics_time_ok) {
    std::cerr << strfmt("ERROR: fused metric scan slower than 1.5x the "
                        "split scans (%.3f us vs %.3f us per call)\n",
                        metrics_fused_s * 1e6, metrics_split_s * 1e6);
    ok = false;
  }
  return ok ? 0 : 1;
}
