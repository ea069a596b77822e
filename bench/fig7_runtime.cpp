/// Figure 7 reproduction: wall-clock execution time of the DEMT scheduling
/// call against the number of tasks, on the weakly parallel, Cirne and
/// highly parallel workloads (m = 200). The paper reports < 2 s at n = 400
/// on 2004 hardware; the shape (roughly linear growth in n, weakly parallel
/// slowest because of its larger K) is the reproduction target.
///
/// Flags: --sizes, --m, --runs, --seed, --csv as in the figure harnesses,
/// plus --shuffles N (shuffle candidates per call) and --json PATH for a
/// machine-readable BENCH_demt.json ("" disables). A size, --runs or --m
/// below 1, or --shuffles below 0, prints the usage and exits 2.

#include <algorithm>
#include <fstream>
#include <iostream>

#include "core/demt.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/strfmt.hpp"
#include "util/timer.hpp"
#include "workloads/generators.hpp"

int main(int argc, char** argv) {
  using namespace moldsched;
  const ArgParser args(argc, argv);
  if (args.help_requested()) {
    std::cout
        << "fig7_runtime -- DEMT wall-clock vs task count (paper Fig. 7)\n\n"
        << "  --sizes a,b,c        task counts [25..400]\n"
        << "  --m N                processors [200]\n"
        << "  --runs N             instances per point [10]\n"
        << "  --seed S             base seed [20040627]\n"
        << "  --shuffles N         shuffle candidates per DEMT call [8]\n"
        << "  --quick              sizes 25,100,400\n"
        << "  --csv PATH           also write CSV (n, family, mean_s,\n"
        << "                       min_s, max_s)\n"
        << "  --json PATH          JSON report [BENCH_demt.json]; \"\" off\n\n"
        << "JSON schema: {benchmark, m, runs, shuffles,\n"
        << "results: [{n, family, mean_s, min_s, max_s, tasks_per_s,\n"
        << "last_wc, last_cmax}]} -- last_wc/last_cmax record the final\n"
        << "run's schedule metrics so two runs of the bench can be diffed\n"
        << "for identical output, not just speed.\n"
        << "Full schema reference and recorded baselines for every\n"
        << "BENCH_*.json report: docs/BENCHMARKS.md.\n";
    return 0;
  }
  std::vector<int> sizes = args.get_int_list(
      "sizes", {25, 50, 100, 150, 200, 250, 300, 350, 400});
  if (args.has("quick")) sizes = {25, 100, 400};
  const int m = static_cast<int>(args.get_int("m", 200));
  const int runs = static_cast<int>(args.get_int("runs", 10));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20040627));

  DemtOptions demt_options;
  demt_options.shuffles =
      static_cast<int>(args.get_int("shuffles", demt_options.shuffles));
  const bool sizes_ok =
      std::all_of(sizes.begin(), sizes.end(), [](int n) { return n >= 1; });
  if (!sizes_ok || runs < 1 || m < 1 || demt_options.shuffles < 0) {
    std::cerr << "usage: fig7_runtime [--sizes N>=1,...] [--m N>=1] "
                 "[--runs N>=1] [--shuffles N>=0] [--seed S] [--quick] "
                 "[--csv PATH] [--json PATH]; --help for details\n";
    return 2;
  }

  const std::vector<WorkloadFamily> families = {
      WorkloadFamily::WeaklyParallel, WorkloadFamily::Cirne,
      WorkloadFamily::HighlyParallel};

  std::cout << "# Figure 7 - execution time of the DEMT scheduling "
               "algorithm (seconds)\n";
  std::cout << strfmt(
      "# m=%d, %d runs per point (mean [min,max]), %d shuffles\n\n", m,
      runs, demt_options.shuffles);
  std::cout << strfmt("%6s", "n");
  for (auto family : families) {
    std::cout << strfmt("  %-26s", std::string(family_name(family)).c_str());
  }
  std::cout << '\n';

  struct JsonRow {
    int n;
    std::string family;
    double mean_s, min_s, max_s, tasks_per_s, wc, cmax;
  };
  std::vector<JsonRow> json_rows;
  std::vector<std::vector<std::string>> csv_rows;
  for (int n : sizes) {
    std::cout << strfmt("%6d", n);
    for (auto family : families) {
      Rng rng(seed + static_cast<std::uint64_t>(n) * 13 +
              static_cast<std::uint64_t>(family));
      RunningStats time_s;
      double wc = 0.0;
      double cmax = 0.0;
      for (int r = 0; r < runs; ++r) {
        const Instance instance = generate_instance(family, n, m, rng);
        WallTimer timer;
        const auto result = demt_schedule(instance, demt_options);
        time_s.add(timer.seconds());
        // Record schedule quality so two runs of this bench can be checked
        // for identical output, not just speed.
        wc = result.schedule.weighted_completion_sum(instance);
        cmax = result.schedule.cmax();
      }
      std::cout << strfmt("  %8.4f [%7.4f,%7.4f]", time_s.mean(), time_s.min(),
                          time_s.max());
      csv_rows.push_back({strfmt("%d", n),
                          std::string(family_name(family)),
                          strfmt("%.6f", time_s.mean()),
                          strfmt("%.6f", time_s.min()),
                          strfmt("%.6f", time_s.max())});
      json_rows.push_back({n, std::string(family_name(family)), time_s.mean(),
                           time_s.min(), time_s.max(), n / time_s.mean(), wc,
                           cmax});
    }
    std::cout << '\n';
  }

  const std::string csv_path = args.get_string("csv", "");
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    CsvWriter csv(out);
    csv.header({"n", "family", "mean_s", "min_s", "max_s"});
    for (const auto& row : csv_rows) csv.row(row);
    std::cout << "# csv written to " << csv_path << "\n";
  }

  const std::string json_path = args.get_string("json", "BENCH_demt.json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << strfmt(
        "{\n  \"benchmark\": \"fig7_runtime\",\n  \"m\": %d,\n"
        "  \"runs\": %d,\n  \"shuffles\": %d,\n  \"results\": [\n",
        m, runs, demt_options.shuffles);
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      const auto& r = json_rows[i];
      out << strfmt(
          "    {\"n\": %d, \"family\": \"%s\", \"mean_s\": %.6f, "
          "\"min_s\": %.6f, \"max_s\": %.6f, \"tasks_per_s\": %.1f, "
          "\"last_wc\": %.6f, \"last_cmax\": %.6f}%s\n",
          r.n, r.family.c_str(), r.mean_s, r.min_s, r.max_s, r.tasks_per_s,
          r.wc, r.cmax, i + 1 < json_rows.size() ? "," : "");
    }
    out << "  ]\n}\n";
    std::cout << "# json written to " << json_path << "\n";
  }
  return 0;
}
