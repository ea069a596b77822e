/// \file figure_common.hpp
/// Shared driver for the per-figure bench binaries. Every figure binary is
/// a thin main() that fills in its family/title and calls run_figure_main.
///
/// Common flags (paper defaults in brackets):
///   --sizes 25,50,...   task counts [25..400 in steps of 50, plus 25/50]
///   --m N               processors [200]
///   --runs N            instances per point [40]
///   --seed S            base seed [20040627]
///   --csv PATH          also write CSV
///   --gnuplot PREFIX    write PREFIX.dat + PREFIX.gp (two-panel figure)
///   --quick             small preset (sizes 25,50,100; runs 5) for smoke runs
///   --threads N         worker threads [hardware]
///   --verbose           progress logging

#pragma once

#include <fstream>
#include <iostream>
#include <string>

#include "exp/report.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace moldsched {

inline int run_figure_main(int argc, char** argv, FigureConfig config) {
  const ArgParser args(argc, argv);
  if (args.help_requested()) {
    std::cout
        << config.title << " reproduction harness\n\n"
        << "  --sizes a,b,c   task counts [25..400]\n"
        << "  --m N           processors [200]\n"
        << "  --runs N        instances per point [40]\n"
        << "  --seed S        base seed [20040627]\n"
        << "  --csv PATH      also write CSV\n"
        << "  --gnuplot PFX   write PFX.dat + PFX.gp (two-panel figure)\n"
        << "  --threads N     worker threads [hardware]\n"
        << "  --quick         sizes 25,50,100; runs 5\n"
        << "  --verbose       progress logging\n\n"
        << "Outputs: paper-style text report on stdout; --csv writes one\n"
        << "row per (n, algorithm) with columns figure, family, m, runs,\n"
        << "n, algorithm, minsum_ratio_{avg,min,max},\n"
        << "cmax_ratio_{avg,min,max}, runtime_mean_s, lp_bound_mean,\n"
        << "cmax_lb_mean. This\n"
        << "harness emits no JSON; the JSON-emitting benches are\n"
        << "fig7_runtime (BENCH_demt.json), micro_components\n"
        << "(BENCH_demt_micro.json) and serve_throughput\n"
        << "(BENCH_serve.json) -- see their --help for schemas.\n";
    return 0;
  }
  if (args.has("verbose")) set_log_level(LogLevel::Info);
  if (args.has("quick")) {
    config.ns = {25, 50, 100};
    config.runs = 5;
  }
  config.ns = args.get_int_list("sizes", config.ns);
  config.m = static_cast<int>(args.get_int("m", config.m));
  config.runs = static_cast<int>(args.get_int("runs", config.runs));
  config.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(config.seed)));
  config.threads =
      static_cast<unsigned>(args.get_int("threads", config.threads));

  WallTimer timer;
  const FigureResult result = run_figure(config);
  print_figure(result, std::cout);
  std::cout << "# total wall time: " << timer.seconds() << " s\n";

  const std::string csv_path = args.get_string("csv", "");
  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    if (!csv) {
      std::cerr << "cannot open " << csv_path << "\n";
      return 1;
    }
    write_figure_csv(result, csv);
    std::cout << "# csv written to " << csv_path << "\n";
  }

  const std::string gnuplot_prefix = args.get_string("gnuplot", "");
  if (!gnuplot_prefix.empty()) {
    if (!write_figure_gnuplot(result, gnuplot_prefix)) {
      std::cerr << "cannot write " << gnuplot_prefix << ".dat/.gp\n";
      return 1;
    }
    std::cout << "# gnuplot files written to " << gnuplot_prefix
              << ".{dat,gp}\n";
  }
  return 0;
}

}  // namespace moldsched
