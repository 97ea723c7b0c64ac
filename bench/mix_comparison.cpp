// Contended-mix study: multi-programmed co-runs of the preset mixes (see
// sim/mix.h) across Bumblebee and the static HBM partitionings it subsumes
// (C-Only, 25%-C, 50%-C, M-Only). Reports weighted speedup, harmonic-mean
// speedup and max slowdown per (design, mix), normalized against per-core
// alone runs under the same design.
//
// The headline check: on a two-profile mix that blends a strong-temporal
// core with capacity-hungry streamers (cachecap4 = mcf+lbm+lbm+lbm),
// Bumblebee's adaptive cache/memory split must match or beat the best
// *static cHBM/mHBM split* (25%-C, 50%-C) on weighted speedup — no fixed
// partition suits both core classes at once. C-Only and M-Only stay in
// the tables as endpoints, but they hold no cHBM/mHBM split to keep
// static: they devote the whole HBM to one class. C-Only in particular
// can edge out every split (and Bumblebee) on blends whose bandwidth
// demand pushes the optimal ratio to all-cache; see the EXPERIMENTS.md
// contended-mix study for the full picture.
//
// Flags: --jobs N (worker threads, default = all hardware threads),
// --instructions N (per-core budget; default derives from mix workloads).
// Environment knobs: BB_SIM_SCALE (percent of default run length),
// BB_TARGET_MISSES (default 120000).
#include <iostream>
#include <vector>

#include "common/cli.h"
#include "common/flags.h"
#include "common/table.h"
#include "sim/experiment.h"

using namespace bb;

namespace {

int run(const Flags& flags) {
  sim::SystemConfig sys_cfg;
  sys_cfg.warmup_ratio =
      static_cast<double>(sim::env_u64("BB_WARMUP_PCT", 300)) / 100.0;

  // Bumblebee vs every static cHBM/mHBM split the ablation factory offers.
  const std::vector<std::string> designs = {"C-Only", "25%-C", "50%-C",
                                            "M-Only", "Bumblebee"};
  const std::vector<sim::MixSpec> mixes = sim::MixSpec::presets();

  std::cerr << "mix: simulating " << mixes.size() << " mixes x "
            << designs.size() << " designs (plus alone baselines)...\n";
  sim::ExperimentRunner runner(sys_cfg);
  sim::RunMatrixOptions opts;
  opts.jobs = static_cast<unsigned>(flags.get_u64("jobs", 0));
  opts.progress = true;
  opts.instructions = flags.get_u64("instructions", 0);
  opts.target_misses = sim::env_u64("BB_TARGET_MISSES", 120'000);
  opts.min_instructions = 50'000'000;
  runner.run_mix_matrix(designs, mixes, opts);

  struct Panel {
    const char* title;
    double sim::MixResult::* metric;
    const char* better;
  };
  const Panel panels[] = {
      {"Weighted speedup (sum of per-core IPC_shared / IPC_alone)",
       &sim::MixResult::weighted_speedup, "higher"},
      {"Harmonic-mean speedup", &sim::MixResult::hmean_speedup, "higher"},
      {"Max slowdown (fairness)", &sim::MixResult::max_slowdown, "lower"},
  };

  for (const auto& panel : panels) {
    std::cout << "\n" << panel.title << "  [" << panel.better
              << " is better]\n";
    std::vector<std::string> header = {"design"};
    for (const auto& m : mixes) header.push_back(m.name);
    TextTable table(header);
    for (const auto& d : designs) {
      std::vector<std::string> row = {d};
      for (const auto& m : mixes) {
        double v = 0;
        for (const auto& r : runner.mix_results()) {
          if (r.design == d && r.mix == m.name) v = r.*(panel.metric);
        }
        row.push_back(fmt_double(v, 3));
      }
      table.add_row(row);
    }
    table.print(std::cout);
  }

  // Per-core breakdown of the headline blend, where the adaptive split
  // has to serve both core classes at once.
  std::cout << "\nPer-core breakdown (cachecap4):\n";
  TextTable cores({"design", "core", "workload", "IPC", "alone", "speedup",
                   "HBM serve", "p99 (ns)"});
  for (const auto& r : runner.mix_results()) {
    if (r.mix != "cachecap4") continue;
    for (const auto& c : r.cores) {
      cores.add_row({r.design, std::to_string(c.perf.core), c.perf.workload,
                     fmt_double(c.perf.ipc, 2), fmt_double(c.alone_ipc, 2),
                     fmt_double(c.speedup, 2) + "x",
                     fmt_percent(c.perf.hbm_serve_rate),
                     fmt_double(c.perf.latency_p99_ns, 1)});
    }
  }
  cores.print(std::cout);

  // Headline: Bumblebee vs the best static cHBM/mHBM split on the
  // two-profile contended blend.
  double bumblebee_ws = 0, best_split_ws = 0;
  std::string best_split;
  for (const auto& r : runner.mix_results()) {
    if (r.mix != "cachecap4") continue;
    if (r.design == "Bumblebee") {
      bumblebee_ws = r.weighted_speedup;
    } else if ((r.design == "25%-C" || r.design == "50%-C") &&
               r.weighted_speedup > best_split_ws) {
      best_split_ws = r.weighted_speedup;
      best_split = r.design;
    }
  }
  std::cout << "\ncachecap4 weighted speedup: Bumblebee "
            << fmt_double(bumblebee_ws, 3) << " vs best static split ("
            << best_split << ") " << fmt_double(best_split_ws, 3) << " — "
            << (bumblebee_ws >= best_split_ws ? "Bumblebee matches or beats "
                                                "every static cHBM/mHBM split"
                                              : "static split wins (check "
                                                "configuration)")
            << "\n";
  return bumblebee_ws >= best_split_ws ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::cli_main(argc, argv, "mix_comparison",
                       {"instructions", "jobs"}, run);
}
