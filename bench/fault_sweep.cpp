// Availability study: how gracefully does each design degrade as memory
// faults escalate? Sweeps the "mixed" fault profile (transients + stuck
// rows + dead banks) across per-access rates from fault-free to 1e-3 and
// reports, per (design, workload, rate):
//
//   * IPC, and IPC relative to the design's own fault-free run,
//   * CE / UE counts and unrecovered-read data losses,
//   * frames retired and sets degraded (Bumblebee's map-out machinery),
//   * availability = fraction of read requests served without data loss.
//
// DRAM-only has no redundant copy, so every unrecovered read is a loss;
// Bumblebee re-fetches clean cHBM blocks from their off-chip home and
// retires the faulty frame, trading IPC for data survival.
//
// Flags: --jobs N (worker threads, default = all hardware threads).
#include <iostream>
#include <map>
#include <utility>

#include "common/cli.h"
#include "common/flags.h"
#include "common/table.h"
#include "sim/experiment.h"

using namespace bb;

namespace {

int run(const Flags& flags) {
  const std::vector<std::string> designs = {"DRAM-only", "Bumblebee",
                                            "Banshee"};
  const std::vector<std::string> workload_names = {"mcf", "lbm"};
  std::vector<trace::WorkloadProfile> workloads;
  for (const auto& name : workload_names) {
    workloads.push_back(trace::WorkloadProfile::by_name(name));
  }

  sim::RunMatrixOptions opts;
  opts.jobs = static_cast<unsigned>(flags.get_u64("jobs", 0));
  opts.progress = true;
  opts.target_misses = sim::env_u64("BB_TARGET_MISSES", 60'000);
  opts.min_instructions = 20'000'000;

  std::cout << "Graceful degradation under the mixed fault profile\n";
  TextTable table({"rate", "design", "workload", "IPC", "vs clean", "CE",
                   "UE", "data loss", "retired", "degraded",
                   "availability"});

  // Fault-free IPC per (design, workload), from the rate-0 matrix.
  std::map<std::pair<std::string, std::string>, double> clean_ipc;

  for (const double rate : {0.0, 1e-5, 1e-4, 1e-3}) {
    sim::SystemConfig cfg;
    cfg.warmup_ratio =
        static_cast<double>(sim::env_u64("BB_WARMUP_PCT", 200)) / 100.0;
    if (rate > 0) cfg.fault = fault::FaultConfig::profile("mixed", rate, 1);

    sim::ExperimentRunner runner(cfg);
    runner.run_matrix(designs, workloads, opts);

    for (const auto& r : runner.results()) {
      const auto key = std::make_pair(r.design, r.workload);
      if (rate == 0.0) clean_ipc[key] = r.ipc;
      const double base = clean_ipc.count(key) ? clean_ipc[key] : 0.0;
      // Reads that completed with intact data, over all requests; writes
      // never lose data (they overwrite the faulty word).
      const u64 requests = r.misses ? r.misses : 1;
      const double availability =
          1.0 - static_cast<double>(r.due_data_loss) /
                    static_cast<double>(requests);
      table.add_row({rate > 0 ? fmt_double(rate, 6) : "0", r.design,
                     r.workload, fmt_double(r.ipc, 3),
                     base > 0 ? fmt_double(r.ipc / base, 3) + "x" : "-",
                     std::to_string(r.ce_count), std::to_string(r.ue_count),
                     std::to_string(r.due_data_loss),
                     std::to_string(r.retired_frames),
                     std::to_string(r.degraded_sets),
                     fmt_percent(availability, 4)});
    }
  }
  table.print(std::cout);
  std::cout << "\nEvery run completes: Bumblebee retires faulty HBM frames\n"
               "(flushing dirty data through the normal eviction path) and\n"
               "falls back to off-chip DRAM once a set degrades, so rising\n"
               "fault rates cost IPC but not forward progress.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::cli_main(argc, argv, "fault_sweep", {"jobs"}, run);
}
