// Quickstart: simulate one workload on Bumblebee and the DRAM-only
// baseline, and print the headline metrics.
//
//   ./quickstart [workload] [instructions]
//
// Workload names follow Table II of the paper (default: mcf).
#include <iostream>
#include <string>

#include "common/table.h"
#include "sim/system.h"

int main(int argc, char** argv) {
  const std::string workload_name = argc > 1 ? argv[1] : "mcf";
  const bb::u64 instructions = argc > 2 ? std::stoull(argv[2]) : 20'000'000;

  const auto& workload = bb::trace::WorkloadProfile::by_name(workload_name);
  std::cout << "Workload " << workload.name << ": MPKI " << workload.mpki
            << ", footprint " << workload.footprint_gb << " GB, spatial "
            << workload.spatial << ", temporal " << workload.temporal
            << "\n\n";

  bb::sim::System system;
  bb::TextTable table({"design", "IPC", "speedup", "HBM traffic",
                       "DRAM traffic", "energy (mJ)", "HBM serve", "MAL"});

  const auto base = system.run("DRAM-only", workload, instructions);
  for (const std::string design :
       {"DRAM-only", "Bumblebee", "Hybrid2", "C-Only", "M-Only"}) {
    const auto r = system.run(design, workload, instructions);
    table.add_row({r.design, bb::fmt_double(r.ipc, 3),
                   bb::fmt_double(r.ipc / base.ipc, 2) + "x",
                   bb::fmt_bytes(static_cast<double>(r.hbm_bytes)),
                   bb::fmt_bytes(static_cast<double>(r.dram_bytes)),
                   bb::fmt_double(r.energy_mj, 2),
                   bb::fmt_percent(r.hbm_serve_rate),
                   bb::fmt_percent(r.mal_fraction)});
  }
  table.print(std::cout);
  return 0;
}
