// High-memory-footprint scenario (Section III-E, movement trigger 5).
//
// cam4's 10.8 GB footprint exceeds the 10 GB off-chip DRAM. Pure cache
// designs hide the HBM from the OS and must page; POM/hybrid designs make
// it OS-visible. Bumblebee additionally batch-flushes cHBM in whole
// remapping sets when it observes addresses beyond the off-chip capacity,
// keeping allocation off the eviction critical path.
//
// This example compares page faults, IPC and the batch-flush behaviour.
#include <iostream>

#include "bumblebee/controller.h"
#include "common/table.h"
#include "sim/system.h"

using namespace bb;

int main(int argc, char** argv) {
  const u64 instructions = argc > 1 ? std::stoull(argv[1]) : 30'000'000;

  sim::SystemConfig cfg;
  cfg.paging.fault_penalty = ns_to_ticks(500);
  sim::System system(cfg);

  const auto& cam4 = trace::WorkloadProfile::by_name("cam4");
  std::cout << "Workload cam4: footprint " << cam4.footprint_gb
            << " GB vs 10 GB off-chip DRAM + 1 GB HBM\n\n";

  TextTable table({"design", "OS-visible", "page faults", "IPC",
                   "HBM serve"});
  const auto base = system.run("DRAM-only", cam4, instructions);
  for (const std::string d :
       {"DRAM-only", "Banshee", "Chameleon", "Hybrid2", "Bumblebee"}) {
    const auto r = system.run(d, cam4, instructions);
    const u64 visible =
        system.last_controller()->paging().config().visible_bytes;
    table.add_row({r.design, fmt_bytes(static_cast<double>(visible)),
                   std::to_string(r.page_faults), fmt_double(r.ipc, 2),
                   fmt_percent(r.hbm_serve_rate)});
  }
  table.print(std::cout);

  // Show the trigger-5 machinery explicitly.
  const auto bb_run = system.run("Bumblebee", cam4, instructions);
  (void)bb_run;
  const auto* ctl = dynamic_cast<bumblebee::BumblebeeController*>(
      system.last_controller());
  std::cout << "\nBumblebee high-footprint actions: "
            << ctl->bb_stats().batch_flushes << " set flushes, "
            << ctl->bb_stats().set_swaps << " full-set swaps, "
            << ctl->bb_stats().zombie_evictions << " zombie evictions\n";
  std::cout << "(baseline DRAM-only IPC: " << fmt_double(base.ipc, 2)
            << ")\n";
  return 0;
}
