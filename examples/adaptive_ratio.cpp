// The headline Bumblebee feature: the cHBM : mHBM ratio adapts in real
// time as the workload's locality changes — no reboot, no reconfiguration.
//
// This scenario runs three phases through ONE controller instance:
//   phase 1: mcf-like   (strong spatial + strong temporal)
//   phase 2: wrf-like   (weak spatial + strong temporal)
//   phase 3: xz-like    (strong spatial + weak temporal)
// and samples the HBM frame population (cHBM / mHBM / free) over time.
// Expect the mHBM share to dominate in phases 1 and 3 and the cHBM share
// to grow in phase 2 — Section II-B's motivation, live.
#include <iostream>

#include "bumblebee/controller.h"
#include "common/table.h"
#include "sim/system.h"
#include "trace/generator.h"

using namespace bb;

int main(int argc, char** argv) {
  const u64 per_phase = argc > 1 ? std::stoull(argv[1]) : 400'000;

  mem::DramDevice hbm(mem::DramTimingParams::hbm2_1gb());
  mem::DramDevice dram(mem::DramTimingParams::ddr4_3200_10gb());
  bumblebee::BumblebeeController ctl(bumblebee::BumblebeeConfig::baseline(),
                                     hbm, dram);

  TextTable table({"phase", "progress", "cHBM frames", "mHBM frames",
                   "free", "cHBM share of used"});

  Tick now = 0;
  const char* phases[] = {"mcf", "wrf", "xz"};
  for (const char* phase : phases) {
    trace::TraceGenerator gen(trace::WorkloadProfile::by_name(phase), 17);
    for (u64 i = 0; i < per_phase; ++i) {
      const auto rec = gen.next();
      now += rec.inst_gap * 70;  // ~4 IPC pacing at 3.6 GHz
      ctl.access(rec.addr, rec.type, now);
      if ((i + 1) % (per_phase / 4) == 0) {
        const auto r = ctl.ratio();
        const u64 used = r.chbm_frames + r.mhbm_frames;
        table.add_row(
            {phase, fmt_percent(static_cast<double>(i + 1) /
                                static_cast<double>(per_phase), 0),
             std::to_string(r.chbm_frames), std::to_string(r.mhbm_frames),
             std::to_string(r.free_frames),
             used ? fmt_percent(static_cast<double>(r.chbm_frames) /
                                static_cast<double>(used))
                  : "-"});
      }
    }
  }

  std::cout << "Adaptive cHBM:mHBM ratio across workload phases\n";
  table.print(std::cout);

  const auto& b = ctl.bb_stats();
  std::cout << "\nmode switches: " << b.cache_to_mem_switches
            << " cHBM->mHBM, " << b.mem_to_cache_buffers
            << " mHBM->cHBM (buffered evictions); " << b.page_migrations
            << " page migrations, " << b.block_fetches << " block fetches\n";
  return 0;
}
