// Section IV-B reproduction: metadata storage comparison.
//
// Bumblebee's evaluated configuration needs 334 KB of SRAM metadata
// (110 KB PRT + 136 KB BLE array + 88 KB hotness tracker), 1-2 orders of
// magnitude below prior designs whose metadata cannot fit on chip. This
// harness prints our computed budget for every Figure 6 configuration and
// the SRAM-equivalent metadata of each baseline design.
#include <iostream>

#include "baselines/factory.h"
#include "bumblebee/config.h"
#include "common/cli.h"
#include "common/table.h"
#include "mem/dram_device.h"

using namespace bb;

namespace {

int run(const Flags&) {
  std::cout << "Bumblebee metadata budget by configuration "
               "(paper: 334 KB total at 2-64)\n";
  TextTable bb_table({"block-page (KB)", "PRT", "BLE array", "hotness",
                      "total", "fits 512 KB SRAM"});
  for (const auto& [blk, page] : {std::pair<u64, u64>{1, 64},
                                  {1, 96},
                                  {1, 128},
                                  {2, 64},
                                  {2, 96},
                                  {2, 128},
                                  {4, 64},
                                  {4, 96},
                                  {4, 128}}) {
    bumblebee::BumblebeeConfig cfg;
    cfg.block_bytes = blk * KiB;
    cfg.page_bytes = page * KiB;
    const auto geo = bumblebee::Geometry::make(cfg, 1 * GiB, 10 * GiB);
    const auto b = bumblebee::metadata_budget(cfg, geo);
    bb_table.add_row(
        {std::to_string(blk) + "-" + std::to_string(page),
         fmt_bytes(static_cast<double>(b.prt_bytes)),
         fmt_bytes(static_cast<double>(b.ble_bytes)),
         fmt_bytes(static_cast<double>(b.hotness_bytes)),
         fmt_bytes(static_cast<double>(b.total())),
         b.total() <= 512 * KiB ? "yes" : "NO"});
  }
  bb_table.print(std::cout);

  std::cout << "\nSRAM-equivalent metadata of each design (1 GB HBM + 10 GB "
               "DRAM):\n";
  mem::DramDevice hbm(mem::DramTimingParams::hbm2_1gb());
  mem::DramDevice dram(mem::DramTimingParams::ddr4_3200_10gb());
  TextTable cmp({"design", "metadata", "vs Bumblebee"});
  bumblebee::BumblebeeConfig ref_cfg;
  const auto ref = bumblebee::metadata_budget(
      ref_cfg, bumblebee::Geometry::make(ref_cfg, 1 * GiB, 10 * GiB));
  for (const char* name :
       {"Bumblebee", "Banshee", "AC", "UC", "Chameleon", "Hybrid2"}) {
    const auto design = baselines::make_design(name, hbm, dram);
    u64 bytes = design->metadata_sram_bytes();
    std::string note;
    if (std::string(name) == "AC" || std::string(name) == "UC") {
      note = " (tags embedded in HBM)";
    }
    cmp.add_row({name, fmt_bytes(static_cast<double>(bytes)) + note,
                 bytes ? fmt_double(static_cast<double>(bytes) /
                                        static_cast<double>(ref.total()),
                                    1) + "x"
                       : "-"});
  }
  cmp.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::cli_main(argc, argv, "metadata_size", {}, run);
}
