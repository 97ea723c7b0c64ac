// The paper's tables and figures, and the extension studies, from one
// binary:
//
//   figures --figure=NAME[,NAME...] [--jobs=N] [--scale=PCT]
//           [--instructions=N]
//
// Each figure is one entry in the table at the bottom of this file: the
// paper artifact it reproduces and the paper's reference values, the
// designs (or labelled Bumblebee configurations) and workloads it
// simulates, any per-point SystemConfig edit (HBM capacity, fault rate),
// its run length and the function that prints it. An unknown name exits 2
// and lists the valid ones.
//
// Run length. A cell's measured window is default_instructions_for(w,
// target misses, minimum instructions, maximum instructions): target
// misses x 1000 / MPKI, clamped to [minimum, maximum]. Warmup runs first
// for warmup% of the measured window (300% = three times it). Nothing
// guarantees that warmup plus window touch a workload's footprint even
// once, so the figures measure a warmed start, not a proven steady state.
//   --scale=PCT         multiplies target misses, minimum and maximum
//                       instructions by PCT/100 (default 100), the rule
//                       perfbench's paper_matrix applies at 2%.
//   --instructions=N    fixes every cell's measured window at N
//                       instructions instead (per core for mix).
//   --jobs=N            worker threads per matrix (default: all hardware
//                       threads). Stdout is byte-identical at every N.
#include <algorithm>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/factory.h"
#include "bumblebee/config.h"
#include "cache/cache.h"
#include "common/cli.h"
#include "common/flags.h"
#include "common/stats.h"
#include "common/table.h"
#include "mem/dram_device.h"
#include "sim/experiment.h"
#include "trace/generator.h"

using namespace bb;

namespace {

using Configs = std::vector<std::pair<std::string, bumblebee::BumblebeeConfig>>;

/// Run length of every cell of a figure at --scale=100.
struct Length {
  u64 target_misses = 0;
  u64 min_instructions = 0;
  u32 warmup_pct = 0;  ///< warmup as a percent of the measured window
};

/// One matrix of a figure: its label and the SystemConfig edit it runs at.
struct Point {
  std::string label;
  std::function<void(sim::SystemConfig&)> edit;
};

/// What the driver simulated for one figure.
struct Run {
  std::vector<sim::ExperimentRunner> points;  ///< one runner per Point
  sim::RunMatrixOptions opts;                 ///< the scaled length
  u64 scale_pct = 100;
  u64 scaled(u64 n) const { return n * scale_pct / 100; }
};

struct Figure {
  const char* name = nullptr;
  const char* artifact = nullptr;
  std::map<std::string, double> paper = {};  ///< reference values by row
  std::vector<std::string> designs = {};
  Configs configs = {};                      ///< labelled Bumblebee variants
  std::vector<std::string> workloads = {};   ///< empty: all of Table II
  bool mixes = false;  ///< run designs over MixSpec::presets() instead
  std::vector<Point> points = {};  ///< empty: one matrix, default config
  Length length = {};
  int (*print)(const Figure&, const Run&) = nullptr;  ///< returns exit code
};

std::vector<trace::WorkloadProfile> profiles(
    const std::vector<std::string>& names) {
  if (names.empty()) return trace::WorkloadProfile::spec2017();
  std::vector<trace::WorkloadProfile> out;
  for (const auto& n : names) out.push_back(trace::WorkloadProfile::by_name(n));
  return out;
}

double geomean_speedup(const sim::ExperimentRunner& runner,
                       const std::string& design) {
  std::vector<double> speedups;
  for (const auto& entry :
       runner.normalized(design, "DRAM-only", sim::metric_ipc)) {
    speedups.push_back(entry.second);
  }
  return geomean(speedups);
}

// ---- Figure 1 ---------------------------------------------------------------
// Percentage of cache lines with different access numbers before eviction
// in a 1 GB cHBM, for line sizes 64 B..64 KB, on mcf, wrf and xz. N is the
// per-line access count divided by (line size / 64 B); buckets follow the
// paper. The paper's reading: mcf keeps high N at all line sizes; wrf
// loses hot lines as lines grow; xz is dominated by N < 5 everywhere.

int print_fig1(const Figure&, const Run& run) {
  const std::vector<u64> line_sizes = {64,       256,      1 * KiB,
                                       4 * KiB,  16 * KiB, 64 * KiB};
  const char* buckets[] = {"N<5", "5<=N<10", "10<=N<15", "15<=N<20", "N>=20"};

  for (const char* wl : {"mcf", "wrf", "xz"}) {
    const auto& profile = trace::WorkloadProfile::by_name(wl);
    std::cout << "\nFigure 1 — " << wl << " (spatial " << profile.spatial
              << ", temporal " << profile.temporal << ")\n";
    TextTable table({"line size", buckets[0], buckets[1], buckets[2],
                     buckets[3], buckets[4]});

    for (const u64 line : line_sizes) {
      cache::CacheParams p;
      p.name = "cHBM";
      p.size_bytes = 1 * GiB;
      p.line_bytes = line;
      p.ways = 16;
      cache::Cache chbm(p);

      Histogram hist({5, 10, 15, 20});
      const double per64 = static_cast<double>(line) / 64.0;
      chbm.set_eviction_hook([&](const cache::EvictionInfo& ev) {
        hist.sample(static_cast<double>(ev.access_count) / per64);
      });

      // Cover the footprint at least twice (capped): the distribution is
      // over lines, so too-short windows leave every line in the N<5
      // bucket.
      const u64 lines64 = profile.footprint_bytes() / 64;
      const u64 misses =
          std::min(std::max(run.opts.target_misses, run.scaled(2 * lines64)),
                   run.scaled(8'000'000));
      trace::TraceGenerator gen(profile, 7);
      for (u64 i = 0; i < misses; ++i) {
        chbm.access(gen.next().addr, AccessType::kRead);
      }
      chbm.flush();  // count lines still resident at the end

      std::vector<std::string> row = {fmt_bytes(static_cast<double>(line))};
      for (std::size_t b = 0; b < 5; ++b) {
        row.push_back(fmt_percent(hist.fraction(b), 1));
      }
      table.add_row(row);
    }
    table.print(std::cout);
  }
  return 0;
}

// ---- Table II ---------------------------------------------------------------
// Target vs generated MPKI, footprint, and the measured locality axes that
// drive Figure 1's taxonomy, over target-misses records of each profile.

int print_table2(const Figure&, const Run& run) {
  std::cout << "Table II: benchmark characteristics (synthetic profiles)\n";
  TextTable table({"benchmark", "class", "MPKI (paper)", "MPKI (gen)",
                   "footprint GB (paper)", "64K-page block use",
                   "top-1% page share"});
  for (const auto& w : trace::WorkloadProfile::spec2017()) {
    trace::TraceGenerator gen(w, 11);
    const auto recs = gen.take(run.opts.target_misses);
    const auto s = trace::measure_stream(recs);
    table.add_row({w.name, to_string(w.mpki_class), fmt_double(w.mpki, 1),
                   fmt_double(1000.0 / s.mean_inst_gap, 1),
                   fmt_double(w.footprint_gb, 1),
                   fmt_percent(s.page64k_block_use, 1),
                   fmt_percent(s.top1pct_share, 1)});
  }
  table.print(std::cout);
  std::cout << "\n'64K-page block use' approximates spatial locality (share "
               "of a touched 64 KB page's 2 KB blocks that get used); "
               "'top-1% page share' approximates temporal locality (miss "
               "share of the hottest 1% of 4 KB pages).\n";
  return 0;
}

// Every Figure 6 block-page configuration, labelled "block-page" in KB.
Configs block_page_configs() {
  Configs configs;
  for (const u64 block_kb : {1, 2, 4}) {
    for (const u64 page_kb : {64, 96, 128}) {
      bumblebee::BumblebeeConfig cfg;
      cfg.block_bytes = block_kb * KiB;
      cfg.page_bytes = page_kb * KiB;
      configs.emplace_back(
          std::to_string(block_kb) + "-" + std::to_string(page_kb), cfg);
    }
  }
  return configs;
}

// ---- §IV-B metadata storage -------------------------------------------------
// Bumblebee's metadata budget for every Figure 6 configuration, and the
// SRAM-equivalent metadata of each baseline design.

int print_metadata(const Figure&, const Run&) {
  std::cout << "Bumblebee metadata budget by configuration "
               "(paper: 334 KB total at 2-64)\n";
  TextTable bb_table({"block-page (KB)", "PRT", "BLE array", "hotness",
                      "total", "fits 512 KB SRAM"});
  for (const auto& [label, cfg] : block_page_configs()) {
    const auto geo = bumblebee::Geometry::make(cfg, 1 * GiB, 10 * GiB);
    const auto b = bumblebee::metadata_budget(cfg, geo);
    bb_table.add_row(
        {label, fmt_bytes(static_cast<double>(b.prt_bytes)),
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

// ---- Figure 6 ---------------------------------------------------------------
// Geomean normalized IPC over all Table II benchmarks for block-page
// combinations {1,2,4} KB x {64,96,128} KB, beside each configuration's
// metadata budget (all must fit in 512 KB SRAM).

int print_fig6(const Figure& f, const Run& run) {
  TextTable table({"block-page (KB)", "normalized IPC", "paper", "metadata"});
  for (const auto& [label, cfg] : f.configs) {
    const auto geo = bumblebee::Geometry::make(cfg, 1 * GiB, 10 * GiB);
    const auto budget = bumblebee::metadata_budget(cfg, geo);
    table.add_row({label, fmt_double(geomean_speedup(run.points[0], label), 2),
                   fmt_double(f.paper.at(label), 2),
                   fmt_bytes(static_cast<double>(budget.total()))});
  }
  std::cout << "\nFigure 6: normalized IPC for block-page configurations\n";
  table.print(std::cout);
  return 0;
}

// ---- Figure 7 + Figure 8 ----------------------------------------------------
// One matrix: DRAM-only, the Figure 8 designs and the Figure 7 ablations.
// Figure 7 is each ablation's geomean speedup over DRAM-only. Figure 8
// groups Bumblebee and its competitors by MPKI class:
//   (a) normalized IPC speedup        (higher is better)
//   (b) normalized HBM traffic        (lower is better)
//   (c) normalized off-chip traffic   (lower is better)
//   (d) normalized memory dynamic energy (lower is better)

std::vector<std::string> paper_designs() {
  std::vector<std::string> designs = {"DRAM-only"};
  for (const auto& d : baselines::figure8_designs()) designs.push_back(d);
  for (const auto& d : baselines::figure7_designs()) {
    if (d != "Bumblebee") designs.push_back(d);
  }
  return designs;
}

void print_fig7(const Figure& f, const sim::ExperimentRunner& runner) {
  std::cout << "\nFigure 7: performance factors breakdown "
               "(geomean speedup over DRAM-only, all benchmarks)\n";
  TextTable table({"config", "geomean speedup", "paper"});
  for (const auto& d : baselines::figure7_designs()) {
    table.add_row({d, fmt_double(geomean_speedup(runner, d), 2),
                   fmt_double(f.paper.at(d), 2)});
  }
  table.print(std::cout);
}

void print_fig8(const sim::ExperimentRunner& runner) {
  const auto& designs = baselines::figure8_designs();
  const std::vector<sim::RunResult> baseline = runner.for_design("DRAM-only");
  std::vector<std::vector<sim::RunResult>> results;
  for (const auto& d : designs) results.push_back(runner.for_design(d));

  struct Panel {
    const char* title;
    double (*metric)(const sim::RunResult&);
    const char* better;
  };
  const Panel panels[] = {
      {"Figure 8(a): Normalized IPC speedup", sim::metric_ipc, "higher"},
      {"Figure 8(b): Normalized HBM traffic (vs Bumblebee)",
       sim::metric_hbm_traffic, "lower"},
      {"Figure 8(c): Normalized off-chip DRAM traffic", sim::metric_dram_traffic,
       "lower"},
      {"Figure 8(d): Normalized memory dynamic energy", sim::metric_energy,
       "lower"},
  };

  for (const auto& panel : panels) {
    std::cout << "\n" << panel.title << "  [" << panel.better
              << " is better]\n";
    TextTable table({"design", "High", "Medium", "Low", "All"});

    // HBM traffic has no DRAM-only reference (the baseline has no HBM);
    // normalize it to Bumblebee's HBM traffic instead, as the paper's
    // relative-to-best reading suggests.
    const std::vector<sim::RunResult>* ref = &baseline;
    if (panel.metric == sim::metric_hbm_traffic) {
      for (std::size_t d = 0; d < designs.size(); ++d) {
        if (designs[d] == "Bumblebee") ref = &results[d];
      }
    }

    const bool sums = panel.metric != sim::metric_ipc;
    for (std::size_t d = 0; d < designs.size(); ++d) {
      const auto g = sums
                         ? sim::group_by_mpki_sums(results[d], *ref,
                                                   panel.metric)
                         : sim::group_by_mpki(results[d], *ref, panel.metric);
      table.add_row({designs[d], fmt_double(g.high, 2), fmt_double(g.medium, 2),
                     fmt_double(g.low, 2), fmt_double(g.all, 2)});
    }
    table.print(std::cout);
  }

  std::cout << "\nPaper reference points: Bumblebee outperforms the best "
               "state-of-the-art design by at least 46.7% (High), 44.9% "
               "(Medium), 9.9% (Low) and 35.2% (All); 17.9% less HBM "
               "traffic and 9.1% less off-chip traffic than the best; "
               "10.9%~20.1% less memory dynamic energy.\n";
}

int print_paper(const Figure& f, const Run& run) {
  print_fig7(f, run.points[0]);
  print_fig8(run.points[0]);
  return 0;
}

// ---- §II-B metadata access latency ------------------------------------------
// The share of total request latency spent on metadata accesses, per
// design. No DRAM-only column: MAL is a share of each design's own latency.

int print_mal(const Figure& f, const Run& run) {
  std::cout << "Section II-B: metadata access latency share of total "
               "request latency (paper: 2%~26% for prior designs)\n";
  TextTable table({"design", "min", "mean", "max"});
  for (const auto& d : f.designs) {
    std::vector<double> mal;
    for (const auto& r : run.points[0].for_design(d)) {
      mal.push_back(r.mal_fraction);
    }
    double sum = 0;
    for (double x : mal) sum += x;
    table.add_row({d, fmt_percent(*std::min_element(mal.begin(), mal.end()), 1),
                   fmt_percent(sum / static_cast<double>(mal.size()), 1),
                   fmt_percent(*std::max_element(mal.begin(), mal.end()), 1)});
  }
  table.print(std::cout);
  return 0;
}

// ---- §IV-B over-fetching ----------------------------------------------------
// The share of data brought into HBM that is never used before leaving it.

int print_overfetch(const Figure&, const Run& run) {
  const auto bb_rows = run.points[0].for_design("Bumblebee");
  const auto h2_rows = run.points[0].for_design("Hybrid2");

  TextTable table({"workload", "Bumblebee over-fetch", "Hybrid2 over-fetch"});
  double bb_avg = 0, h2_avg = 0;
  for (std::size_t i = 0; i < bb_rows.size(); ++i) {
    table.add_row({bb_rows[i].workload, fmt_percent(bb_rows[i].overfetch, 1),
                   fmt_percent(h2_rows[i].overfetch, 1)});
    bb_avg += bb_rows[i].overfetch;
    h2_avg += h2_rows[i].overfetch;
  }
  bb_avg /= static_cast<double>(bb_rows.size());
  h2_avg /= static_cast<double>(h2_rows.size());
  table.add_row({"average", fmt_percent(bb_avg, 1), fmt_percent(h2_avg, 1)});

  std::cout << "\nSection IV-B: data brought into HBM but unused before "
               "eviction (paper: Bumblebee 13.3%, Hybrid2 13.7%)\n";
  table.print(std::cout);
  return 0;
}

// ---- Extension: sensitivity sweeps ------------------------------------------
// The design choices the paper fixes by fiat: hot-table off-chip queue
// depth (paper: 8), the "most blocks cached" cHBM -> mHBM switch threshold,
// and the zombie-page window (movement trigger 3).

Configs sensitivity_configs() {
  Configs configs;
  for (u32 depth : {2u, 4u, 8u, 16u}) {
    bumblebee::BumblebeeConfig c;
    c.dram_queue_depth = depth;
    configs.emplace_back("depth " + std::to_string(depth), c);
  }
  for (double frac : {0.25, 0.5, 0.75, 0.9}) {
    bumblebee::BumblebeeConfig c;
    c.switch_fraction = frac;
    configs.emplace_back("switch > " + fmt_percent(frac, 0), c);
  }
  for (u32 wdw : {256u, 1024u, 4096u}) {
    bumblebee::BumblebeeConfig c;
    c.zombie_window = wdw;
    configs.emplace_back("window " + std::to_string(wdw), c);
  }
  return configs;
}

int print_sensitivity(const Figure& f, const Run& run) {
  auto sweep = [&](const std::string& title, std::size_t first,
                   std::size_t count) {
    std::cout << "\n" << title << " (normalized IPC)\n";
    std::vector<std::string> headers = {"setting"};
    for (const auto& w : f.workloads) headers.push_back(w);
    TextTable table(headers);
    for (std::size_t c = first; c < first + count; ++c) {
      std::vector<std::string> row = {f.configs[c].first};
      for (const auto& entry : run.points[0].normalized(
               f.configs[c].first, "DRAM-only", sim::metric_ipc)) {
        row.push_back(fmt_double(entry.second, 2));
      }
      table.add_row(row);
    }
    table.print(std::cout);
  };
  sweep("Hot-table off-chip queue depth (paper default: 8)", 0, 4);
  sweep("cHBM->mHBM switch threshold (paper: most blocks cached)", 4, 4);
  sweep("Zombie-page window (set accesses)", 8, 3);
  return 0;
}

// ---- Extension: HBM capacity ------------------------------------------------
// The paper evaluates one 1 GB HBM; this sweep varies it from 256 MB to
// 2 GB (the number of remapping sets tracks capacity, associativity stays
// 8). Each capacity is its own matrix: the System configuration changes.

std::vector<Point> capacity_points() {
  std::vector<Point> points;
  for (const u64 cap_mb : {256, 512, 1024, 2048}) {
    points.push_back({std::to_string(cap_mb) + " MiB",
                      [cap_mb](sim::SystemConfig& cfg) {
                        cfg.hbm.capacity_bytes = cap_mb * MiB;
                      }});
  }
  return points;
}

int print_hbm_capacity(const Figure& f, const Run& run) {
  std::cout << "Normalized IPC vs HBM capacity (Bumblebee / Banshee)\n";
  std::vector<std::string> headers = {"HBM capacity"};
  for (const auto& w : f.workloads) headers.push_back(w);
  TextTable table(headers);
  for (std::size_t p = 0; p < f.points.size(); ++p) {
    const auto bumble =
        run.points[p].normalized("Bumblebee", "DRAM-only", sim::metric_ipc);
    const auto banshee =
        run.points[p].normalized("Banshee", "DRAM-only", sim::metric_ipc);
    std::vector<std::string> row = {f.points[p].label};
    for (std::size_t i = 0; i < f.workloads.size(); ++i) {
      row.push_back(fmt_double(bumble[i].second, 2) + " / " +
                    fmt_double(banshee[i].second, 2));
    }
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "\nBumblebee's lead is largest when HBM is scarce (the\n"
               "hotness threshold T gates admission aggressively); with\n"
               "over-provisioned HBM the low-Rh eager paths keep moving\n"
               "marginal data and the advantage narrows — a capacity-aware\n"
               "admission policy is an obvious extension.\n";
  return 0;
}

// ---- Extension: POM ancestors -----------------------------------------------
// Bumblebee against PoM (reference [6], competing-counter sector swaps) and
// MemPod (reference [8], interval-based MEA migration), which the paper
// cites but does not plot, on one workload per Figure 1 quadrant.

int print_extensions(const Figure& f, const Run& run) {
  std::cout << "Normalized IPC: Bumblebee vs POM-family designs\n";
  std::vector<std::string> headers = {"design"};
  for (const auto& w : f.workloads) headers.push_back(w);
  TextTable table(headers);
  for (std::size_t d = 1; d < f.designs.size(); ++d) {
    std::vector<std::string> row = {f.designs[d]};
    for (const auto& entry :
         run.points[0].normalized(f.designs[d], "DRAM-only", sim::metric_ipc)) {
      row.push_back(fmt_double(entry.second, 2));
    }
    table.add_row(row);
  }
  table.print(std::cout);
  return 0;
}

// ---- Extension: fault injection ---------------------------------------------
// The "mixed" fault profile (transients + stuck rows + dead banks) from
// fault-free to 1e-3 per access. Per (rate, design, workload): IPC and IPC
// relative to the design's own fault-free run, CE / UE counts, unrecovered
// reads, frames retired and sets degraded, and availability (the share of
// requests served without data loss). DRAM-only has no redundant copy;
// Bumblebee re-fetches clean cHBM blocks from their off-chip home and
// retires the faulty frame.

std::vector<Point> fault_points() {
  std::vector<Point> points;
  for (const double rate : {0.0, 1e-5, 1e-4, 1e-3}) {
    points.push_back({rate > 0 ? fmt_double(rate, 6) : "0",
                      [rate](sim::SystemConfig& cfg) {
                        if (rate > 0) {
                          cfg.fault =
                              fault::FaultConfig::profile("mixed", rate, 1);
                        }
                      }});
  }
  return points;
}

int print_fault(const Figure& f, const Run& run) {
  std::cout << "Graceful degradation under the mixed fault profile\n";
  TextTable table({"rate", "design", "workload", "IPC", "vs clean", "CE",
                   "UE", "data loss", "retired", "degraded",
                   "availability"});
  // Fault-free IPC per (design, workload), from the first (rate 0) point.
  std::map<std::pair<std::string, std::string>, double> clean_ipc;
  for (std::size_t p = 0; p < f.points.size(); ++p) {
    for (const auto& r : run.points[p].results()) {
      const auto key = std::make_pair(r.design, r.workload);
      if (p == 0) clean_ipc[key] = r.ipc;
      const double base = clean_ipc.count(key) ? clean_ipc[key] : 0.0;
      // Reads that completed with intact data, over all requests; writes
      // never lose data (they overwrite the faulty word).
      const u64 requests = r.misses ? r.misses : 1;
      const double availability =
          1.0 - static_cast<double>(r.due_data_loss) /
                    static_cast<double>(requests);
      table.add_row({f.points[p].label, r.design, r.workload,
                     fmt_double(r.ipc, 3),
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

// ---- Extension: contended mixes ---------------------------------------------
// Multi-programmed co-runs of the preset mixes (sim/mix.h) across Bumblebee
// and the static HBM partitionings it subsumes. Weighted speedup, harmonic-
// mean speedup and max slowdown per (design, mix), against per-core alone
// runs under the same design. Exit status 1 unless Bumblebee matches or
// beats the best static cHBM/mHBM split (25%-C, 50%-C) on cachecap4
// (mcf+lbm+lbm+lbm). C-Only and M-Only are endpoints, not splits; see the
// EXPERIMENTS.md contended-mix study.

int print_mix(const Figure& f, const Run& run) {
  const auto& co_runs = run.points[0].results();
  const auto& mixes = sim::MixSpec::presets();
  struct Panel {
    const char* title;
    double sim::RunResult::* metric;
    const char* better;
  };
  const Panel panels[] = {
      {"Weighted speedup (sum of per-core IPC_shared / IPC_alone)",
       &sim::RunResult::weighted_speedup, "higher"},
      {"Harmonic-mean speedup", &sim::RunResult::hmean_speedup, "higher"},
      {"Max slowdown (fairness)", &sim::RunResult::max_slowdown, "lower"},
  };

  for (const auto& panel : panels) {
    std::cout << "\n" << panel.title << "  [" << panel.better
              << " is better]\n";
    std::vector<std::string> header = {"design"};
    for (const auto& m : mixes) header.push_back(m.name);
    TextTable table(header);
    for (const auto& d : f.designs) {
      std::vector<std::string> row = {d};
      for (const auto& m : mixes) {
        double v = 0;
        for (const auto& r : co_runs) {
          if (r.design == d && r.workload == m.name) v = r.*(panel.metric);
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
  for (const auto& r : co_runs) {
    if (r.workload != "cachecap4") continue;
    for (const auto& c : *r.core_perf) {
      cores.add_row({r.design, std::to_string(c.core), c.workload,
                     fmt_double(c.ipc, 2), fmt_double(c.alone_ipc, 2),
                     fmt_double(c.speedup, 2) + "x",
                     fmt_percent(c.hbm_serve_rate),
                     fmt_double(c.latency_p99_ns, 1)});
    }
  }
  cores.print(std::cout);

  double bumblebee_ws = 0, best_split_ws = 0;
  std::string best_split;
  for (const auto& r : co_runs) {
    if (r.workload != "cachecap4") continue;
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

// ---- the table --------------------------------------------------------------

const std::vector<Figure>& figures() {
  static const std::vector<Figure> table = {
      {.name = "fig1",
       .artifact = "Fig. 1: access counts before eviction vs line size",
       .length = {.target_misses = 1'000'000},
       .print = print_fig1},
      {.name = "table2",
       .artifact = "Table II: benchmark MPKI, footprint and locality",
       .length = {.target_misses = 400'000},
       .print = print_table2},
      {.name = "metadata",
       .artifact = "Sec. IV-B: metadata budget (paper: 334 KB)",
       .print = print_metadata},
      {.name = "fig6",
       .artifact = "Fig. 6: block-page design space",
       .paper = {{"1-64", 1.98}, {"1-96", 1.93}, {"1-128", 1.86},
                 {"2-64", 2.00}, {"2-96", 1.93}, {"2-128", 1.87},
                 {"4-64", 1.93}, {"4-96", 1.85}, {"4-128", 1.78}},
       .designs = {"DRAM-only"},
       .configs = block_page_configs(),
       .length = {50'000, 50'000'000, 300},
       .print = print_fig6},
      {.name = "paper",
       .artifact = "Fig. 7 factor breakdown + Fig. 8(a-d) comparison",
       .paper = {{"C-Only", 1.33}, {"M-Only", 1.37}, {"25%-C", 1.54},
                 {"50%-C", 1.68}, {"No-Multi", 1.84}, {"Meta-H", 1.75},
                 {"Alloc-D", 1.52}, {"Alloc-H", 1.54}, {"No-HMF", 1.86},
                 {"Bumblebee", 2.00}},
       .designs = paper_designs(),
       .length = {120'000, 50'000'000, 300},
       .print = print_paper},
      {.name = "mal",
       .artifact = "Sec. II-B: metadata access latency share (paper: 2-26%)",
       .designs = {"Bumblebee", "Meta-H", "Banshee", "AC", "UC", "Chameleon",
                   "Hybrid2"},
       .length = {50'000, 20'000'000, 300},
       .print = print_mal},
      {.name = "overfetch",
       .artifact = "Sec. IV-B: over-fetch (paper: Bumblebee 13.3%, "
                   "Hybrid2 13.7%)",
       .designs = {"Bumblebee", "Hybrid2"},
       .length = {80'000, 20'000'000, 300},
       .print = print_overfetch},
      {.name = "sensitivity",
       .artifact = "extension: hot-table depth, switch threshold, zombie "
                   "window",
       .designs = {"DRAM-only"},
       .configs = sensitivity_configs(),
       .workloads = {"mcf", "wrf", "roms"},
       .length = {60'000, 20'000'000, 200},
       .print = print_sensitivity},
      {.name = "hbm_capacity",
       .artifact = "extension: HBM capacity 256 MB - 2 GB",
       .designs = {"DRAM-only", "Bumblebee", "Banshee"},
       .workloads = {"mcf", "wrf", "roms"},
       .points = capacity_points(),
       .length = {60'000, 20'000'000, 200},
       .print = print_hbm_capacity},
      {.name = "extensions",
       .artifact = "extension: PoM [6] and MemPod [8]",
       .designs = {"DRAM-only", "PoM", "MemPod", "Chameleon", "Bumblebee"},
       .workloads = {"mcf", "wrf", "xz", "roms"},
       .length = {60'000, 20'000'000, 200},
       .print = print_extensions},
      {.name = "fault",
       .artifact = "extension: availability under injected faults",
       .designs = {"DRAM-only", "Bumblebee", "Banshee"},
       .workloads = {"mcf", "lbm"},
       .points = fault_points(),
       .length = {60'000, 20'000'000, 200},
       .print = print_fault},
      {.name = "mix",
       .artifact = "extension: multi-programmed mixes vs static splits",
       .designs = {"C-Only", "25%-C", "50%-C", "M-Only", "Bumblebee"},
       .mixes = true,
       .length = {120'000, 50'000'000, 300},
       .print = print_mix},
  };
  return table;
}

std::string figure_names() {
  std::string names;
  for (const auto& f : figures()) names += (names.empty() ? "" : ", ") +
                                           std::string(f.name);
  return names;
}

/// Simulates every matrix of `f` at the scaled length, then prints it.
int run_figure(const Figure& f, sim::RunMatrixOptions opts, u64 scale_pct) {
  Run run;
  run.scale_pct = scale_pct;
  opts.target_misses = run.scaled(f.length.target_misses);
  opts.min_instructions = run.scaled(f.length.min_instructions);
  opts.max_instructions = run.scaled(opts.max_instructions);
  run.opts = opts;

  if (!f.designs.empty()) {
    const auto workloads = profiles(f.workloads);
    const std::vector<Point> points =
        f.points.empty() ? std::vector<Point>{{"", nullptr}} : f.points;
    std::cerr << f.name << ": " << f.artifact << " ("
              << (f.designs.size() + f.configs.size()) << " designs x "
              << (f.mixes ? sim::MixSpec::presets().size() : workloads.size())
              << (f.mixes ? " mixes" : " workloads") << " x " << points.size()
              << (points.size() == 1 ? " point" : " points") << ")\n";
    run.points.reserve(points.size());
    for (const auto& point : points) {
      sim::SystemConfig cfg;
      cfg.warmup_ratio = static_cast<double>(f.length.warmup_pct) / 100.0;
      if (point.edit) point.edit(cfg);
      auto& runner = run.points.emplace_back(cfg);
      if (f.mixes) {
        runner.run_mix_matrix(f.designs, sim::MixSpec::presets(), opts);
        continue;
      }
      runner.run_matrix(f.designs, workloads, opts);
      if (!f.configs.empty()) {
        runner.run_bumblebee_matrix(f.configs, workloads, opts);
      }
    }
  }
  return f.print(f, run);
}

int run(const Flags& flags) {
  const auto& table = figures();
  std::vector<const Figure*> chosen;
  std::stringstream list(flags.get_string("figure", ""));
  for (std::string name; std::getline(list, name, ',');) {
    const auto it = std::find_if(table.begin(), table.end(),
                                 [&](const Figure& f) { return name == f.name; });
    if (it == table.end()) {
      throw std::invalid_argument("unknown figure '" + name +
                                  "'; valid names: " + figure_names());
    }
    chosen.push_back(&*it);
  }
  if (chosen.empty()) {
    throw std::invalid_argument("--figure=NAME[,NAME...] is required; valid "
                                "names: " + figure_names());
  }
  // The upper bound keeps every scaled budget far from u64 overflow.
  const u64 scale_pct = flags.get_u64("scale", 100);
  if (scale_pct == 0 || scale_pct > 100'000) {
    throw std::invalid_argument("--scale must be a percentage in [1, 100000]");
  }

  sim::RunMatrixOptions opts;
  opts.jobs = static_cast<unsigned>(flags.get_u64("jobs", 0));
  opts.instructions = flags.get_u64("instructions", 0);
  opts.progress = true;
  int status = 0;
  for (const Figure* f : chosen) {
    const int rc = run_figure(*f, opts, scale_pct);
    if (rc != 0) status = rc;
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::cli_main(argc, argv, "figures",
                       {"figure", "instructions", "jobs", "scale"}, run);
}
