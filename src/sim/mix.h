// Multi-programmed workload mixes: heterogeneous co-run specification,
// per-core speedup accounting against alone-run baselines, and the
// weighted-speedup / fairness metrics the multi-core evaluation reports.
//
// A MixSpec names one workload per core ("mcf+lbm+bwaves+wrf"). Running it
// through System::run_mix gives every core its own trace generator, seed
// and — for heterogeneous mixes — a disjoint address-space slice, so the
// cores genuinely contend for HBM capacity and bandwidth the way the
// paper's 8-core experiments do. run_mix_cell then scores the co-run
// against the cores' alone-run IPCs:
//   * weighted speedup  = sum_i IPC_shared_i / IPC_alone_i
//   * hmean speedup     = n / sum_i (IPC_alone_i / IPC_shared_i)
//   * max slowdown      = max_i IPC_alone_i / IPC_shared_i  (fairness)
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "sim/system.h"
#include "trace/workload.h"

namespace bb::sim {

/// One multi-programmed mix: an ordered list of per-core workload names.
struct MixSpec {
  std::string name;                    ///< preset name or the spec string
  std::vector<std::string> workloads;  ///< one entry per core, Table II names

  /// Parses a mix specification. A preset name ("cachey4") resolves to the
  /// preset; anything else is split on '+' ("mcf+lbm") and every component
  /// is validated via trace::require_workload_names, so a typo fails before
  /// any simulation starts. Throws std::invalid_argument on bad input.
  static MixSpec parse(const std::string& spec);

  /// Named preset mixes for the contended-mix study: cache-friendly cores
  /// (cachey4), capacity-hungry streamers (capacity4), the contended blend
  /// of both (mixed-locality4) and a two-core smoke mix (cachecap2).
  static const std::vector<MixSpec>& presets();

  /// Per-core profiles, in lane order.
  std::vector<trace::WorkloadProfile> resolve() const;

  /// Builds one CoreLane per workload. Lane seeds follow the same
  /// derivation as CoreModel::homogeneous_lanes, so a homogeneous mix
  /// ("mcf+mcf") replays exactly the streams of a multi-core single-profile
  /// run. Heterogeneous mixes get disjoint 64 KiB-aligned address bases so
  /// the cores' footprints sum — the OS paging model then sees the combined
  /// working set and applies pressure once it exceeds visible capacity.
  std::vector<CoreLane> lanes(u64 seed) const;

  /// True when every core runs the same workload (lanes then share address
  /// base 0, the single-profile convention).
  bool homogeneous() const;

  /// Sum of the per-core footprints (what the OS must back).
  u64 total_footprint_bytes() const;

  u32 cores() const { return static_cast<u32>(workloads.size()); }
};

/// Preset names in presets() order (what drivers print for --list-mixes).
std::vector<std::string> mix_names();

/// Runs one (design, mix) co-run cell on `system` and scores it against
/// `alone`, the one-core rows of the mix's workloads: the result is the
/// aggregate (workload = mix name) whose core_perf carries each core's
/// alone_ipc and speedup, with the mix scores set. A core whose (design,
/// workload) row is missing from `alone` gets alone_ipc = 0; a core with
/// no positive baseline (a timed-out row has IPC 0) or no positive IPC
/// gets speedup = 0 and is excluded from the scores.
RunResult run_mix_cell(System& system, const std::string& design,
                       const MixSpec& mix, u64 per_core_instructions,
                       const std::vector<RunResult>& alone);

}  // namespace bb::sim
