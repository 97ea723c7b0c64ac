#include "sim/mix.h"

#include <algorithm>
#include <stdexcept>

namespace bb::sim {

namespace {

constexpr u64 kBaseAlign = 64 * KiB;

u64 align_up(u64 v, u64 align) { return (v + align - 1) / align * align; }

MixSpec make_mix(std::string name, std::vector<std::string> workloads) {
  MixSpec m;
  m.name = std::move(name);
  m.workloads = std::move(workloads);
  return m;
}

}  // namespace

const std::vector<MixSpec>& MixSpec::presets() {
  // Mix design follows the paper's taxonomy (Section II-B): cachey4 pairs
  // strong-temporal, HBM-resident footprints; capacity4 pairs streaming,
  // capacity-hungry footprints; mixed-locality4 contends both kinds on one
  // package. cachecap4 is the two-profile contended blend (one
  // strong-temporal core against three capacity streamers) used as the
  // headline in bench/mix_comparison; cachecap2 is the minimal contended
  // pair for smoke tests.
  static const std::vector<MixSpec> kPresets = {
      make_mix("cachey4", {"mcf", "xalancbmk", "wrf", "fotonik3d"}),
      make_mix("capacity4", {"roms", "lbm", "bwaves", "xz"}),
      make_mix("mixed-locality4", {"mcf", "wrf", "lbm", "xz"}),
      make_mix("cachecap4", {"mcf", "lbm", "lbm", "lbm"}),
      make_mix("cachecap2", {"mcf", "lbm"}),
  };
  return kPresets;
}

std::vector<std::string> mix_names() {
  std::vector<std::string> out;
  for (const auto& m : MixSpec::presets()) out.push_back(m.name);
  return out;
}

MixSpec MixSpec::parse(const std::string& spec) {
  for (const auto& preset : presets()) {
    if (preset.name == spec) return preset;
  }
  MixSpec m;
  m.name = spec;
  std::string cur;
  for (const char ch : spec) {
    if (ch == '+') {
      m.workloads.push_back(cur);
      cur.clear();
    } else {
      cur += ch;
    }
  }
  m.workloads.push_back(cur);
  if (spec.empty() ||
      std::any_of(m.workloads.begin(), m.workloads.end(),
                  [](const std::string& w) { return w.empty(); })) {
    throw std::invalid_argument(
        "bad mix spec: \"" + spec +
        "\" (expected a preset name or workload names joined by '+')");
  }
  trace::require_workload_names(m.workloads);
  return m;
}

std::vector<trace::WorkloadProfile> MixSpec::resolve() const {
  std::vector<trace::WorkloadProfile> out;
  out.reserve(workloads.size());
  for (const auto& w : workloads) {
    out.push_back(trace::WorkloadProfile::by_name(w));
  }
  return out;
}

bool MixSpec::homogeneous() const {
  return std::all_of(workloads.begin(), workloads.end(),
                     [this](const std::string& w) {
                       return w == workloads.front();
                     });
}

u64 MixSpec::total_footprint_bytes() const {
  u64 total = 0;
  for (const auto& p : resolve()) total += p.footprint_bytes();
  return total;
}

std::vector<CoreLane> MixSpec::lanes(u64 seed) const {
  const auto profiles = resolve();
  const bool shared_base = homogeneous();
  std::vector<CoreLane> out;
  out.reserve(profiles.size());
  u64 next_base = 0;
  for (std::size_t c = 0; c < profiles.size(); ++c) {
    CoreLane lane;
    lane.profile = profiles[c];
    // Same derivation as CoreModel::homogeneous_lanes, so homogeneous
    // mixes replay bit-identical streams to a single-profile run.
    lane.seed = seed + 0x1000003ULL * c;
    lane.base = shared_base ? 0 : next_base;
    next_base = align_up(next_base + profiles[c].footprint_bytes(),
                         kBaseAlign);
    out.push_back(std::move(lane));
  }
  return out;
}

RunResult run_mix_cell(System& system, const std::string& design,
                       const MixSpec& mix, u64 per_core_instructions,
                       const std::vector<RunResult>& alone) {
  RunResult out = system.run_mix(design, mix.lanes(system.config().seed),
                                 mix.name, per_core_instructions);
  double inv_speedup_sum = 0;
  std::size_t scored = 0;
  for (CorePerf& core : *out.core_perf) {
    const auto it = std::find_if(alone.begin(), alone.end(),
                                 [&](const RunResult& a) {
                                   return a.design == design &&
                                          a.workload == core.workload;
                                 });
    core.alone_ipc = it != alone.end() ? it->ipc : 0;
    if (core.alone_ipc > 0 && core.ipc > 0) {
      core.speedup = core.ipc / core.alone_ipc;
      out.weighted_speedup += core.speedup;
      inv_speedup_sum += 1.0 / core.speedup;
      out.max_slowdown = std::max(out.max_slowdown, 1.0 / core.speedup);
      ++scored;
    }
  }
  out.hmean_speedup = inv_speedup_sum > 0
                          ? static_cast<double>(scored) / inv_speedup_sum
                          : 0;
  return out;
}

}  // namespace bb::sim
