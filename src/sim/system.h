// Full-system assembly and experiment runner.
//
// A System owns the two DRAM devices (Table I presets by default) and one
// memory-system design, replays a calibrated synthetic workload through the
// core model, and extracts every metric the paper's evaluation reports:
// IPC, HBM / off-chip traffic (with per-class split), memory dynamic
// energy, HBM serve rate, metadata access latency share, over-fetch
// fraction and page-fault counts.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baselines/factory.h"
#include "bumblebee/config.h"
#include "common/metrics.h"
#include "common/trace_event.h"
#include "hmm/controller.h"
#include "mem/dram_device.h"
#include "sim/core_model.h"
#include "trace/generator.h"
#include "trace/workload.h"

namespace bb::trace {
class TraceCaptureSink;
}  // namespace bb::trace

namespace bb::sim {

/// Opt-in observability outputs for a run. Off by default: with neither
/// epoch sampling nor tracing enabled a run does no extra work beyond one
/// pointer test per request.
struct ObservabilityConfig {
  /// Epoch time-series sampling cadence (disabled while both fields are 0).
  EpochConfig epoch;
  /// Collect structured trace events (remap transitions, swaps, OS faults,
  /// warmup boundary) into the run's artifacts.
  bool trace = false;

  bool enabled() const { return epoch.enabled() || trace; }
};

/// Mid-run snapshot / restore configuration (crash-tolerant long runs).
/// When configured, a run commits an atomic, checksummed snapshot of the
/// complete simulator state every `interval_records` consumed trace
/// records, and (with `restore`) resumes from an existing snapshot file —
/// the resumed run's outputs are byte-identical to an uninterrupted one.
/// Every design supports it; a file that is corrupt, from another
/// configuration or inconsistent with the design's invariants throws
/// snap::SnapshotError.
struct SnapshotConfig {
  /// Commit a snapshot every N consumed trace records (0 = never).
  u64 interval_records = 0;
  /// Directory holding the per-cell snapshot files (empty = disabled).
  std::string dir;
  /// Resume runs from their snapshot files when present.
  bool restore = false;

  bool configured() const {
    return !dir.empty() && (interval_records > 0 || restore);
  }
};

struct SystemConfig {
  mem::DramTimingParams hbm = mem::DramTimingParams::hbm2_1gb();
  mem::DramTimingParams dram = mem::DramTimingParams::ddr4_3200_10gb();
  CoreParams core;
  hmm::PagingConfig paging;
  u64 seed = 42;
  /// Warmup length as a fraction of the measured instruction count; stats
  /// are reset when warmup ends so results are steady-state (the paper
  /// simulates billions of instructions per SimPoint slice).
  double warmup_ratio = 1.0;
  ObservabilityConfig obs;
  /// Fault injection + ECC model (disabled by default — all rates zero, so
  /// fault-free runs build no fault state and stay bit-identical to the
  /// pre-fault golden outputs). See src/fault/fault.h.
  fault::FaultConfig fault;
  /// When set, every run records its merged miss stream (lane bases folded
  /// in, warmup included) to this sink — the `bbsim --capture-trace` hook.
  /// Not owned; must outlive the runs. nullptr = no capture (default).
  trace::TraceCaptureSink* capture = nullptr;
  /// Mid-run snapshot/restore (see SnapshotConfig) for any design.
  /// Mutually exclusive with `capture`.
  SnapshotConfig snapshot;
};

/// The configuration axes every run of `cfg` depends on beyond its seed
/// and warmup, as text: core, both devices with their request-queue
/// shapes, OS paging, observability and the fault model (doubles at full
/// precision). Snapshot files and result journals carry it, so neither
/// restores under a configuration that differs in any of them.
std::string config_fingerprint(const SystemConfig& cfg);

/// Per-run observability payload (epoch rows + trace events), buffered in
/// memory and attached to the RunResult so the experiment runner can
/// serialize runs in matrix order — output files stay byte-identical
/// across --jobs values. Absent (nullptr) when observability is off.
struct RunArtifacts {
  std::vector<std::string> epoch_columns;  ///< metric names, registry order
  std::vector<EpochRow> epochs;
  std::vector<TraceEvent> events;
};

/// Per-core slice of a multi-programmed run: the core's own pipeline
/// numbers plus the memory-system statistics the controller attributed to
/// its requests (see hmm::CoreStats for the attribution rules), scored
/// against the core's alone-run baseline by sim::run_mix_cell.
struct CorePerf {
  u32 core = 0;
  std::string workload;
  u64 instructions = 0;
  u64 misses = 0;
  double ipc = 0;
  double hbm_serve_rate = 0;
  Ns mean_latency_ns = 0;
  Ns latency_p50_ns = 0;
  Ns latency_p99_ns = 0;
  u64 hbm_bytes = 0;   ///< device bytes caused by this core's requests
  u64 dram_bytes = 0;
  double alone_ipc = 0;  ///< IPC running alone (same design, one core)
  double speedup = 0;    ///< ipc / alone_ipc (< 1 under contention)
};

/// Everything measured from one (design, workload) simulation.
struct RunResult {
  std::string design;
  std::string workload;

  u64 instructions = 0;
  u64 misses = 0;
  double ipc = 0;

  u64 hbm_bytes = 0;        ///< total HBM traffic
  u64 dram_bytes = 0;       ///< total off-chip traffic
  double energy_mj = 0;     ///< memory dynamic energy, millijoules
  double hbm_serve_rate = 0;
  Ns mean_latency_ns = 0;
  // Per-request latency percentiles (ns), interpolated from the
  // controller's latency histogram.
  Ns latency_p50_ns = 0;
  Ns latency_p90_ns = 0;
  Ns latency_p99_ns = 0;
  Ns latency_p999_ns = 0;
  double mal_fraction = 0;  ///< metadata share of request latency
  double overfetch = 0;     ///< unused fraction of fetched blocks
  u64 page_faults = 0;
  u64 metadata_sram_bytes = 0;

  /// The run never completed: its matrix cell hit the watchdog deadline
  /// and exhausted its retries. All measurement fields are zero; writers
  /// emit the timed_out column only when some row in the sweep set it.
  bool timed_out = false;

  // Request-queue scheduler outcome, aggregated over both devices (all
  // zero when the queue layer is off; the stat names follow ramulator's
  // HBM_Memory.h). Exported to CSV/JSON only when queues are configured,
  // so legacy outputs stay byte-identical.
  Ns queueing_latency_avg = 0;        ///< ns, reads + posted writes
  Ns read_queue_latency_avg = 0;      ///< ns, reads only
  double req_queue_length_avg = 0;    ///< queue+MSHR occupancy per arrival
  u64 write_drain_count = 0;          ///< watermark-triggered drain episodes

  // Reliability outcome of the run (all zero when fault injection is off).
  u64 ce_count = 0;         ///< ECC-corrected errors (both devices)
  u64 ue_count = 0;         ///< detected-uncorrectable errors (both devices)
  u64 due_retries = 0;      ///< DUE retry attempts issued by the controller
  u64 due_unrecovered = 0;  ///< DUEs that exhausted their retry budget
  u64 due_data_loss = 0;    ///< unrecovered reads with no clean copy left
  u64 retired_rows = 0;     ///< device rows retired after repeated CEs
  u64 retired_frames = 0;   ///< HBM frames mapped out by the design
  u64 degraded_sets = 0;    ///< remapping sets running in degraded mode

  // Per-class traffic split (indexes follow mem::TrafficClass).
  std::array<u64, mem::kTrafficClassCount> hbm_class_bytes{};
  std::array<u64, mem::kTrafficClassCount> dram_class_bytes{};

  /// Epoch rows + trace events when SystemConfig::obs enabled them
  /// (shared_ptr keeps RunResult cheap to copy; nullptr otherwise).
  std::shared_ptr<RunArtifacts> artifacts;

  /// Per-core attribution, populated by System::run_mix only (nullptr for
  /// homogeneous runs, so the scalar exports are unchanged). A non-null
  /// core_perf is what marks a row as a mix co-run.
  std::shared_ptr<std::vector<CorePerf>> core_perf;

  // Mix co-run scores against the cores' alone-run IPCs (sim/mix.h); zero
  // for every other row. Only the mix writers and journal lines emit them.
  double weighted_speedup = 0;
  double hmean_speedup = 0;
  double max_slowdown = 0;
};

/// Record sources standing in for a run's per-lane generators, one per
/// lane of CoreModel::homogeneous_lanes(workload, seed, cores), each at
/// record 0 of that lane's stream (the matrix's shared-stream cursors).
/// Empty: the run builds private generators.
using LaneSources = std::vector<trace::TraceSource*>;

class System {
 public:
  explicit System(SystemConfig cfg = SystemConfig{});

  /// Runs `design` on `workload` for `instructions` retired instructions.
  /// Each call constructs fresh devices and controller (no state leaks
  /// between runs).
  RunResult run(const std::string& design,
                const trace::WorkloadProfile& workload, u64 instructions,
                const LaneSources& lane_sources = {});

  /// Runs a custom Bumblebee configuration (design-space exploration).
  RunResult run_bumblebee(const bumblebee::BumblebeeConfig& cfg,
                          const trace::WorkloadProfile& workload,
                          u64 instructions,
                          const LaneSources& lane_sources = {});

  /// Multi-programmed co-run: one lane per core (heterogeneous profiles,
  /// seeds and address bases — see sim/mix.h for the MixSpec front end).
  /// The lane count overrides SystemConfig::core.cores; the total budget
  /// is `per_core_instructions * lanes.size()`. The returned result is the
  /// aggregate (workload = `mix_name`) with per-core attribution attached
  /// via RunResult::core_perf; per-core sums are BB_CHECKed against the
  /// aggregate counters.
  RunResult run_mix(const std::string& design,
                    const std::vector<CoreLane>& lanes,
                    const std::string& mix_name, u64 per_core_instructions);

  /// Replays a recorded trace through `design`. A captured trace is the
  /// *merged* absolute-address stream of all cores, so it drives a single
  /// replay lane regardless of SystemConfig::core.cores; warmup_ratio
  /// applies as usual (the source loops, so the warmup pass replays the
  /// same records). `trace_name` labels the result's workload column.
  RunResult run_replay(const std::string& design, trace::TraceSource& source,
                       const std::string& trace_name, u64 instructions);

  /// Access to the most recent run's controller (inspection in tests and
  /// harnesses; invalidated by the next run()).
  hmm::HybridMemoryController* last_controller() { return hmmc_.get(); }
  mem::DramDevice* last_hbm() { return hbm_.get(); }
  mem::DramDevice* last_dram() { return dram_.get(); }

  const SystemConfig& config() const { return cfg_; }

  /// Watchdog hook: polled at record boundaries during a run; returning
  /// true aborts the run via CoreModel's RunInterrupted (the matrix cell
  /// soft deadline). An empty function disables polling.
  void set_interrupt(std::function<bool()> fn) { interrupt_ = std::move(fn); }

  /// Arms a one-shot restore: the next run resumes from its snapshot file
  /// (if one exists) even without SnapshotConfig::restore — the watchdog's
  /// retry-from-snapshot path. Cleared after the next run.
  void allow_restore_once() { restore_once_ = true; }

 private:
  RunResult run_current(const trace::WorkloadProfile& workload,
                        u64 instructions, const LaneSources& lane_sources);
  /// Shared replay + result assembly for run_current, run_mix and
  /// run_replay. When `replay` is non-null it is the single record source
  /// (lanes then only size the core count); otherwise each lane reads its
  /// entry of `lane_sources`, or a fresh generator when that is empty.
  RunResult run_lanes_current(const std::vector<CoreLane>& lanes,
                              u64 total_instructions,
                              const std::string& workload_name,
                              bool attach_core_perf,
                              trace::TraceSource* replay = nullptr,
                              const LaneSources& lane_sources = {});
  /// Constructs fresh devices for a run and, when cfg_.fault is enabled,
  /// fresh per-device fault state seeded from the run seed (fault-free runs
  /// attach nothing and take the historical code path).
  void make_devices();

  SystemConfig cfg_;
  std::unique_ptr<mem::DramDevice> hbm_;
  std::unique_ptr<mem::DramDevice> dram_;
  std::unique_ptr<fault::DeviceFaultState> hbm_faults_;
  std::unique_ptr<fault::DeviceFaultState> dram_faults_;
  std::unique_ptr<hmm::HybridMemoryController> hmmc_;
  std::function<bool()> interrupt_;
  bool restore_once_ = false;
  /// Knobs of a run_bumblebee configuration for the snapshot fingerprint
  /// (a design's name does not pin them); empty for named designs.
  std::string design_knobs_;
};

/// Groups run results by MPKI class and computes per-group geomeans of
/// `metric(result) / metric(baseline_result)`.
struct GroupedMetric {
  double high = 0;
  double medium = 0;
  double low = 0;
  double all = 0;
};

GroupedMetric group_by_mpki(
    const std::vector<RunResult>& results,
    const std::vector<RunResult>& baseline,
    double (*metric)(const RunResult&));

/// Like group_by_mpki but computes ratio-of-sums per group instead of a
/// geomean of per-workload ratios. Use for traffic/energy, where a
/// workload can legitimately measure zero (e.g. a fully HBM-resident
/// footprint produces no off-chip traffic) and a geomean would collapse.
GroupedMetric group_by_mpki_sums(
    const std::vector<RunResult>& results,
    const std::vector<RunResult>& baseline,
    double (*metric)(const RunResult&));

// Common metric extractors for group_by_mpki.
double metric_ipc(const RunResult& r);
double metric_hbm_traffic(const RunResult& r);
double metric_dram_traffic(const RunResult& r);
double metric_energy(const RunResult& r);

/// Picks a per-workload instruction budget that yields roughly
/// `target_misses` LLC misses (low-MPKI workloads need more instructions
/// for a statistically meaningful miss sample), clamped to [min, max] and
/// to at least 1 M instructions. Depends only on its arguments.
u64 default_instructions_for(const trace::WorkloadProfile& w,
                             u64 target_misses = 200'000,
                             u64 min_instructions = 20'000'000,
                             u64 max_instructions = 400'000'000);

}  // namespace bb::sim
