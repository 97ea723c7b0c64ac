// Trace-driven core timing model.
//
// Replays an LLC-miss stream against a memory controller with the standard
// limited-MLP / bounded-ROB stall model:
//   * non-memory work retires at a fixed base CPI (4-wide A72-class core);
//   * up to `mlp` LLC misses may be outstanding concurrently;
//   * the core may run at most `rob_window` instructions past the oldest
//     outstanding miss before it must stall on it (an isolated miss
//     therefore exposes its full memory latency; bursty misses overlap).
//
// Requests are issued to the controller at the core's current time, so
// concurrent misses genuinely contend inside the DRAM bank/bus model.
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "common/types.h"
#include "hmm/controller.h"
#include "trace/generator.h"

namespace bb::trace {
class TraceCaptureSink;
}  // namespace bb::trace

namespace bb::sim {

struct CoreParams {
  double freq_ghz = 3.6;      ///< Table I: ARM A72 @ 3600 MHz
  double base_cpi = 0.25;     ///< 4-wide issue for non-memory work
  u32 cores = 4;              ///< cores sharing the LLC and memory system
  u32 mlp = 8;                ///< outstanding LLC misses per core
  u32 rob_window = 320;       ///< instructions a core can run ahead
  Tick hierarchy_latency = ns_to_ticks(15.0);  ///< L1+L2+L3 lookup on a miss
};

/// One core's workload assignment in a (possibly heterogeneous) co-run.
struct CoreLane {
  trace::WorkloadProfile profile;
  u64 seed = 0;   ///< this lane's generator seed
  /// Address-space offset added to every generated address. Disjoint bases
  /// give each lane its own process footprint (multi-programmed mixes);
  /// base 0 everywhere shares one address space (the homogeneous model).
  Addr base = 0;
};

/// Serializable state of an in-flight run_sources loop: everything the
/// loop itself owns — per-core clocks, instruction cursors and ROBs, plus
/// the aggregate instruction/miss cursors and the warmup posture. Trace
/// source positions and memory-system state are serialized separately by
/// their owners; together they reconstruct the run bit-exactly.
struct RunLoopState {
  struct Core {
    Tick now = 0;
    u64 inst = 0;
    u64 misses = 0;          ///< misses since the warmup reset
    u64 inst_at_reset = 0;   ///< instruction count at the warmup reset
    std::deque<std::pair<u64, Tick>> rob;  ///< (inst at issue, completion)
  };
  std::vector<Core> cores;
  u64 total_inst = 0;
  u64 measured_misses = 0;
  u64 inst_at_reset = 0;
  Tick tick_at_reset = 0;
  bool warm = false;
  u64 records = 0;  ///< trace records consumed (checkpoint cadence)

  void serialize(snap::Archive& ar);
};

/// Thrown out of run_sources when RunControl::interrupted() reports true
/// at a record boundary — the matrix watchdog's soft-deadline signal. The
/// loop state at the throw is whatever the last checkpoint captured.
struct RunInterrupted {};

/// Checkpoint / resume / interrupt hooks for run_sources. Every callback
/// fires at record boundaries only, so a checkpoint always captures a
/// consistent state (never a half-applied request).
struct RunControl {
  /// Invoke on_checkpoint every N consumed records (0 = never).
  u64 checkpoint_every_records = 0;
  std::function<void(RunLoopState&)> on_checkpoint;
  /// Resume from this state instead of starting fresh.
  const RunLoopState* resume = nullptr;
  /// Polled at checkpoint cadence (or every 64 Ki records when
  /// checkpointing is off); returning true aborts via RunInterrupted.
  std::function<bool()> interrupted;
};

struct CoreResult {
  u64 instructions = 0;  ///< total across all cores
  u64 misses = 0;
  Tick elapsed = 0;      ///< slowest core's finish time

  /// Per-core breakdown (lane order), measured over the same window.
  struct PerCore {
    u64 instructions = 0;
    u64 misses = 0;
    Tick elapsed = 0;  ///< this core's own finish time

    double ipc(double freq_ghz) const {
      const double c = ticks_to_s(elapsed) * freq_ghz * 1e9;
      return c > 0 ? static_cast<double>(instructions) / c : 0.0;
    }
  };
  std::vector<PerCore> per_core;  ///< filled by the lane-based runs

  double cycles(double freq_ghz) const {
    return ticks_to_s(elapsed) * freq_ghz * 1e9;
  }
  /// Aggregate IPC: total instructions across all cores divided by the
  /// elapsed cycles of the slowest core (the definition the comparison
  /// figures use; per-core IPC lives in PerCore::ipc). Pinned by
  /// CoreModelTest.IpcIsAggregateInstructionsOverElapsedCycles.
  double ipc(double freq_ghz) const {
    const double c = cycles(freq_ghz);
    return c > 0 ? static_cast<double>(instructions) / c : 0.0;
  }
};

class CoreModel {
 public:
  explicit CoreModel(const CoreParams& params = CoreParams{});

  /// The run loop: one record source per core (a synthetic generator, a
  /// shared-stream cursor or a trace reader), with `bases[i]` added to
  /// every address source i produces, advanced in simulated-time order
  /// against the shared memory system until the cores together retire
  /// `target_instructions`. The cores' requests genuinely interleave and
  /// contend inside the device models, and each request carries its
  /// source index as the controller core id, so the memory system
  /// attributes misses, latency and bytes per core. `sources` must be
  /// non-empty and sized like `bases`; the sources must outlive the call.
  ///
  /// `warmup_instructions` are executed first; when they complete, the
  /// statistics of the controller and both devices are reset so the
  /// returned result (and all traffic/energy counters) cover only the
  /// measurement window — the paper's numbers are steady-state.
  /// `control` (optional) adds checkpoint/resume/interrupt behavior —
  /// see RunControl; the hot loop is unchanged when it is null.
  CoreResult run_sources(const std::vector<trace::TraceSource*>& sources,
                         const std::vector<Addr>& bases,
                         u64 target_instructions,
                         hmm::HybridMemoryController& hmmc,
                         u64 warmup_instructions = 0,
                         const RunControl* control = nullptr);

  /// Attaches a capture sink: every record consumed by run_sources
  /// (warmup included) is appended with its lane base folded
  /// into the address, i.e. exactly the merged absolute-address stream the
  /// memory system saw. nullptr detaches. The sink must outlive the runs.
  void set_capture(trace::TraceCaptureSink* capture) { capture_ = capture; }

  /// The lane set a single-profile run replays: `cores` copies of one
  /// profile with distinct derived seeds, all sharing address base 0.
  static std::vector<CoreLane> homogeneous_lanes(
      const trace::WorkloadProfile& profile, u64 seed, u32 cores);

  const CoreParams& params() const { return params_; }

 private:
  CoreParams params_;
  /// Base CPI in ticks, as the rational cpi_ticks_num_ / kCpiTicksDen.
  static constexpr Divisor kCpiTicksDen{1024};
  Tick cpi_ticks_num_;
  trace::TraceCaptureSink* capture_ = nullptr;
};

}  // namespace bb::sim
