// Hybrid Memory Management Controller (HMMC) framework.
//
// Every reproduced design — Bumblebee, the ablations, and the five
// state-of-the-art baselines — implements this interface. The framework
// owns the shared concerns so per-design code is pure policy:
//   * the two DRAM devices (die-stacked HBM + off-chip DRAM),
//   * OS paging pressure (visible-capacity model),
//   * the asynchronous data-movement engine (real traffic, no demand stall),
//   * request/latency/over-fetch accounting.
//
// Address convention: requests carry OS-visible flat addresses. The range
// [0, dram_capacity) maps 1:1 onto off-chip DRAM frames by default and
// [dram_capacity, dram_capacity + hbm_capacity) onto HBM frames; designs
// that remap (Bumblebee's PRT, Chameleon's remap table) translate on top of
// this. Designs whose HBM is invisible to the OS wrap excess addresses
// into the off-chip range (their paging model then charges faults).
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "hmm/metadata.h"
#include "hmm/paging.h"
#include "mem/dram_device.h"

namespace bb {
class EpochSampler;
class MetricRegistry;
class MemoryTraceSink;
}  // namespace bb

namespace bb::hmm {

/// Outcome of one LLC-miss request through a controller.
struct HmmResult {
  Tick complete = 0;        ///< when the demand data is available
  bool served_by_hbm = false;
  Addr phys_addr = kAddrInvalid;  ///< device-local address that served it
  Tick metadata_latency = 0;
  Tick fault_penalty = 0;
};

/// A physical data copy performed by the data-movement engine. Observed by
/// the functional-correctness shadow in tests.
struct MoveEvent {
  bool src_hbm = false;
  Addr src_addr = 0;
  bool dst_hbm = false;
  Addr dst_addr = 0;
  u64 bytes = 0;
  bool is_swap = false;  ///< contents of src and dst exchange atomically
};

struct HmmStats {
  u64 requests = 0;
  u64 reads = 0;
  u64 writes = 0;
  u64 hbm_served = 0;   ///< demand requests whose data came from HBM
  Tick total_latency = 0;
  Tick total_metadata_latency = 0;

  /// Bucket upper bounds (ns) for the per-request latency histogram below.
  static std::vector<double> latency_bounds_ns();
  /// Per-request end-to-end latency distribution (ns), including fault
  /// penalties — the source of the reported p50/p90/p99/p99.9.
  Histogram latency_ns{latency_bounds_ns()};

  // Over-fetch accounting: blocks brought into HBM speculatively (fills,
  // page migrations) vs how many of them were touched before leaving HBM.
  u64 blocks_fetched = 0;
  u64 fetched_blocks_used = 0;

  // Structural events (designs increment the ones that apply).
  u64 migrations = 0;       ///< DRAM->HBM page migrations
  u64 evictions = 0;        ///< HBM->DRAM page/block evictions
  u64 mode_switches = 0;    ///< cHBM<->mHBM conversions
  u64 swaps = 0;            ///< full page swaps

  // DUE recovery accounting (all zero in fault-free runs).
  u64 due_retries = 0;      ///< re-read attempts issued after a DUE
  u64 due_recovered = 0;    ///< DUEs cleared by a retry (transients)
  u64 due_unrecovered = 0;  ///< DUEs that survived every retry
  u64 due_data_loss = 0;    ///< unrecovered reads with no clean copy left

  double hbm_serve_rate() const {
    return requests ? static_cast<double>(hbm_served) /
                          static_cast<double>(requests)
                    : 0.0;
  }
  double mean_latency_ns() const {
    return requests ? ticks_to_ns(total_latency) /
                          static_cast<double>(requests)
                    : 0.0;
  }
  /// Fraction of fetched blocks never used before eviction (Section IV-B).
  double overfetch_fraction() const {
    return blocks_fetched
               ? 1.0 - static_cast<double>(fetched_blocks_used) /
                           static_cast<double>(blocks_fetched)
               : 0.0;
  }
  /// Metadata share of total request latency (Section II-B's MAL).
  double mal_fraction() const {
    return total_latency ? static_cast<double>(total_metadata_latency) /
                               static_cast<double>(total_latency)
                         : 0.0;
  }
};

/// Per-core attribution slice of the controller statistics, maintained when
/// set_core_count() has sized the table and requests arrive with a core id
/// (multi-programmed co-run evaluation). Device bytes are attributed by
/// causation: everything both DRAM devices move while serving one request —
/// the demand access plus any fills/migrations the design triggered
/// synchronously from it — is charged to that request's core, by the
/// devices themselves (DramDevice::charge_to) while access() runs.
/// Asynchronous end-of-run drain() traffic has no causing core, so per-core
/// byte sums are <= the device totals; request/latency/serve counters sum
/// exactly.
struct CoreStats {
  u64 requests = 0;
  u64 hbm_served = 0;
  Tick total_latency = 0;
  /// Per-request latency distribution (same buckets as the aggregate).
  Histogram latency_ns{HmmStats::latency_bounds_ns()};
  std::array<u64, mem::kTrafficClassCount> hbm_class_bytes{};
  std::array<u64, mem::kTrafficClassCount> dram_class_bytes{};

  u64 hbm_bytes() const {
    u64 s = 0;
    for (u64 b : hbm_class_bytes) s += b;
    return s;
  }
  u64 dram_bytes() const {
    u64 s = 0;
    for (u64 b : dram_class_bytes) s += b;
    return s;
  }
  double hbm_serve_rate() const {
    return requests ? static_cast<double>(hbm_served) /
                          static_cast<double>(requests)
                    : 0.0;
  }
  double mean_latency_ns() const {
    return requests ? ticks_to_ns(total_latency) /
                          static_cast<double>(requests)
                    : 0.0;
  }
};

/// Controller-level degradation posture under fault injection: how much
/// HBM the design has taken out of service. Zero for designs without a
/// retirement path.
struct FaultPosture {
  u64 retired_frames = 0;  ///< HBM frames retired after uncorrectable errors
  u64 degraded_sets = 0;   ///< sets that stopped using their cHBM/mHBM
};

class HybridMemoryController {
 public:
  HybridMemoryController(std::string name, mem::DramDevice& hbm,
                         mem::DramDevice& dram, const PagingConfig& paging);
  virtual ~HybridMemoryController() = default;

  HybridMemoryController(const HybridMemoryController&) = delete;
  HybridMemoryController& operator=(const HybridMemoryController&) = delete;

  /// Handles one LLC-miss request. Applies the paging model, dispatches to
  /// the design's service() and accounts the result. `core_id` attributes
  /// the request (and all device traffic it causes) to one core's
  /// CoreStats slice when per-core tracking is enabled via
  /// set_core_count(); ids at or past the configured count fold into the
  /// last slice so a mis-sized caller cannot write out of bounds.
  HmmResult access(Addr addr, AccessType type, Tick now, u32 core_id = 0);

  /// Sizes the per-core attribution table (0 disables per-core tracking —
  /// the default, so direct controller users pay nothing). Call before
  /// register_metrics so per-core probes are registered.
  void set_core_count(u32 cores);
  const std::vector<CoreStats>& core_stats() const { return core_stats_; }

  /// Flushes any design-internal buffered state (end of simulation). The
  /// base implementation flushes the devices' request queues (posted
  /// writes still sitting in the FR-FCFS write queues); overrides must
  /// call it so queued traffic is fully accounted before results are read.
  virtual void drain(Tick now);

  /// Observer for every physical copy made by move_data (tests use this to
  /// maintain a functional shadow of both devices).
  void set_movement_hook(std::function<void(const MoveEvent&)> hook) {
    movement_hook_ = std::move(hook);
  }

  /// SRAM bytes this design needs for its metadata structures.
  virtual u64 metadata_sram_bytes() const = 0;

  /// Attaches / detaches (nullptr) the structured event trace sink. The
  /// paging model shares it (OS fault / swap-out events).
  void set_trace_sink(MemoryTraceSink* sink);
  /// Attaches / detaches (nullptr) the epoch time-series sampler; when set,
  /// every demand request advances it at the request's simulated tick.
  void set_epoch_sampler(EpochSampler* sampler) { sampler_ = sampler; }

  /// Registers this design's epoch metrics. The base class contributes the
  /// framework metrics every design shares (serve rate, mean latency, per
  /// traffic-class bytes on both devices, row-hit rates, page faults);
  /// overrides call the base and append design-specific probes.
  virtual void register_metrics(MetricRegistry& reg) const;

  /// Warmup boundary: called once when measurement starts (right after the
  /// stats reset at the warmup instruction count). Emits the warmup_end
  /// trace event and re-baselines the epoch sampler at `now`.
  virtual void on_warmup_end(Tick now);

  const std::string& name() const { return name_; }
  const HmmStats& stats() const { return stats_; }

  /// Current degradation posture (see FaultPosture). Designs with a frame
  /// retirement path (Bumblebee) override this.
  virtual FaultPosture fault_posture() const { return {}; }

  /// Saves or restores the design's complete in-flight state: every
  /// design calls serialize_base first, then lists each of its tables
  /// once. A restore that loads inconsistent state throws SnapshotError.
  virtual void serialize(snap::Archive& ar) = 0;

  /// Clears accumulated statistics (not design state) — used to exclude
  /// warmup from measurements. Per-core slices reset in place so their
  /// count (and any registered per-core metric probes) survives.
  virtual void reset_stats() {
    stats_ = HmmStats{};
    for (auto& cs : core_stats_) cs = CoreStats{};
    paging_.reset_stats();
  }
  const PagingModel& paging() const { return paging_; }
  mem::DramDevice& hbm() { return hbm_; }
  mem::DramDevice& dram() { return dram_; }
  const mem::DramDevice& hbm() const { return hbm_; }
  const mem::DramDevice& dram() const { return dram_; }

 protected:
  /// Design-specific request handling (paging already applied).
  virtual HmmResult service(Addr addr, AccessType type, Tick now) = 0;

  /// Asynchronous copy: reads `bytes` at `src_addr` from `src` and writes
  /// them to `dst`. Consumes real bandwidth on both devices; the returned
  /// completion tick is informational (demand requests do not wait on it).
  Tick move_data(mem::DramDevice& src, Addr src_addr, mem::DramDevice& dst,
                 Addr dst_addr, u64 bytes, Tick now, mem::TrafficClass cls);

  /// Asynchronous exchange of two regions (through a controller buffer):
  /// reads and writes both sides, emitting a single atomic swap event.
  Tick swap_data(mem::DramDevice& a, Addr a_addr, mem::DramDevice& b,
                 Addr b_addr, u64 bytes, Tick now, mem::TrafficClass cls);

  HmmStats& mutable_stats() { return stats_; }

  /// A demand access with DUE recovery: on a detected-uncorrectable error
  /// the access is retried with bounded, doubling backoff (the fault
  /// model's transients are tick-keyed, so a retry re-draws; structural
  /// faults persist through every retry). `unrecovered` reports a DUE
  /// that survived all retries — the caller decides whether a clean copy
  /// exists to re-fetch from, and accounts due_data_loss if not.
  struct EccDemand {
    mem::AccessResult access;
    bool unrecovered = false;
  };
  EccDemand ecc_demand(mem::DramDevice& dev, Addr addr, u64 bytes,
                       AccessType type, Tick now,
                       mem::TrafficClass cls = mem::TrafficClass::kDemand);

  /// Event trace sink, nullptr when tracing is off. Designs test this
  /// before building an event so disabled tracing costs one pointer test.
  MemoryTraceSink* trace() const { return trace_; }
  bool tracing() const { return trace_ != nullptr; }

  /// Framework-owned state shared by every design: aggregate and per-core
  /// statistics plus the paging model. Every design's serialize calls
  /// this first.
  void serialize_base(snap::Archive& ar);

 private:
  std::string name_;
  mem::DramDevice& hbm_;
  mem::DramDevice& dram_;
  PagingModel paging_;
  HmmStats stats_;
  std::vector<CoreStats> core_stats_;  ///< empty unless set_core_count
  std::function<void(const MoveEvent&)> movement_hook_;
  MemoryTraceSink* trace_ = nullptr;
  EpochSampler* sampler_ = nullptr;
};

/// The normalization baseline: no HBM at all; every request goes to the
/// off-chip DRAM. Visible capacity = off-chip DRAM only.
class DramOnlyController final : public HybridMemoryController {
 public:
  DramOnlyController(mem::DramDevice& hbm, mem::DramDevice& dram,
                     PagingConfig paging);

  u64 metadata_sram_bytes() const override { return 0; }

  void serialize(snap::Archive& ar) override { serialize_base(ar); }

 protected:
  HmmResult service(Addr addr, AccessType type, Tick now) override;
};

}  // namespace bb::hmm
