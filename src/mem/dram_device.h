// Event-free DRAM device timing model ("DRAMSim-lite").
//
// Models, per channel: a shared data bus with burst occupancy; per bank: an
// open-row FSM with tCAS/tRCD/tRP/tRAS timing under an open-page policy.
// Requests are decomposed into burst-sized beats (64 B for both presets);
// each beat contends for its bank and channel bus. The model advances
// per-resource "ready at" ticks instead of running a global event loop,
// which is exact for our in-order-per-bank command streams and fast enough
// to simulate hundreds of millions of beats per minute.
//
// Every access is tagged with a TrafficClass so the harnesses can attribute
// bytes to demand traffic, cache fills, writebacks, migrations or metadata —
// the split behind Figures 8(b)/8(c).
#pragma once

#include <array>
#include <memory>
#include <vector>

#include <string>

#include "common/stats.h"
#include "common/types.h"
#include "fault/fault.h"
#include "mem/energy.h"
#include "mem/request_queue.h"
#include "mem/timing.h"

namespace bb {
class MetricRegistry;
class MemoryTraceSink;
}  // namespace bb

namespace bb::mem {

/// Attribution label for a DRAM access.
enum class TrafficClass : u8 {
  kDemand = 0,    ///< LLC-miss data on the critical path
  kFill,          ///< cache-fill / fetch into HBM
  kWriteback,     ///< dirty eviction writeback
  kMigration,     ///< page migration between devices
  kMetadata,      ///< metadata structures stored in DRAM/HBM
  kCount,
};

constexpr const char* to_string(TrafficClass c) {
  switch (c) {
    case TrafficClass::kDemand: return "demand";
    case TrafficClass::kFill: return "fill";
    case TrafficClass::kWriteback: return "writeback";
    case TrafficClass::kMigration: return "migration";
    case TrafficClass::kMetadata: return "metadata";
    default: return "?";
  }
}

inline constexpr std::size_t kTrafficClassCount =
    static_cast<std::size_t>(TrafficClass::kCount);

struct DramStats {
  u64 accesses = 0;
  u64 beats = 0;
  u64 row_hits = 0;
  u64 row_misses = 0;   ///< row conflict (precharge + activate)
  u64 row_empty = 0;    ///< bank closed (activate only)
  u64 refreshes = 0;    ///< per-channel refresh windows taken
  u64 ce_count = 0;     ///< ECC corrected errors (fault model attached)
  u64 ue_count = 0;     ///< detected-uncorrectable errors
  std::array<u64, kTrafficClassCount> read_bytes{};
  std::array<u64, kTrafficClassCount> write_bytes{};

  u64 total_read_bytes() const {
    u64 s = 0;
    for (u64 b : read_bytes) s += b;
    return s;
  }
  u64 total_write_bytes() const {
    u64 s = 0;
    for (u64 b : write_bytes) s += b;
    return s;
  }
  u64 total_bytes() const { return total_read_bytes() + total_write_bytes(); }

  double row_hit_rate() const {
    const u64 n = row_hits + row_misses + row_empty;
    return n ? static_cast<double>(row_hits) / static_cast<double>(n) : 0.0;
  }
};

/// Result of a single (possibly multi-beat) access.
struct AccessResult {
  /// The arrival tick (the `now` passed to access()), with or without the
  /// queue layer, so latency() covers queue, refresh and bank wait as well
  /// as the transfer itself. The queue wait alone is in QueueStats.
  Tick start = 0;
  Tick complete = 0;  ///< when the last data beat finishes
  /// SECDED verdict (kClean unless a fault model is attached). On
  /// kCorrected, `complete` already includes the correction latency; on
  /// kUncorrectable the data is unusable and the caller must recover.
  fault::EccOutcome ecc = fault::EccOutcome::kClean;
  Tick latency() const { return complete - start; }
};

class DramDevice final : private QueueBackend {
 public:
  /// Throws std::invalid_argument on a geometry the shift/mask decode
  /// cannot serve: interleave_bytes or row_bytes not a power of two, zero
  /// channels or banks, a burst that is not a power of two or is larger
  /// than the decode granule min(interleave_bytes, row_bytes), or a
  /// capacity that is not a non-zero multiple of the granule.
  explicit DramDevice(DramTimingParams params);

  DramDevice(const DramDevice&) = delete;
  DramDevice& operator=(const DramDevice&) = delete;

  /// Performs an access of `bytes` bytes at `addr`, issued no earlier than
  /// `now`. Splits into burst beats internally. Returns completion timing.
  /// With the queue layer enabled (params.queue), reads route through the
  /// MSHR/scheduler path and writes are posted into the per-channel write
  /// queues; otherwise this is the historical direct path.
  AccessResult access(Addr addr, u64 bytes, AccessType type, Tick now,
                      TrafficClass cls = TrafficClass::kDemand);

  /// Flushes any posted writes still sitting in the request queues (end of
  /// simulation). No-op when the queue layer is off.
  void drain_queues(Tick now);

  const DramTimingParams& params() const { return params_; }
  const DramStats& stats() const { return stats_; }
  const EnergyModel& energy() const { return energy_; }
  /// Scheduler statistics, or nullptr when the queue layer is off.
  const QueueStats* queue_stats() const {
    return scheduler_ ? &scheduler_->stats() : nullptr;
  }
  /// The scheduler itself (tests / probes), nullptr when off.
  const ChannelScheduler* scheduler() const { return scheduler_.get(); }
  u64 capacity() const { return params_.capacity_bytes; }
  /// `addr % capacity()`, with no division for an address already inside.
  Addr fold(Addr addr) const { return capacity_.wrap(addr); }

  /// Clears statistics (bank/bus state is retained).
  void reset_stats();

  /// Snapshot/restore of the full device state: bank FSMs, bus/refresh
  /// cursors, statistics, energy counters, and the scheduler (when the
  /// queue layer is on). Geometry and the queue-layer presence are
  /// construction-time shape; a restore fails closed on a mismatch.
  void serialize(snap::Archive& ar);

  /// Registers this device's epoch metrics under `prefix` (e.g. "hbm_"):
  /// per-epoch row-hit rate and bytes moved per traffic class, plus ECC
  /// counters when a fault model is attached.
  void register_metrics(MetricRegistry& reg, const std::string& prefix) const;

  /// Attaches the fault model (nullptr detaches; fault-free by default).
  /// `label` names the device in fault_injected trace events ("hbm" /
  /// "dram"). The state must outlive the device or be detached first.
  void attach_faults(fault::DeviceFaultState* faults, std::string label);
  const fault::DeviceFaultState* faults() const { return faults_; }

  /// Sink for fault_injected events (nullptr = no tracing).
  void set_trace_sink(MemoryTraceSink* sink) { trace_ = sink; }

  /// Additionally adds every byte this device moves, per traffic class, to
  /// `bytes` until detached with nullptr. The controller points it at the
  /// requesting core's slice while one request is handled (per-core
  /// attribution); reads and writes land in the same slot.
  void charge_to(std::array<u64, kTrafficClassCount>* bytes) {
    charge_ = bytes;
  }

  struct Decoded {
    u32 channel;
    u32 bank;
    u32 row;
  };

  /// Address decode (channel/bank hashing, row identity). Public so tests
  /// and tools can construct colliding or co-located address pairs.
  Decoded decode_addr(Addr addr) const { return decode(addr); }

 private:
  struct Bank {
    u32 open_row = kNoRow;
    Tick ready_at = 0;      ///< earliest tick the bank accepts a command
    Tick act_allowed_at = 0;  ///< honors tRAS before the next precharge
    Tick write_recovery_at = 0;  ///< honors tWTR after the last write burst
    bool last_was_write = false;
    bool has_issued = false;  ///< any command issued yet (tRTW needs one)
    static constexpr u32 kNoRow = ~u32{0};
  };

  /// Command-issue and data-completion ticks of one beat or access.
  struct RawTiming {
    Tick start = 0;
    Tick complete = 0;
  };

  Decoded decode(Addr addr) const;

  /// Times one beat through its bank and channel bus.
  RawTiming do_beat(const Decoded& d, AccessType type, Tick now);

  /// Times `n` further beats to the row the previous beat of this access
  /// opened on `d`'s bank, in closed form unless a refresh falls inside
  /// the run. Returns the last beat's data completion.
  Tick row_hit_run(const Decoded& d, AccessType type, Tick now, u64 n);

  /// Times a whole access (beat split + capacity wrap), no byte
  /// accounting. `start` is the first beat's command-issue tick.
  RawTiming timed_beats(Addr addr, u64 bytes, AccessType type, Tick now);

  /// Applies any refresh windows that elapsed before `t` on the channel.
  Tick apply_refresh(u32 channel, Tick t);

  // QueueBackend (the scheduler drives the raw timing path through these).
  u32 channel_of(Addr addr) const override;
  bool open_row_hit(Addr addr) const override;
  QueueBackend::Issue issue(Addr addr, u64 bytes, AccessType type,
                            Tick now) override;

  DramTimingParams params_;
  // Decode shifts and timing constants, derived once from params_.
  u32 interleave_shift_;
  u32 row_shift_;
  /// log2(min(interleave_bytes, row_bytes)): channel, bank and row are
  /// constant over each aligned granule of this size.
  u32 granule_shift_;
  u64 beat_bytes_;
  u32 beat_shift_;  ///< log2(beat_bytes_)
  Divisor channels_;
  Divisor banks_per_channel_;
  Divisor capacity_;
  struct Ticks {
    Tick cas, rcd, rp, ras, rtw, wtr, burst, refi, rfc;
  } t_;
  std::vector<Bank> banks_;          // channels * banks_per_channel
  std::vector<Tick> bus_ready_;      // per channel
  std::vector<Tick> next_refresh_;   // per channel
  std::unique_ptr<ChannelScheduler> scheduler_;  // queue layer, often null
  DramStats stats_;
  EnergyModel energy_;
  fault::DeviceFaultState* faults_ = nullptr;
  std::string fault_label_;
  MemoryTraceSink* trace_ = nullptr;
  std::array<u64, kTrafficClassCount>* charge_ = nullptr;  ///< see charge_to
};

}  // namespace bb::mem
