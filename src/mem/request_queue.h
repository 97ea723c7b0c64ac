// Request-queue layer for the DRAM devices: per-channel write queues with
// FR-FCFS drain arbitration, write-drain hysteresis, and MSHR-style
// coalescing of same-block in-flight reads.
//
// The scheduler sits *inside* DramDevice, behind its synchronous access()
// facade, so controllers and the core model keep their call shape. The
// model stays event-free: reads issue immediately (demand priority),
// writes are posted into a bounded per-channel queue and drained to the
// device in FR-FCFS order (open-row hits first, then oldest) when the
// queue crosses the high watermark, stopping at the low watermark. A full
// queue back-pressures the producer: the write is accepted only once a
// drained slot frees.
//
// Everything is tick-keyed and container iteration is index-ordered, so
// queued runs remain byte-identical across --jobs values (the same
// determinism contract as the rest of the simulator).
#pragma once

#include <vector>

#include "common/types.h"

namespace bb::snap {
class Archive;
}  // namespace bb::snap

namespace bb::mem {

/// Configuration of the request-queue layer, carried per device inside
/// DramTimingParams. Default-constructed state has no queues: accesses go
/// straight to the banks (what the pinned golden hash covers).
struct QueueConfig {
  /// Master switch for the queue/scheduler path.
  bool enabled = false;

  u32 queue_depth = 32;          ///< per-channel write-queue capacity
  u32 write_high_watermark = 24; ///< queue size that enters drain mode
  u32 write_low_watermark = 8;   ///< drain stops at this queue size
  u32 mshr_entries = 16;         ///< per-channel in-flight fill trackers
  u64 mshr_block_bytes = 64;     ///< coalescing granularity (LLC block)

  /// Unqueued preset (the default; what --queue-depth=0 selects).
  static QueueConfig off() { return QueueConfig{}; }

  /// Queued preset: FR-FCFS scheduling and MSHRs.
  static QueueConfig fr_fcfs() {
    QueueConfig q;
    q.enabled = true;
    return q;
  }
};

/// Scheduler statistics, following the stat set of ramulator's
/// HBM_Memory.h (queueing_latency_avg, read_queue_latency_avg,
/// req_queue_length_avg) plus drain/coalescing counters.
struct QueueStats {
  u64 reads_issued = 0;        ///< reads that reached the device
  u64 reads_coalesced = 0;     ///< reads served by an in-flight MSHR fill
  u64 writes_enqueued = 0;     ///< writes accepted into a queue
  u64 writes_drained = 0;      ///< writes issued to the device
  u64 write_drain_count = 0;   ///< watermark/full-triggered drain episodes
  u64 write_queue_full_stalls = 0;  ///< producer waits on a full queue

  Tick queueing_latency_sum = 0;       ///< reads + writes: issue - arrival
  Tick read_queue_latency_sum = 0;     ///< reads only: issue - arrival
  u64 req_queue_length_sum = 0;        ///< queue+MSHR occupancy per arrival
  u64 queue_length_samples = 0;

  /// Requests that passed through the queue layer (reads incl. coalesced
  /// plus writes) — the denominator of queueing_latency_avg.
  u64 requests() const {
    return reads_issued + reads_coalesced + writes_enqueued;
  }
  double queueing_latency_avg_ns() const {
    const u64 n = requests();
    return n ? ticks_to_ns(queueing_latency_sum) / static_cast<double>(n)
             : 0.0;
  }
  double read_queue_latency_avg_ns() const {
    const u64 n = reads_issued + reads_coalesced;
    return n ? ticks_to_ns(read_queue_latency_sum) / static_cast<double>(n)
             : 0.0;
  }
  double req_queue_length_avg() const {
    return queue_length_samples
               ? static_cast<double>(req_queue_length_sum) /
                     static_cast<double>(queue_length_samples)
               : 0.0;
  }
};

/// Device-side interface the scheduler drives. DramDevice implements it
/// privately; the indirection keeps request_queue free of device headers.
class QueueBackend {
 public:
  /// Timing of one access actually issued to the banks/bus.
  struct Issue {
    Tick start = 0;     ///< first command-issue tick (post queue/refresh)
    Tick complete = 0;  ///< last data beat done
  };

  virtual ~QueueBackend() = default;

  /// Channel the first beat of `addr` decodes to.
  virtual u32 channel_of(Addr addr) const = 0;
  /// True when `addr` hits the currently open row of its bank.
  virtual bool open_row_hit(Addr addr) const = 0;
  /// Issues the access to the device timing model (beats, energy, row
  /// stats), without byte accounting — the facade accounts at arrival.
  virtual Issue issue(Addr addr, u64 bytes, AccessType type, Tick now) = 0;
};

class ChannelScheduler {
 public:
  /// FR-FCFS candidate: whether the entry currently hits an open row, and
  /// when it entered the queue.
  struct Candidate {
    bool row_hit = false;
    Tick arrival = 0;
  };

  ChannelScheduler(const QueueConfig& cfg, u32 channels);

  /// FR-FCFS victim selection: the oldest row-hit candidate, else the
  /// oldest candidate overall (ties broken by queue position). Exposed
  /// statically so the arbitration rule is unit-testable in isolation.
  static std::size_t pick_fr_fcfs(const std::vector<Candidate>& candidates);

  /// Outcome of a request through the scheduler. `coalesced` marks a read
  /// served by an in-flight MSHR fill: it moved no new device data, so the
  /// facade skips byte accounting and ECC classification for it. The queue
  /// wait (issue - arrival) goes to QueueStats.
  struct SchedResult {
    Tick complete = 0;
    bool coalesced = false;
  };

  /// A read request: served from an in-flight MSHR fill when a same-block
  /// fill completes after `now`, otherwise issued to the device (demand
  /// priority over queued writes) and MSHR-tracked.
  SchedResult on_read(Addr addr, u64 bytes, Tick now, QueueBackend& dev);

  /// A write request: posted into the channel's write queue. Returns the
  /// acceptance tick as the completion (posted semantics); when
  /// the queue is full the acceptance waits for a drained slot.
  SchedResult on_write(Addr addr, u64 bytes, Tick now, QueueBackend& dev);

  /// Flushes every queued write (end of simulation / controller drain).
  /// Not counted as a drain episode.
  void drain_all(Tick now, QueueBackend& dev);

  /// Current write-queue occupancy of `channel` (tests / probes).
  u32 write_queue_len(u32 channel) const {
    return static_cast<u32>(channels_[channel].writes.size());
  }

  const QueueStats& stats() const { return stats_; }
  void reset_stats() { stats_ = QueueStats{}; }
  const QueueConfig& config() const { return cfg_; }

  /// Snapshot/restore of queued writes, in-flight MSHRs, and statistics.
  /// A restore fails closed when the channel count disagrees with this
  /// scheduler's construction-time shape.
  void serialize(snap::Archive& ar);

 private:
  struct QueuedWrite {
    Addr addr = 0;
    u64 bytes = 0;
    Tick arrival = 0;
  };
  struct Mshr {
    Addr block = 0;
    Tick complete = 0;
  };
  struct Channel {
    std::vector<QueuedWrite> writes;
    std::vector<Mshr> mshrs;
  };

  /// Issues writes in FR-FCFS order until the queue length reaches
  /// `target_len`. Returns the completion tick of the first drained write
  /// (the tick a slot frees), or `now` when nothing drained.
  Tick drain_to(Channel& ch, std::size_t target_len, Tick now,
                QueueBackend& dev);

  /// Drops MSHRs whose fill completed at or before `now`, then returns
  /// the number still in flight.
  std::size_t expire_mshrs(Channel& ch, Tick now);

  void sample_queue_length(Channel& ch, Tick now);

  QueueConfig cfg_;
  std::vector<Channel> channels_;
  QueueStats stats_;
};

}  // namespace bb::mem
