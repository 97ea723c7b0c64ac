#include "mem/dram_device.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "common/metrics.h"
#include "common/prof.h"
#include "common/snapshot.h"
#include "common/trace_event.h"

namespace bb::mem {

namespace {

// Fails closed on geometry the shift/mask decode would silently mis-serve.
DramTimingParams validated(DramTimingParams p) {
  const auto reject = [&p](const char* why) {
    throw std::invalid_argument("DramDevice '" + p.name + "': " + why);
  };
  if (!is_pow2(p.interleave_bytes)) {
    reject("interleave_bytes must be a power of two");
  }
  if (!is_pow2(p.row_bytes)) reject("row_bytes must be a power of two");
  if (p.channels == 0) reject("channels must be non-zero");
  if (p.banks_per_channel == 0) reject("banks_per_channel must be non-zero");
  const u64 granule = std::min(p.interleave_bytes, p.row_bytes);
  // A beat must sit inside one granule: a smaller granule would split a
  // burst across channels while timing it on the first only.
  if (!is_pow2(p.burst_bytes()) || granule < p.burst_bytes()) {
    reject("burst_bytes must be a power of two no larger than "
           "min(interleave_bytes, row_bytes)");
  }
  if (p.capacity_bytes == 0 || p.capacity_bytes % granule != 0) {
    reject("capacity_bytes must be a non-zero multiple of "
           "min(interleave_bytes, row_bytes)");
  }
  return p;
}

}  // namespace

DramDevice::DramDevice(DramTimingParams params)
    : params_(validated(std::move(params))),
      interleave_shift_(log2_floor(params_.interleave_bytes)),
      row_shift_(log2_floor(params_.row_bytes)),
      granule_shift_(std::min(interleave_shift_, row_shift_)),
      beat_bytes_(params_.burst_bytes()),
      beat_shift_(log2_floor(beat_bytes_)),
      channels_(params_.channels),
      banks_per_channel_(params_.banks_per_channel),
      capacity_(params_.capacity_bytes),
      t_{params_.cycles_to_ticks(params_.tCAS),
         params_.cycles_to_ticks(params_.tRCD),
         params_.cycles_to_ticks(params_.tRP),
         params_.cycles_to_ticks(params_.tRAS),
         params_.cycles_to_ticks(params_.tRTW),
         params_.cycles_to_ticks(params_.tWTR),
         params_.burst_ticks(),
         ns_to_ticks(params_.trefi_ns),
         ns_to_ticks(params_.trfc_ns)},
      energy_(params_) {
  banks_.resize(static_cast<std::size_t>(params_.channels) *
                params_.banks_per_channel);
  bus_ready_.resize(params_.channels, 0);
  next_refresh_.resize(params_.channels, t_.refi);
  if (params_.queue.enabled) {
    scheduler_ =
        std::make_unique<ChannelScheduler>(params_.queue, params_.channels);
  }
}

Tick DramDevice::apply_refresh(u32 channel, Tick t) {
  if (!params_.refresh_enabled) return t;
  const Tick trefi = t_.refi;
  const Tick trfc = t_.rfc;
  Tick& next = next_refresh_[channel];
  // Fast-forward long idle stretches: refreshes that completed entirely
  // during idle time cannot stall anything.
  if (t > next + trfc) {
    const u64 skipped = (t - next - trfc) / trefi;
    stats_.refreshes += skipped;
    next += skipped * trefi;
  }
  while (t >= next) {
    // The channel's banks are unavailable during the refresh window; any
    // in-flight state simply resumes afterwards (open rows are closed).
    const Tick refresh_end = next + trfc;
    for (u32 b = 0; b < params_.banks_per_channel; ++b) {
      Bank& bank = banks_[static_cast<std::size_t>(channel) *
                              params_.banks_per_channel +
                          b];
      bank.ready_at = std::max(bank.ready_at, refresh_end);
      bank.open_row = Bank::kNoRow;  // refresh precharges all banks
    }
    ++stats_.refreshes;
    next += trefi;
    if (t < refresh_end) t = refresh_end;
  }
  return t;
}

DramDevice::Decoded DramDevice::decode(Addr addr) const {
  const u64 chunk = addr >> interleave_shift_;
  // XOR-fold higher address bits into the channel and bank indexes
  // (standard controller address hashing, cf. gem5's xor_high_bits and
  // commercial bank-group hashing). Without it, page-aligned strides —
  // ubiquitous here because frames are page-sized — alias onto a single
  // channel/bank and serialize.
  const u64 ch_hash = chunk ^ (chunk >> 4) ^ (chunk >> 9) ^ (chunk >> 15);
  const u32 channel = static_cast<u32>(channels_.mod(ch_hash));
  // Address within the channel, with interleaving folded out.
  const u64 chan_addr = (channels_.div(chunk) << interleave_shift_) +
                        (addr & (params_.interleave_bytes - 1));
  const u64 row_index = chan_addr >> row_shift_;
  const u64 bank_hash = row_index ^ (row_index >> 3) ^ (row_index >> 7);
  const u32 bank = static_cast<u32>(banks_per_channel_.mod(bank_hash));
  // Open-row identity: the full row_index, unique per channel by
  // construction (a row_index / banks quotient would alias two rows whose
  // hashes land in the same bank and count phantom open-row hits).
  const auto row = static_cast<u32>(row_index);
  return {channel, bank, row};
}

DramDevice::RawTiming DramDevice::do_beat(const Decoded& d, AccessType type,
                                          Tick now) {
  Bank& bank = banks_[static_cast<std::size_t>(d.channel) *
                          params_.banks_per_channel +
                      d.bank];
  Tick& bus = bus_ready_[d.channel];

  const Tick tCAS = t_.cas;
  const Tick tRCD = t_.rcd;
  const Tick tRP = t_.rp;
  const Tick tRAS = t_.ras;
  const Tick tBURST = t_.burst;

  Tick t = apply_refresh(d.channel, std::max(now, bank.ready_at));
  // Bus turnaround: a read command after a write burst on the same bank
  // waits tWTR; a write after an issued read waits tRTW. A cold bank has
  // issued nothing, so its first write pays no turnaround.
  if (type == AccessType::kRead && bank.last_was_write) {
    t = std::max(t, bank.write_recovery_at);
  } else if (type == AccessType::kWrite && !bank.last_was_write &&
             bank.has_issued) {
    t += t_.rtw;
  }
  const Tick cmd_issue = t;
  if (bank.open_row == d.row) {
    ++stats_.row_hits;
  } else if (bank.open_row == Bank::kNoRow) {
    ++stats_.row_empty;
    t += tRCD;
    bank.act_allowed_at = t - tRCD + tRAS;
    energy_.on_act_pre();
  } else {
    ++stats_.row_misses;
    // Precharge may not start before tRAS since the previous activate.
    t = std::max(t, bank.act_allowed_at);
    t += tRP + tRCD;
    bank.act_allowed_at = t - tRCD + tRAS;
    energy_.on_act_pre();
  }
  bank.open_row = d.row;

  // Column access: the command issues at t, data appears tCAS later once
  // the channel data bus is free. Subsequent column commands to the bank
  // pipeline at tCCD (~ tBURST) — CAS latency overlaps with streaming.
  const Tick data_start = std::max(t + tCAS, bus);
  bus = data_start + tBURST;
  bank.ready_at = t + tBURST;  // tCCD gap to the next column command

  if (type == AccessType::kRead) {
    energy_.on_read_burst();
    bank.last_was_write = false;
  } else {
    energy_.on_write_burst();
    bank.last_was_write = true;
    bank.write_recovery_at = data_start + tBURST + t_.wtr;
  }
  bank.has_issued = true;
  ++stats_.beats;
  return {cmd_issue, data_start + tBURST};
}

Tick DramDevice::row_hit_run(const Decoded& d, AccessType type, Tick now,
                             u64 n) {
  Bank& bank = banks_[static_cast<std::size_t>(d.channel) *
                          params_.banks_per_channel +
                      d.bank];
  // The beats issue at bank.ready_at, one burst apart. A refresh due by
  // the last of them closes the row mid-run: time those beats one by one.
  const Tick last_cmd = bank.ready_at + (n - 1) * t_.burst;
  if (params_.refresh_enabled && last_cmd >= next_refresh_[d.channel]) {
    Tick complete = 0;
    for (u64 i = 0; i < n; ++i) {
      complete = std::max(complete, do_beat(d, type, now).complete);
    }
    return complete;
  }
  // Otherwise each beat is a same-type row hit (no turnaround), and the bus
  // is already at least tCAS ahead of the bank, so every beat adds exactly
  // one burst to both.
  Tick& bus = bus_ready_[d.channel];
  bus += n * t_.burst;
  bank.ready_at += n * t_.burst;
  if (type == AccessType::kRead) {
    energy_.on_read_burst(n);
  } else {
    energy_.on_write_burst(n);
    bank.write_recovery_at = bus + t_.wtr;
  }
  stats_.row_hits += n;
  stats_.beats += n;
  return bus;
}

DramDevice::RawTiming DramDevice::timed_beats(Addr addr, u64 bytes,
                                              AccessType type, Tick now) {
  const Addr first = addr & ~(beat_bytes_ - 1);
  const Addr last = (addr + bytes - 1) & ~(beat_bytes_ - 1);
  u64 beats = ((last - first) >> beat_shift_) + 1;
  const u64 capacity = capacity_.value();

  Addr a = capacity_.wrap(first);
  if (beats == 1) return do_beat(decode(a), type, now);

  // Walk the span one decode granule at a time (channel, bank and row are
  // constant inside one, and the capacity wrap falls on a granule
  // boundary): the first beat of each granule is timed in full, the rest
  // as one row-hit run.
  const u64 granule_bytes = u64{1} << granule_shift_;
  RawTiming res;
  for (bool first_granule = true; beats > 0; first_granule = false) {
    const u64 run = std::min(
        beats, (granule_bytes - (a & (granule_bytes - 1))) >> beat_shift_);
    const Decoded d = decode(a);
    const RawTiming head = do_beat(d, type, now);
    if (first_granule) res.start = head.start;
    res.complete = std::max(res.complete, head.complete);
    if (run > 1) {
      res.complete =
          std::max(res.complete, row_hit_run(d, type, now, run - 1));
    }
    beats -= run;
    a += run * beat_bytes_;
    if (a >= capacity) a -= capacity;
  }
  return res;
}

u32 DramDevice::channel_of(Addr addr) const {
  return decode(capacity_.wrap(addr)).channel;
}

bool DramDevice::open_row_hit(Addr addr) const {
  const Decoded d = decode(capacity_.wrap(addr));
  return banks_[static_cast<std::size_t>(d.channel) *
                    params_.banks_per_channel +
                d.bank]
             .open_row == d.row;
}

QueueBackend::Issue DramDevice::issue(Addr addr, u64 bytes, AccessType type,
                                      Tick now) {
  const RawTiming t = timed_beats(addr, bytes, type, now);
  return {t.start, t.complete};
}

void DramDevice::drain_queues(Tick now) {
  if (scheduler_) scheduler_->drain_all(now, *this);
}

AccessResult DramDevice::access(Addr addr, u64 bytes, AccessType type,
                                Tick now, TrafficClass cls) {
  prof::ScopedPhase prof_phase(prof::Phase::kDeviceTiming);
  assert(bytes > 0);
  const Addr first = addr & ~(beat_bytes_ - 1);
  const Addr last = (addr + bytes - 1) & ~(beat_bytes_ - 1);

  AccessResult res;
  res.start = now;
  bool coalesced = false;
  if (scheduler_) {
    // Queued path: reads go through the MSHR/scheduler (coalesced reads
    // produce no device traffic), writes are posted into the per-channel
    // write queues and drained FR-FCFS. Byte/access accounting stays at
    // arrival so per-core attribution charges the causing core.
    const ChannelScheduler::SchedResult is =
        (type == AccessType::kRead)
            ? scheduler_->on_read(addr, bytes, now, *this)
            : scheduler_->on_write(addr, bytes, now, *this);
    res.complete = is.complete;
    coalesced = is.coalesced;
  } else {
    res.complete = timed_beats(addr, bytes, type, now).complete;
  }

  ++stats_.accesses;
  if (!coalesced) {
    const u64 moved = (last - first) + beat_bytes_;
    const std::size_t k = static_cast<std::size_t>(cls);
    auto& by_class = (type == AccessType::kRead) ? stats_.read_bytes
                                                 : stats_.write_bytes;
    by_class[k] += moved;
    if (charge_ != nullptr) (*charge_)[k] += moved;
  }

  // A coalesced read rides the original fill, whose ECC verdict was
  // already delivered to that fill's requester — no reclassification.
  if (faults_ != nullptr && !coalesced) {
    // ECC classification covers the access as a unit, keyed on the first
    // beat's geometry (sufficient for 64 B demand accesses; a multi-beat
    // transfer spanning a faulty structure still reports one event).
    const Decoded d0 = decode(capacity_.wrap(first));
    const fault::FaultEvent ev = faults_->classify(d0.channel, d0.bank,
                                                   d0.row, now);
    if (ev.outcome != fault::EccOutcome::kClean) {
      res.ecc = ev.outcome;
      if (ev.outcome == fault::EccOutcome::kCorrected) {
        ++stats_.ce_count;
        res.complete += faults_->config().ce_latency;
      } else {
        ++stats_.ue_count;
      }
      if (trace_ != nullptr) {
        trace_->emit(TraceEvent(now, "fault_injected", "fault")
                         .arg("device", fault_label_)
                         .arg("kind", fault::to_string(ev.kind))
                         .arg("outcome", fault::to_string(ev.outcome))
                         .arg("channel", d0.channel)
                         .arg("bank", d0.bank)
                         .arg("row", d0.row)
                         .arg("row_retired", ev.row_retired ? 1 : 0));
      }
    }
  }
  return res;
}

void DramDevice::reset_stats() {
  stats_ = DramStats{};
  energy_.reset();
  // Scheduler counters reset too; queued writes still in flight stay
  // queued (queue contents are state, not statistics).
  if (scheduler_) scheduler_->reset_stats();
}

void DramDevice::register_metrics(MetricRegistry& reg,
                                  const std::string& prefix) const {
  const DramStats* st = &stats_;
  reg.add_ratio(
      prefix + "row_hit_rate",
      [st] { return static_cast<double>(st->row_hits); },
      [st] {
        return static_cast<double>(st->row_hits + st->row_misses +
                                   st->row_empty);
      });
  for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
    reg.add_counter(
        prefix + "bytes_" + to_string(static_cast<TrafficClass>(c)),
        [st, c] {
          return static_cast<double>(st->read_bytes[c] + st->write_bytes[c]);
        });
  }
  if (scheduler_) {
    // The ramulator HBM_Memory.h stat set: per-epoch queueing averages and
    // the drain-episode counter, prefixed per device like every other
    // probe here.
    const QueueStats* qs = &scheduler_->stats();
    reg.add_ratio(
        prefix + "queueing_latency_avg",
        [qs] { return ticks_to_ns(qs->queueing_latency_sum); },
        [qs] { return static_cast<double>(qs->requests()); });
    reg.add_ratio(
        prefix + "read_queue_latency_avg",
        [qs] { return ticks_to_ns(qs->read_queue_latency_sum); },
        [qs] {
          return static_cast<double>(qs->reads_issued + qs->reads_coalesced);
        });
    reg.add_ratio(
        prefix + "req_queue_length_avg",
        [qs] { return static_cast<double>(qs->req_queue_length_sum); },
        [qs] { return static_cast<double>(qs->queue_length_samples); });
    reg.add_counter(prefix + "write_drain_count", [qs] {
      return static_cast<double>(qs->write_drain_count);
    });
  }
  if (faults_ != nullptr) {
    const fault::DeviceFaultState* fs = faults_;
    reg.add_counter(prefix + "ce_count",
                    [st] { return static_cast<double>(st->ce_count); });
    reg.add_counter(prefix + "ue_count",
                    [st] { return static_cast<double>(st->ue_count); });
    reg.add_gauge(prefix + "retired_rows",
                  [fs] { return static_cast<double>(fs->retired_rows()); });
  }
}

void DramDevice::attach_faults(fault::DeviceFaultState* faults,
                               std::string label) {
  faults_ = faults;
  fault_label_ = std::move(label);
}

void DramDevice::serialize(snap::Archive& ar) {
  ar.expect(banks_.size(), "dram bank count");
  for (Bank& b : banks_) {
    ar.u32(b.open_row);
    ar.u64(b.ready_at);
    ar.u64(b.act_allowed_at);
    ar.u64(b.write_recovery_at);
    ar.flag(b.last_was_write);
    ar.flag(b.has_issued);
  }
  ar.expect(bus_ready_.size(), "dram channel count");
  for (Tick& t : bus_ready_) ar.u64(t);
  for (Tick& t : next_refresh_) ar.u64(t);
  ar.u64(stats_.accesses);
  ar.u64(stats_.beats);
  ar.u64(stats_.row_hits);
  ar.u64(stats_.row_misses);
  ar.u64(stats_.row_empty);
  ar.u64(stats_.refreshes);
  ar.u64(stats_.ce_count);
  ar.u64(stats_.ue_count);
  for (u64& b : stats_.read_bytes) ar.u64(b);
  for (u64& b : stats_.write_bytes) ar.u64(b);
  u64 acts = energy_.act_count();
  u64 rd = energy_.read_burst_count();
  u64 wr = energy_.write_burst_count();
  ar.u64(acts);
  ar.u64(rd);
  ar.u64(wr);
  if (ar.loading()) energy_.restore_counts(acts, rd, wr);
  ar.optional(scheduler_.get(), "queue-layer");
}

}  // namespace bb::mem
