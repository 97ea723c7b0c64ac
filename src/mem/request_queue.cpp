#include "mem/request_queue.h"

#include <algorithm>
#include <cassert>

#include "common/snapshot.h"

namespace bb::mem {

ChannelScheduler::ChannelScheduler(const QueueConfig& cfg, u32 channels)
    : cfg_(cfg) {
  assert(cfg_.queue_depth > 0);
  assert(cfg_.write_low_watermark < cfg_.write_high_watermark);
  assert(cfg_.write_high_watermark <= cfg_.queue_depth);
  assert(cfg_.mshr_entries > 0);
  assert(is_pow2(cfg_.mshr_block_bytes));
  channels_.resize(channels);
}

std::size_t ChannelScheduler::pick_fr_fcfs(
    const std::vector<Candidate>& candidates) {
  assert(!candidates.empty());
  std::size_t best = candidates.size();  // best row-hit so far
  std::size_t oldest = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].arrival < candidates[oldest].arrival) oldest = i;
    if (!candidates[i].row_hit) continue;
    if (best == candidates.size() ||
        candidates[i].arrival < candidates[best].arrival) {
      best = i;
    }
  }
  return best != candidates.size() ? best : oldest;
}

std::size_t ChannelScheduler::expire_mshrs(Channel& ch, Tick now) {
  auto& m = ch.mshrs;
  m.erase(std::remove_if(m.begin(), m.end(),
                         [now](const Mshr& e) { return e.complete <= now; }),
          m.end());
  return m.size();
}

void ChannelScheduler::sample_queue_length(Channel& ch, Tick now) {
  stats_.req_queue_length_sum += ch.writes.size() + expire_mshrs(ch, now);
  ++stats_.queue_length_samples;
}

Tick ChannelScheduler::drain_to(Channel& ch, std::size_t target_len,
                                Tick now, QueueBackend& dev) {
  Tick first_slot_free = now;
  bool first = true;
  while (ch.writes.size() > target_len) {
    std::vector<Candidate> candidates;
    candidates.reserve(ch.writes.size());
    for (const QueuedWrite& w : ch.writes) {
      candidates.push_back({dev.open_row_hit(w.addr), w.arrival});
    }
    const std::size_t victim = pick_fr_fcfs(candidates);
    const QueuedWrite w = ch.writes[victim];
    ch.writes.erase(ch.writes.begin() +
                    static_cast<std::ptrdiff_t>(victim));
    const auto is = dev.issue(w.addr, w.bytes, AccessType::kWrite, now);
    stats_.queueing_latency_sum += is.start - w.arrival;
    ++stats_.writes_drained;
    if (first) {
      first_slot_free = is.complete;
      first = false;
    }
  }
  return first_slot_free;
}

ChannelScheduler::SchedResult ChannelScheduler::on_read(Addr addr, u64 bytes,
                                                        Tick now,
                                                        QueueBackend& dev) {
  Channel& ch = channels_[dev.channel_of(addr)];
  sample_queue_length(ch, now);

  const bool coalescable = bytes <= cfg_.mshr_block_bytes;
  const Addr block = addr & ~(cfg_.mshr_block_bytes - 1);
  if (coalescable) {
    for (const Mshr& m : ch.mshrs) {
      if (m.block == block) {
        // A same-block fill is already in flight: piggyback on it. No new
        // device traffic; the data arrives with the original fill.
        ++stats_.reads_coalesced;
        return {m.complete, /*coalesced=*/true};
      }
    }
  }

  const auto is = dev.issue(addr, bytes, AccessType::kRead, now);
  ++stats_.reads_issued;
  stats_.queueing_latency_sum += is.start - now;
  stats_.read_queue_latency_sum += is.start - now;

  if (coalescable) {
    if (ch.mshrs.size() >= cfg_.mshr_entries) {
      // Full: retire the entry completing soonest (it is the closest to
      // leaving anyway), keeping allocation deterministic.
      const auto soonest = std::min_element(
          ch.mshrs.begin(), ch.mshrs.end(),
          [](const Mshr& a, const Mshr& b) { return a.complete < b.complete; });
      ch.mshrs.erase(soonest);
    }
    ch.mshrs.push_back({block, is.complete});
  }
  return {is.complete, /*coalesced=*/false};
}

ChannelScheduler::SchedResult ChannelScheduler::on_write(Addr addr,
                                                         u64 bytes, Tick now,
                                                         QueueBackend& dev) {
  Channel& ch = channels_[dev.channel_of(addr)];
  sample_queue_length(ch, now);

  Tick accepted = now;
  if (ch.writes.size() >= cfg_.queue_depth) {
    // Back-pressure: the producer waits for a slot, and the stall is a
    // drain episode that takes the queue down to the low watermark.
    ++stats_.write_queue_full_stalls;
    ++stats_.write_drain_count;
    accepted = std::max(
        now, drain_to(ch, cfg_.write_low_watermark, now, dev));
  }

  ch.writes.push_back({addr, bytes, accepted});
  ++stats_.writes_enqueued;
  stats_.queueing_latency_sum += accepted - now;

  if (ch.writes.size() >= cfg_.write_high_watermark) {
    ++stats_.write_drain_count;
    drain_to(ch, cfg_.write_low_watermark, accepted, dev);
  }
  // Posted write: accepted into the controller queue, completion from the
  // producer's point of view is the acceptance tick.
  return {accepted, /*coalesced=*/false};
}

void ChannelScheduler::drain_all(Tick now, QueueBackend& dev) {
  for (Channel& ch : channels_) {
    drain_to(ch, 0, now, dev);
    ch.mshrs.clear();
  }
}

void ChannelScheduler::serialize(snap::Archive& ar) {
  ar.expect(channels_.size(), "scheduler channel count");
  for (Channel& ch : channels_) {
    ar.count(ch.writes);
    for (QueuedWrite& qw : ch.writes) {
      ar.u64(qw.addr);
      ar.u64(qw.bytes);
      ar.u64(qw.arrival);
    }
    ar.count(ch.mshrs);
    for (Mshr& m : ch.mshrs) {
      ar.u64(m.block);
      ar.u64(m.complete);
    }
  }
  ar.u64(stats_.reads_issued);
  ar.u64(stats_.reads_coalesced);
  ar.u64(stats_.writes_enqueued);
  ar.u64(stats_.writes_drained);
  ar.u64(stats_.write_drain_count);
  ar.u64(stats_.write_queue_full_stalls);
  ar.u64(stats_.queueing_latency_sum);
  ar.u64(stats_.read_queue_latency_sum);
  ar.u64(stats_.req_queue_length_sum);
  ar.u64(stats_.queue_length_samples);
}

}  // namespace bb::mem
