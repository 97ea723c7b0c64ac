#include "baselines/chameleon.h"

#include <bitset>
#include <cassert>

#include "common/check.h"
#include "common/snapshot.h"

namespace bb::baselines {

ChameleonController::ChameleonController(mem::DramDevice& hbm,
                                         mem::DramDevice& dram,
                                         hmm::PagingConfig paging,
                                         const ChameleonConfig& cfg)
    : HybridMemoryController(
          "Chameleon", hbm, dram,
          [&] {
            paging.visible_bytes = dram.capacity() + hbm.capacity();
            return paging;
          }()),
      cfg_(cfg),
      sets_(static_cast<u32>(hbm.capacity() / cfg.segment_bytes)),
      m_(static_cast<u32>(dram.capacity() / cfg.segment_bytes / sets_)),
      visible_div_(static_cast<u64>(sets_) * (m_ + 1) * cfg.segment_bytes),
      seg_div_(cfg.segment_bytes),
      group_div_(m_ + 1) {
  assert(m_ + 1 <= 0xff && "u8 permutation entries");
  const std::size_t entries = static_cast<std::size_t>(sets_) * (m_ + 1);
  seg_xor_frame_ = ZeroArray<u8>(entries);
  counter_ = ZeroArray<u8>(entries);

  hmm::MetadataConfig mc;
  mc.placement = hmm::MetadataPlacement::kSramCachedHbm;
  mc.cache_bytes = cfg_.metadata_cache_bytes;
  mc.entry_bytes = 8;
  meta_ = std::make_unique<hmm::MetadataModel>(mc, &hbm);
}

bool ChameleonController::set_is_permutation(u32 set) const {
  std::bitset<256> seen;
  for (u32 f = 0; f <= m_; ++f) {
    const u32 seg = segment_at(set, f);
    if (seg > m_ || seen.test(seg)) return false;
    seen.set(seg);
  }
  return true;
}

bool ChameleonController::check_invariants() const {
  for (u32 set = 0; set < sets_; ++set) {
    if (!set_is_permutation(set)) return false;
  }
  return true;
}

void ChameleonController::serialize(snap::Archive& ar) {
  serialize_base(ar);
  ar.table(seg_xor_frame_, "Chameleon segment count");
  ar.table(counter_, "Chameleon counter count");
  meta_->serialize(ar);
  if (ar.loading() && !check_invariants()) {
    throw snap::SnapshotError("Chameleon set is not a permutation");
  }
}

u64 ChameleonController::metadata_sram_bytes() const {
  // Per set: the frame permutation plus one counter per segment.
  return static_cast<u64>(sets_) * 2ULL * (m_ + 1);
}

hmm::HmmResult ChameleonController::service(Addr addr, AccessType type,
                                            Tick now) {
  hmm::HmmResult res;
  const Addr a = visible_div_.wrap(addr);
  const u64 seg_global = seg_div_.div(a);
  // Consecutive grouping: each remapping set covers m_+1 adjacent segments
  // sharing ONE near slot — the restriction the paper blames for uneven
  // HBM utilization (dense hot regions span a whole set but only one of
  // its segments can be near) and frequent sector migration.
  const u32 set = static_cast<u32>(group_div_.div(seg_global));
  const u32 seg = static_cast<u32>(group_div_.mod(seg_global));  // in-set
  const u64 off = seg_div_.mod(a);

  // Remap lookup through the SRAM metadata cache (misses go to HBM); the
  // table is per segment, so large footprints overflow the 512 KB cache.
  res.metadata_latency = meta_->lookup(seg_global, now);
  Tick t = now + res.metadata_latency;

  // The access counter is metadata too: it is updated on every access and
  // written through the SRAM metadata cache (misses cost HBM traffic).
  u8& seg_count = counter(set, seg);
  if (seg_count < 0xff) ++seg_count;
  meta_->update(seg_global, now);

  // Locate the segment's frame in the set's permutation. Frame m_ is the
  // set's single HBM slot; frames [0, m_) are off-chip.
  u32 frame = m_ + 1;
  for (u32 f = 0; f <= m_; ++f) {
    if (segment_at(set, f) == seg) {
      frame = f;
      break;
    }
  }
  assert(frame <= m_);

  const Addr hbm_slot = static_cast<u64>(set) * cfg_.segment_bytes;
  auto dram_frame_addr = [&](u32 f) {
    return (static_cast<u64>(set) * m_ + f) * cfg_.segment_bytes;
  };

  if (frame == m_) {
    const auto r = hbm().access(hbm_slot + off, 64, type, t,
                                mem::TrafficClass::kDemand);
    res.complete = r.complete;
    res.served_by_hbm = true;
    res.phys_addr = hbm_slot + off;
    return res;
  }

  const Addr pa = dram_frame_addr(frame) + off;
  const auto r = dram().access(pa, 64, type, t, mem::TrafficClass::kDemand);
  res.complete = r.complete;
  res.served_by_hbm = false;
  res.phys_addr = pa;

  // Swap decision: the challenger must beat the HBM occupant's counter by
  // the threshold; a full segment swap then moves data both ways.
  const u32 occupant = segment_at(set, m_);
  if (seg_count >= static_cast<u32>(counter(set, occupant)) +
                       cfg_.swap_threshold) {
    swap_data(hbm(), hbm_slot, dram(), dram_frame_addr(frame),
              cfg_.segment_bytes, r.complete, mem::TrafficClass::kMigration);
    set_segment_at(set, m_, seg);
    set_segment_at(set, frame, occupant);
    BB_CHECK(set_is_permutation(set),
             "Chameleon set permutation is not a bijection after a swap");
    counter(set, occupant) /= 2;  // age the displaced segment
    ++mutable_stats().swaps;
    mutable_stats().blocks_fetched += cfg_.segment_bytes / 64;
    ++mutable_stats().fetched_blocks_used;
    meta_->update(seg_global, r.complete);
  }
  return res;
}

}  // namespace bb::baselines
