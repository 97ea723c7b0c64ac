#include "baselines/pom.h"

#include <bitset>
#include <cassert>
#include <stdexcept>

#include "common/check.h"
#include "common/snapshot.h"

namespace bb::baselines {

PomController::PomController(mem::DramDevice& hbm, mem::DramDevice& dram,
                             hmm::PagingConfig paging, const PomConfig& cfg)
    : HybridMemoryController(
          "PoM", hbm, dram,
          [&] {
            // The init list below divides by sector_bytes and by sets_.
            if (cfg.sector_bytes == 0 || cfg.sector_bytes > hbm.capacity()) {
              throw std::invalid_argument("PoM sector exceeds HBM or is 0");
            }
            paging.visible_bytes = dram.capacity() + hbm.capacity();
            return paging;
          }()),
      cfg_(cfg),
      sets_(static_cast<u32>(hbm.capacity() / cfg.sector_bytes)),
      m_(static_cast<u32>(dram.capacity() / cfg.sector_bytes / sets_)),
      visible_div_(static_cast<u64>(sets_) * (m_ + 1) * cfg.sector_bytes),
      sec_div_(cfg.sector_bytes),
      group_div_(m_ + 1) {
  if (m_ + 1 > 0xff) {  // u8 permutation entries
    throw std::invalid_argument("PoM set has more than 255 frames");
  }
  sec_xor_frame_ = ZeroArray<u8>(static_cast<std::size_t>(sets_) * (m_ + 1));
  entries_ = ZeroArray<SetEntry>(sets_);

  hmm::MetadataConfig mc;
  mc.placement = hmm::MetadataPlacement::kSramCachedHbm;
  mc.cache_bytes = cfg_.metadata_cache_bytes;
  mc.entry_bytes = 8;
  meta_ = std::make_unique<hmm::MetadataModel>(mc, &hbm);
}

bool PomController::set_is_permutation(u32 set) const {
  std::bitset<256> seen;
  for (u32 f = 0; f <= m_; ++f) {
    const u32 sec = sector_at(set, f);
    if (sec > m_ || seen.test(sec)) return false;
    seen.set(sec);
  }
  return true;
}

bool PomController::check_invariants() const {
  for (u32 set = 0; set < sets_; ++set) {
    if (!set_is_permutation(set)) return false;
  }
  return true;
}

void PomController::serialize(snap::Archive& ar) {
  serialize_base(ar);
  ar.table(sec_xor_frame_, "PoM sector count");
  ar.table(entries_, "PoM set table");
  meta_->serialize(ar);
  if (ar.loading() && !check_invariants()) {
    throw snap::SnapshotError("PoM set is not a permutation");
  }
}

u64 PomController::metadata_sram_bytes() const {
  // Permutation + one competing counter + challenger id per set.
  return static_cast<u64>(sets_) * ((m_ + 1) + 4);
}

hmm::HmmResult PomController::service(Addr addr, AccessType type, Tick now) {
  hmm::HmmResult res;
  const Addr a = visible_div_.wrap(addr);
  const u64 sec_global = sec_div_.div(a);
  const u32 set = static_cast<u32>(group_div_.div(sec_global));
  const u32 sec = static_cast<u32>(group_div_.mod(sec_global));
  const u64 off = sec_div_.mod(a);
  SetEntry& e = entries_[set];

  res.metadata_latency = meta_->lookup(sec_global, now);
  Tick t = now + res.metadata_latency;

  u32 frame = m_ + 1;
  for (u32 f = 0; f <= m_; ++f) {
    if (sector_at(set, f) == sec) {
      frame = f;
      break;
    }
  }
  assert(frame <= m_);

  const Addr hbm_slot = static_cast<u64>(set) * cfg_.sector_bytes;
  auto dram_frame_addr = [&](u32 f) {
    return (static_cast<u64>(set) * m_ + f) * cfg_.sector_bytes;
  };

  if (frame == m_) {
    // Near access: the occupant defends — the competing counter decays.
    if (e.counter > 0) --e.counter;
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

  // Competing counter: a far access by the tracked challenger increments;
  // a different far sector takes over the challenger slot when the counter
  // has decayed to zero (MEA-style tracking with one counter).
  if (e.challenger == sec) {
    ++e.counter;
  } else if (e.counter == 0) {
    e.challenger = sec;
    e.counter = 1;
  } else {
    --e.counter;
  }

  if (e.challenger == sec &&
      e.counter >= static_cast<i64>(cfg_.swap_threshold)) {
    swap_data(hbm(), hbm_slot, dram(), dram_frame_addr(frame),
              cfg_.sector_bytes, r.complete, mem::TrafficClass::kMigration);
    const u32 occupant = sector_at(set, m_);
    set_sector_at(set, m_, sec);
    set_sector_at(set, frame, occupant);
    BB_CHECK(set_is_permutation(set),
             "PoM set permutation is not a bijection after a swap");
    e.counter = 0;
    ++mutable_stats().swaps;
    mutable_stats().blocks_fetched += cfg_.sector_bytes / 64;
    ++mutable_stats().fetched_blocks_used;
    meta_->update(sec_global, r.complete);
  }
  return res;
}

}  // namespace bb::baselines
