#include "baselines/silcfm.h"

#include <cassert>

#include "common/snapshot.h"

namespace bb::baselines {

SilcFmController::SilcFmController(mem::DramDevice& hbm,
                                   mem::DramDevice& dram,
                                   hmm::PagingConfig paging,
                                   const SilcFmConfig& cfg)
    : HybridMemoryController(
          "SILC-FM", hbm, dram,
          [&] {
            paging.visible_bytes = dram.capacity() + hbm.capacity();
            return paging;
          }()),
      cfg_(cfg),
      sets_(static_cast<u32>(hbm.capacity() / cfg.block_bytes)),
      m_(static_cast<u32>(dram.capacity() / cfg.block_bytes / sets_)),
      visible_div_(static_cast<u64>(sets_) * (m_ + 1) * cfg.block_bytes),
      block_div_(cfg.block_bytes),
      sub_div_(cfg.subblock_bytes),
      sets_div_(sets_),
      far_div_(m_) {
  paired_xor_none_ = ZeroArray<u32>(sets_);
  present_ = BitMatrix(sets_, subblocks());
  counter_ = ZeroArray<u8>(static_cast<std::size_t>(sets_) * (m_ + 1));

  hmm::MetadataConfig mc;
  mc.placement = hmm::MetadataPlacement::kSramCachedHbm;
  mc.cache_bytes = cfg_.metadata_cache_bytes;
  mc.entry_bytes = 8;
  meta_ = std::make_unique<hmm::MetadataModel>(mc, &hbm);
}

bool SilcFmController::check_invariants() const {
  for (u32 set = 0; set < sets_; ++set) {
    const u32 blk = paired(set);
    if (blk == kNone ? present_.row(set).any() : blk >= m_) return false;
  }
  return true;
}

void SilcFmController::serialize(snap::Archive& ar) {
  serialize_base(ar);
  ar.table(paired_xor_none_, "SILC-FM set count");
  present_.serialize(ar);
  ar.table(counter_, "SILC-FM block count");
  meta_->serialize(ar);
  if (ar.loading() && !check_invariants()) {
    throw snap::SnapshotError("SILC-FM set pairs an out-of-range block or "
                              "has present bits without a pair");
  }
}

u64 SilcFmController::metadata_sram_bytes() const {
  // Per set: paired-block id, the presence bit vector and counters.
  return static_cast<u64>(sets_) *
         (4 + subblocks() / 8 + (m_ + 1));
}

hmm::HmmResult SilcFmController::service(Addr addr, AccessType type,
                                         Tick now) {
  hmm::HmmResult res;
  const Addr a = visible_div_.wrap(addr);
  const u64 blk_global = block_div_.div(a);
  // Strided (CAMEO-style) congruence groups: block b shares set b % sets_.
  const u32 set = static_cast<u32>(sets_div_.mod(blk_global));
  const u32 blk = static_cast<u32>(sets_div_.div(blk_global));  // in-set
  const u64 off = block_div_.mod(a);
  const u32 sub = static_cast<u32>(sub_div_.div(off));
  BitRow present = present_.row(set);
  u8* const counter =
      counter_.data() + static_cast<std::size_t>(set) * (m_ + 1);

  res.metadata_latency = meta_->lookup(blk_global, now);
  Tick t = now + res.metadata_latency;

  if (counter[blk] < 0xff) ++counter[blk];

  const Addr near_base = static_cast<u64>(set) * cfg_.block_bytes;
  auto far_addr = [&](u32 b) {
    // In-set far block index m_ is the near-native block's spill frame;
    // far blocks [0, m_) have their own frames.
    return (far_div_.wrap(b) * sets_ + set) * cfg_.block_bytes;
  };

  // The near-native block (in-set index m_) is served near except for the
  // subblocks currently lent to the paired far block.
  if (blk == m_) {
    const bool displaced = paired(set) != kNone && present.test(sub);
    if (!displaced) {
      const Addr pa = near_base + off;
      const auto r =
          hbm().access(pa, 64, type, t, mem::TrafficClass::kDemand);
      res.complete = r.complete;
      res.served_by_hbm = true;
      res.phys_addr = pa;
      return res;
    }
    // Its subblock was swapped out to the paired block's far frame.
    const Addr pa = far_addr(paired(set)) + off;
    const auto r = dram().access(pa, 64, type, t,
                                 mem::TrafficClass::kDemand);
    res.complete = r.complete;
    res.served_by_hbm = false;
    res.phys_addr = pa;
    return res;
  }

  if (paired(set) == blk && present.test(sub)) {
    // Paired far block, subblock already interleaved into near memory.
    const Addr pa = near_base + off;
    const auto r = hbm().access(pa, 64, type, t, mem::TrafficClass::kDemand);
    res.complete = r.complete;
    res.served_by_hbm = true;
    res.phys_addr = pa;
    return res;
  }

  // Far access.
  const Addr pa = far_addr(blk) + off;
  const auto r = dram().access(pa, 64, type, t, mem::TrafficClass::kDemand);
  res.complete = r.complete;
  res.served_by_hbm = false;
  res.phys_addr = pa;

  // Pairing: a hot far block claims the near slot; switching pairs first
  // restores the previous pair's swapped subblocks (subblock-granularity
  // swaps back), the cheap-reconfiguration property SILC-FM claims.
  const u32 incumbent = paired(set);
  if (incumbent != blk) {
    const u8 incumbent_count = incumbent == kNone ? 0 : counter[incumbent];
    if (counter[blk] >= static_cast<u32>(incumbent_count) +
                            cfg_.pair_threshold) {
      if (incumbent != kNone) {
        for (u32 s2 = 0; s2 < subblocks(); ++s2) {
          if (present.test(s2)) {
            swap_data(hbm(), near_base + s2 * cfg_.subblock_bytes, dram(),
                      far_addr(incumbent) + s2 * cfg_.subblock_bytes,
                      cfg_.subblock_bytes, r.complete,
                      mem::TrafficClass::kMigration);
            ++mutable_stats().swaps;
          }
        }
        counter[incumbent] /= 2;
        present.clear_all();
      }
      set_paired(set, blk);
      ++mutable_stats().mode_switches;  // re-pairing event
    }
  }

  // Demand-driven subblock interleaving for the paired block.
  if (paired(set) == blk && !present.test(sub)) {
    swap_data(hbm(), near_base + sub * cfg_.subblock_bytes, dram(),
              far_addr(blk) + sub * cfg_.subblock_bytes,
              cfg_.subblock_bytes, r.complete,
              mem::TrafficClass::kMigration);
    present.set(sub);
    ++mutable_stats().blocks_fetched;
    ++mutable_stats().fetched_blocks_used;
    ++mutable_stats().swaps;
    meta_->update(blk_global, r.complete);
  }
  return res;
}

}  // namespace bb::baselines
