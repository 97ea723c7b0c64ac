#include "baselines/unison_cache.h"

#include "common/check.h"
#include "common/snapshot.h"

namespace bb::baselines {

UnisonCacheController::UnisonCacheController(mem::DramDevice& hbm,
                                             mem::DramDevice& dram,
                                             hmm::PagingConfig paging,
                                             const UnisonConfig& cfg)
    : HybridMemoryController("UC", hbm, dram,
                             [&] {
                               paging.visible_bytes = dram.capacity();
                               return paging;
                             }()),
      cfg_(cfg) {
  const u64 slot_bytes = cfg_.page_bytes + cfg_.tag_bytes_per_page;
  const u64 pages = hbm.capacity() / slot_bytes;
  sets_ = static_cast<u32>(pages / cfg_.ways);
  page_div_ = Divisor(cfg_.page_bytes);
  block_div_ = Divisor(cfg_.block_bytes);
  sets_div_ = Divisor(sets_);
  fp_div_ = Divisor(cfg_.footprint_table_entries);
  const std::size_t ways = static_cast<std::size_t>(sets_) * cfg_.ways;
  ways_ = ZeroArray<Way>(ways);
  blocks_ = BitMatrix(ways * kBitmaps, blocks_per_page());
  footprints_ = BitMatrix(cfg_.footprint_table_entries, blocks_per_page());
}

u64 UnisonCacheController::metadata_sram_bytes() const {
  // Footprint history table: per entry a page id (4 B) plus one bit per
  // block of the page.
  return cfg_.footprint_table_entries * (4 + blocks_per_page() / 8);
}

bool UnisonCacheController::set_is_consistent(u32 set) const {
  for (u32 w = 0; w < cfg_.ways; ++w) {
    const std::size_t wi = way_index(set, w);
    const Way& way = ways_[wi];
    if (!way.valid) {
      if (blocks_.row(bitmap(wi, kPresent)).any() ||
          blocks_.row(bitmap(wi, kDirty)).any() ||
          blocks_.row(bitmap(wi, kUsed)).any()) {
        return false;
      }
      continue;
    }
    for (u32 b = 0; b < blocks_per_page(); ++b) {
      if ((blocks_.test(bitmap(wi, kUsed), b) ||
           blocks_.test(bitmap(wi, kDirty), b)) &&
          !blocks_.test(bitmap(wi, kPresent), b)) {
        return false;
      }
    }
    for (u32 v = w + 1; v < cfg_.ways; ++v) {
      const Way& other = ways_[way_index(set, v)];
      if (other.valid && other.page == way.page) return false;
    }
  }
  return true;
}

bool UnisonCacheController::check_invariants() const {
  for (u32 set = 0; set < sets_; ++set) {
    if (!set_is_consistent(set)) return false;
  }
  return true;
}

void UnisonCacheController::serialize(snap::Archive& ar) {
  serialize_base(ar);
  ar.table(ways_, "UC way table");
  blocks_.serialize(ar);
  ar.u64(lru_clock_);
  footprints_.serialize(ar);
  if (ar.loading() && !check_invariants()) {
    throw snap::SnapshotError("UC set holds a page twice or a block bitmap "
                              "outside its fetched blocks");
  }
}

Addr UnisonCacheController::frame_addr(u32 set, u32 w) const {
  const u64 slot_bytes = cfg_.page_bytes + cfg_.tag_bytes_per_page;
  return (static_cast<u64>(set) * cfg_.ways + w) * slot_bytes;
}

void UnisonCacheController::evict(u32 set, u32 w, Tick now) {
  const std::size_t wi = way_index(set, w);
  Way& way = ways_[wi];
  if (!way.valid) return;
  const Addr frame = frame_addr(set, w);
  const Addr home = dram().fold(way.page * cfg_.page_bytes);
  for (u32 b = 0; b < blocks_per_page(); ++b) {
    if (blocks_.test(bitmap(wi, kDirty), b)) {
      move_data(hbm(), frame + b * cfg_.block_bytes, dram(),
                home + b * cfg_.block_bytes, cfg_.block_bytes, now,
                mem::TrafficClass::kWriteback);
    }
  }
  // Record the residency footprint for the next fill of this page.
  footprints_.copy_row(fp_div_.mod(way.page), blocks_,
                       bitmap(wi, kUsed));
  way.valid = false;
  for (std::size_t k = 0; k < kBitmaps; ++k) {
    blocks_.clear_row(bitmap(wi, k));
  }
  BB_CHECK(set_is_consistent(set), "UC set inconsistent after an eviction");
  ++mutable_stats().evictions;
}

hmm::HmmResult UnisonCacheController::service(Addr addr, AccessType type,
                                              Tick now) {
  hmm::HmmResult res;
  const Addr phys = dram().fold(addr);
  const u64 page = page_div_.div(phys);
  const u32 set = static_cast<u32>(sets_div_.mod(page));
  const u32 block = static_cast<u32>(block_div_.div(page_div_.mod(phys)));
  const u64 in_block_off = block_div_.mod(phys);

  // Embedded tags: one HBM metadata read covering the set's way tags.
  const auto tags = hbm().access(frame_addr(set, 0) + cfg_.page_bytes,
                                 cfg_.tag_bytes_per_page * cfg_.ways,
                                 AccessType::kRead, now,
                                 mem::TrafficClass::kMetadata);
  res.metadata_latency = tags.latency();
  Tick t = tags.complete;

  for (u32 w = 0; w < cfg_.ways; ++w) {
    const std::size_t wi = way_index(set, w);
    Way& way = ways_[wi];
    if (way.valid && way.page == page) {
      way.lru_stamp = ++lru_clock_;
      if (blocks_.test(bitmap(wi, kPresent), block)) {
        const Addr pa = frame_addr(set, w) + block * cfg_.block_bytes +
                        in_block_off;
        const auto r =
            hbm().access(pa, 64, type, t, mem::TrafficClass::kDemand);
        res.complete = r.complete;
        res.served_by_hbm = true;
        res.phys_addr = pa;
        if (type == AccessType::kWrite) {
          blocks_.set(bitmap(wi, kDirty), block);
        }
        if (!blocks_.test(bitmap(wi, kUsed), block)) {
          blocks_.set(bitmap(wi, kUsed), block);
          ++mutable_stats().fetched_blocks_used;
        }
        return res;
      }
      // Footprint mispredict: block not fetched; serve off-chip and add it.
      const auto r = dram().access(phys, 64, type, t,
                                   mem::TrafficClass::kDemand);
      move_data(dram(), phys - in_block_off, hbm(),
                frame_addr(set, w) + block * cfg_.block_bytes,
                cfg_.block_bytes, r.complete, mem::TrafficClass::kFill);
      blocks_.set(bitmap(wi, kPresent), block);
      blocks_.set(bitmap(wi, kUsed), block);
      ++mutable_stats().blocks_fetched;
      ++mutable_stats().fetched_blocks_used;
      res.complete = r.complete;
      res.served_by_hbm = false;
      res.phys_addr = phys;
      return res;
    }
  }

  // Page miss: serve off-chip, then install with the predicted footprint.
  const auto r = dram().access(phys, 64, type, t, mem::TrafficClass::kDemand);
  res.complete = r.complete;
  res.served_by_hbm = false;
  res.phys_addr = phys;

  // Victim: invalid way or LRU.
  u32 victim = 0;
  u64 oldest = ~u64{0};
  for (u32 w = 0; w < cfg_.ways; ++w) {
    const Way& way = ways_[way_index(set, w)];
    if (!way.valid) {
      victim = w;
      oldest = 0;
      break;
    }
    if (way.lru_stamp < oldest) {
      oldest = way.lru_stamp;
      victim = w;
    }
  }
  evict(set, victim, r.complete);

  const std::size_t wi = way_index(set, victim);
  Way& way = ways_[wi];
  way.valid = true;
  way.page = page;
  way.lru_stamp = ++lru_clock_;
  // Fetch the predicted footprint, and always the demanded block.
  const std::size_t fp = fp_div_.mod(page);
  const Addr frame = frame_addr(set, victim);
  const Addr home = page * cfg_.page_bytes;
  for (u32 b = 0; b < blocks_per_page(); ++b) {
    if (b == block || footprints_.test(fp, b)) {
      move_data(dram(), home + b * cfg_.block_bytes, hbm(),
                frame + b * cfg_.block_bytes, cfg_.block_bytes, r.complete,
                mem::TrafficClass::kFill);
      blocks_.set(bitmap(wi, kPresent), b);
      ++mutable_stats().blocks_fetched;
    }
  }
  blocks_.set(bitmap(wi, kUsed), block);
  ++mutable_stats().fetched_blocks_used;
  if (type == AccessType::kWrite) blocks_.set(bitmap(wi, kDirty), block);
  BB_CHECK(set_is_consistent(set), "UC set inconsistent after an install");
  // Tag update rides with the fill.
  hbm().access(frame + cfg_.page_bytes, cfg_.tag_bytes_per_page,
               AccessType::kWrite, r.complete, mem::TrafficClass::kMetadata);
  return res;
}

}  // namespace bb::baselines
