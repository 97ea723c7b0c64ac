#include "baselines/hybrid2.h"

#include <bitset>
#include <cassert>
#include <stdexcept>

#include "common/check.h"
#include "common/trace_event.h"

namespace bb::baselines {

Hybrid2Controller::Hybrid2Controller(mem::DramDevice& hbm,
                                     mem::DramDevice& dram,
                                     hmm::PagingConfig paging,
                                     const Hybrid2Config& cfg)
    : HybridMemoryController(
          "Hybrid2", hbm, dram,
          [&] {
            if (hbm.capacity() <= cfg.cache_bytes) {
              throw std::invalid_argument(
                  "Hybrid2 needs HBM beyond its fixed cHBM slice");
            }
            paging.visible_bytes =
                dram.capacity() + hbm.capacity() - cfg.cache_bytes;
            return paging;
          }()),
      cfg_(cfg) {
  if (cfg_.page_bytes == 0 || cfg_.hbm_ways == 0 || cfg_.block_bytes == 0 ||
      cfg_.cache_ways == 0) {
    throw std::invalid_argument("Hybrid2 page, block or way count is 0");
  }
  const u64 mhbm_pages =
      (hbm.capacity() - cfg_.cache_bytes) / cfg_.page_bytes;
  n_ = cfg_.hbm_ways;
  sets_ = static_cast<u32>(mhbm_pages / n_);
  if (sets_ == 0) throw std::invalid_argument("Hybrid2 mHBM below one set");
  m_ = static_cast<u32>(dram.capacity() / cfg_.page_bytes / sets_);
  if (m_ + n_ > 0xff) {  // u8 permutation entries
    throw std::invalid_argument("Hybrid2 set has more than 255 frames");
  }

  const std::size_t segs = static_cast<std::size_t>(sets_) * (m_ + n_);
  const std::size_t ways = static_cast<std::size_t>(sets_) * n_;
  seg_xor_frame_ = ZeroArray<u8>(segs);
  counter_ = ZeroArray<u8>(segs);
  used_mask_ = ZeroArray<u8>(ways);
  swapped_ = ZeroArray<u8>(ways);

  cache_sets_ =
      static_cast<u32>(cfg_.cache_bytes / cfg_.block_bytes / cfg_.cache_ways);
  if (cache_sets_ == 0) {
    throw std::invalid_argument("Hybrid2 cHBM below one set");
  }
  cache_ = ZeroArray<CacheLine>(static_cast<std::size_t>(cache_sets_) *
                                cfg_.cache_ways);

  hmm::MetadataConfig mc;
  mc.placement = hmm::MetadataPlacement::kSramCachedHbm;
  mc.cache_bytes = cfg_.metadata_cache_bytes;
  mc.entry_bytes = 8;
  meta_ = std::make_unique<hmm::MetadataModel>(mc, &hbm);
}

bool Hybrid2Controller::set_is_permutation(u32 set) const {
  std::bitset<256> seen;
  for (u32 f = 0; f < m_ + n_; ++f) {
    const u32 seg = segment_at(set, f);
    if (seg >= m_ + n_ || seen.test(seg)) return false;
    seen.set(seg);
  }
  return true;
}

bool Hybrid2Controller::check_invariants() const {
  for (u32 set = 0; set < sets_; ++set) {
    if (!set_is_permutation(set)) return false;
  }
  return true;
}

u64 Hybrid2Controller::metadata_sram_bytes() const {
  // Remap permutations + per-segment counters + per-frame masks, plus cache
  // tags (~3 B per 256 B line).
  const u64 remap_bytes =
      static_cast<u64>(sets_) * (2ULL * (m_ + n_) + n_);
  const u64 tag_bytes =
      (cfg_.cache_bytes / cfg_.block_bytes) * 3;
  return remap_bytes + tag_bytes;
}

void Hybrid2Controller::flush_frame_blocks(Addr fa, Tick now) {
  const u32 blocks = static_cast<u32>(cfg_.page_bytes / cfg_.block_bytes);
  for (u32 b = 0; b < blocks; ++b) {
    const Addr ba = fa + b * cfg_.block_bytes;
    const u64 line = ba / cfg_.block_bytes;
    const u32 cset = static_cast<u32>(line % cache_sets_);
    const u32 tag = static_cast<u32>(line / cache_sets_);
    for (u32 w = 0; w < cfg_.cache_ways; ++w) {
      CacheLine& cl = cache_[static_cast<std::size_t>(cset) *
                                 cfg_.cache_ways +
                             w];
      if (cl.valid && cl.tag == tag) {
        if (cl.dirty) {
          const Addr slot =
              (static_cast<u64>(cset) * cfg_.cache_ways + w) *
              cfg_.block_bytes;
          move_data(hbm(), slot, dram(), ba, cfg_.block_bytes, now,
                    mem::TrafficClass::kWriteback);
        }
        cl.valid = false;
        cl.dirty = false;
      }
    }
  }
}

hmm::HmmResult Hybrid2Controller::cache_path(Addr fa, u64 off,
                                             AccessType type, Tick t) {
  hmm::HmmResult res;
  const Addr ba = fa + (off / cfg_.block_bytes) * cfg_.block_bytes;
  const u64 in_block = off % cfg_.block_bytes;
  const u64 line = ba / cfg_.block_bytes;
  const u32 cset = static_cast<u32>(line % cache_sets_);
  const u32 tag = static_cast<u32>(line / cache_sets_);
  const std::size_t base =
      static_cast<std::size_t>(cset) * cfg_.cache_ways;

  for (u32 w = 0; w < cfg_.cache_ways; ++w) {
    CacheLine& cl = cache_[base + w];
    if (cl.valid && cl.tag == tag) {
      const Addr slot =
          (static_cast<u64>(cset) * cfg_.cache_ways + w) * cfg_.block_bytes +
          in_block;
      const auto r = hbm().access(slot, 64, type, t,
                                  mem::TrafficClass::kDemand);
      cl.lru = ++lru_clock_;
      if (type == AccessType::kWrite) cl.dirty = true;
      res.complete = r.complete;
      res.served_by_hbm = true;
      res.phys_addr = slot;
      return res;
    }
  }

  // Cache miss: serve off-chip and fill the 256 B block.
  const auto r =
      dram().access(fa + off, 64, type, t, mem::TrafficClass::kDemand);
  res.complete = r.complete;
  res.served_by_hbm = false;
  res.phys_addr = fa + off;

  u32 victim = 0;
  u64 oldest = ~u64{0};
  for (u32 w = 0; w < cfg_.cache_ways; ++w) {
    CacheLine& cl = cache_[base + w];
    if (!cl.valid) {
      victim = w;
      oldest = 0;
      break;
    }
    if (cl.lru < oldest) {
      oldest = cl.lru;
      victim = w;
    }
  }
  CacheLine& cl = cache_[base + victim];
  const Addr slot =
      (static_cast<u64>(cset) * cfg_.cache_ways + victim) * cfg_.block_bytes;
  if (cl.valid && cl.dirty) {
    const Addr victim_addr =
        (static_cast<u64>(cl.tag) * cache_sets_ +
         cset) *
        cfg_.block_bytes;
    move_data(hbm(), slot, dram(), victim_addr, cfg_.block_bytes, r.complete,
              mem::TrafficClass::kWriteback);
    ++mutable_stats().evictions;
  }
  move_data(dram(), ba, hbm(), slot, cfg_.block_bytes, r.complete,
            mem::TrafficClass::kFill);
  cl.valid = true;
  cl.tag = tag;
  cl.dirty = false;  // demand went to DRAM; the cached copy starts clean
  cl.lru = ++lru_clock_;
  ++mutable_stats().blocks_fetched;
  ++mutable_stats().fetched_blocks_used;  // Hybrid2 fetches requested blocks
  return res;
}

hmm::HmmResult Hybrid2Controller::service(Addr addr, AccessType type,
                                          Tick now) {
  hmm::HmmResult res;
  const u64 visible =
      static_cast<u64>(sets_) * (m_ + n_) * cfg_.page_bytes;
  const Addr a = addr % visible;
  const u64 page = a / cfg_.page_bytes;
  const u32 set = static_cast<u32>(page % sets_);
  const u32 seg = static_cast<u32>(page / sets_);
  const u64 off = a % cfg_.page_bytes;

  // Metadata is per page (remap entry + counters): the SRAM metadata cache
  // only helps while the page working set fits in 512 KB.
  res.metadata_latency = meta_->lookup(page, now);
  Tick t = now + res.metadata_latency;

  u8& seg_count = counter(set, seg);
  if (seg_count < 0xff) ++seg_count;

  u32 frame = m_ + n_;
  for (u32 f = 0; f < m_ + n_; ++f) {
    if (segment_at(set, f) == seg) {
      frame = f;
      break;
    }
  }
  assert(frame < m_ + n_);

  if (frame >= m_) {
    // mHBM hit.
    const u32 way = frame - m_;
    const Addr pa = mhbm_frame_addr(set, way) + off;
    const auto r = hbm().access(pa, 64, type, t, mem::TrafficClass::kDemand);
    const u32 blk = static_cast<u32>(off / cfg_.block_bytes);
    const u8 bit = static_cast<u8>(1u << blk);
    // Over-fetch accounting applies only to data that was actually moved
    // into HBM; native-resident pages were never fetched.
    if (swapped(set, way) != 0 && !(used_mask(set, way) & bit)) {
      used_mask(set, way) |= bit;
      ++mutable_stats().fetched_blocks_used;
    }
    res.complete = r.complete;
    res.served_by_hbm = true;
    res.phys_addr = pa;
    return res;
  }

  // Off-chip page: go through the fixed 64 MB block cache. The cache tags
  // are metadata of their own (distinct key space from the remap table).
  const Addr fa = dram_frame_addr(set, frame);
  const Tick tag_lat =
      meta_->lookup((u64{1} << 26) + (fa + off) / cfg_.block_bytes, t);
  res.metadata_latency += tag_lat;
  t += tag_lat;
  hmm::HmmResult inner = cache_path(fa, off, type, t);
  res.complete = inner.complete;
  res.served_by_hbm = inner.served_by_hbm;
  res.phys_addr = inner.phys_addr;

  // Promotion: swap with the set's coldest mHBM page when hot enough.
  u32 cold_way = 0;
  u8 cold_count = 0xff;
  for (u32 w = 0; w < n_; ++w) {
    const u8 c = counter(set, segment_at(set, m_ + w));
    if (c < cold_count) {
      cold_count = c;
      cold_way = w;
    }
  }
  if (seg_count >= static_cast<u32>(cold_count) + cfg_.promote_threshold) {
    // Separate spaces: the page's cHBM blocks must be flushed first, then
    // the full pages swap (the mode-switch overhead Bumblebee avoids).
    flush_frame_blocks(fa, res.complete);
    const u32 victim_seg = segment_at(set, m_ + cold_way);
    swap_data(hbm(), mhbm_frame_addr(set, cold_way), dram(), fa,
              cfg_.page_bytes, res.complete, mem::TrafficClass::kMigration);
    set_segment_at(set, m_ + cold_way, seg);
    set_segment_at(set, frame, victim_seg);
    BB_CHECK(set_is_permutation(set),
             "Hybrid2 set permutation is not a bijection after a swap");
    counter(set, victim_seg) /= 2;
    swapped(set, cold_way) = 1;
    const u32 blk = static_cast<u32>(off / cfg_.block_bytes);
    used_mask(set, cold_way) = static_cast<u8>(1u << blk);
    mutable_stats().blocks_fetched +=
        cfg_.page_bytes / cfg_.block_bytes;
    ++mutable_stats().fetched_blocks_used;
    ++mutable_stats().swaps;
    ++mutable_stats().mode_switches;
    if (tracing()) {
      trace()->emit(TraceEvent(res.complete, "page_swap", "hybrid2")
                        .arg("set", set)
                        .arg("promoted_seg", seg)
                        .arg("victim_seg", victim_seg)
                        .arg("bytes", cfg_.page_bytes));
    }
    meta_->update(page, res.complete);
  }
  return res;
}

}  // namespace bb::baselines
