// Hybrid2 (Vasilakis et al., HPCA 2020).
//
// The state-of-the-art hybrid-mode design the paper compares against.
// A small, statically fixed slice of HBM (64 MB) is a 256 B-block, 8-way
// DRAM cache (cHBM); the remaining HBM is OS-visible POM (mHBM) managed in
// 2 KB pages with set-associative remapping and swap-based migration. The
// two spaces are SEPARATE: promoting a page into mHBM swaps out a victim
// page (full traffic both ways) and first flushes the page's cHBM blocks —
// the mode-switch overhead Bumblebee's multiplexed space eliminates. Its
// metadata (remap tables, counters, cache tags) far exceeds SRAM, so
// lookups run through a 512 KB SRAM metadata cache backed by HBM.
#pragma once

#include <cassert>

#include "common/zero_array.h"
#include "hmm/controller.h"
#include "hmm/metadata.h"

namespace bb::baselines {

struct Hybrid2Config {
  u64 cache_bytes = 64 * MiB;   ///< fixed cHBM slice
  u64 block_bytes = 256;        ///< cHBM block
  u32 cache_ways = 8;
  u64 page_bytes = 2 * KiB;     ///< mHBM page
  u32 hbm_ways = 8;             ///< mHBM pages per remapping set
  u32 promote_threshold = 4;    ///< counter margin vs coldest mHBM page
  u64 metadata_cache_bytes = 512 * KiB;
};

class Hybrid2Controller final : public hmm::HybridMemoryController {
 public:
  Hybrid2Controller(mem::DramDevice& hbm, mem::DramDevice& dram,
                    hmm::PagingConfig paging = {},
                    const Hybrid2Config& cfg = {});

  /// Total metadata the design would need in SRAM (it does not fit; the
  /// real design keeps a 512 KB SRAM cache in front of it).
  u64 metadata_sram_bytes() const override;

  /// Base reset plus the metadata model's lookup/latency stats.
  void reset_stats() override {
    HybridMemoryController::reset_stats();
    meta_->reset_stats();
  }

  u32 remap_sets() const { return sets_; }
  u32 dram_pages_per_set() const { return m_; }

  /// The in-set page held by `frame` of `set` (frames [m_, m_+n_) are the
  /// set's mHBM ways).
  u32 segment_at(u32 set, u32 frame) const {
    return static_cast<u32>(seg_xor_frame_[seg_index(set, frame)] ^ frame);
  }

  /// True when the permutation of every set is a bijection over its
  /// frames. Debug and BB_CHECKS builds check a set after every swap in
  /// it.
  bool check_invariants() const;

  void serialize(snap::Archive& ar) override;

  /// One line of the block cache: an unpadded snapshot table element.
  /// All-zero is an invalid, clean line, so the tag array starts as zero
  /// pages.
  struct CacheLine {
    u32 tag = 0;
    u8 valid = 0;
    u8 dirty = 0;
    u16 pad = 0;
    u64 lru = 0;
    bool well_formed() const { return valid <= 1 && dirty <= 1 && pad == 0; }
  };

 protected:
  hmm::HmmResult service(Addr addr, AccessType type, Tick now) override;

 private:
  // Remap state lives in flat arrays: m_+n_ entries per set for the frame
  // permutation and the segment counters, n_ per set for the mHBM ways.
  std::size_t seg_index(u32 set, u32 i) const {
    assert(set < sets_ && i < m_ + n_);
    return static_cast<std::size_t>(set) * (m_ + n_) + i;
  }
  std::size_t way_index(u32 set, u32 way) const {
    assert(set < sets_ && way < n_);
    return static_cast<std::size_t>(set) * n_ + way;
  }
  void set_segment_at(u32 set, u32 frame, u32 seg) {
    seg_xor_frame_[seg_index(set, frame)] = static_cast<u8>(seg ^ frame);
  }
  u8& counter(u32 set, u32 seg) { return counter_[seg_index(set, seg)]; }
  u8& used_mask(u32 set, u32 way) { return used_mask_[way_index(set, way)]; }
  u8& swapped(u32 set, u32 way) { return swapped_[way_index(set, way)]; }
  bool set_is_permutation(u32 set) const;

  Addr mhbm_frame_addr(u32 set, u32 way) const {
    return cfg_.cache_bytes +
           (static_cast<u64>(way) * sets_ + set) * cfg_.page_bytes;
  }
  Addr dram_frame_addr(u32 set, u32 frame) const {
    return (static_cast<u64>(frame) * sets_ + set) * cfg_.page_bytes;
  }

  /// Serves a request hitting off-chip frame `fa` through the block cache.
  hmm::HmmResult cache_path(Addr fa, u64 off, AccessType type, Tick t);

  /// Flushes (writes back + invalidates) all cache lines covering the 2 KB
  /// DRAM frame at `fa` — required before the frame's content is swapped.
  void flush_frame_blocks(Addr fa, Tick now);

  Hybrid2Config cfg_;
  u32 sets_;  ///< mHBM remapping sets
  u32 m_;     ///< off-chip pages per set
  u32 n_;     ///< mHBM pages per set
  Divisor visible_div_;     ///< bytes the sets cover
  Divisor page_div_;        ///< cfg_.page_bytes
  Divisor sets_div_;        ///< sets_
  Divisor block_div_;       ///< cfg_.block_bytes
  Divisor cache_sets_div_;  ///< cache_sets_
  /// Per set: the permutation over m_+n_ frames, stored as
  /// segment ^ frame so that zero pages read as the identity.
  ZeroArray<u8> seg_xor_frame_;
  ZeroArray<u8> counter_;    ///< per set: per-segment access counters
  ZeroArray<u8> used_mask_;  ///< per mHBM frame: accessed 256 B blocks
  ZeroArray<u8> swapped_;    ///< per mHBM frame: content was fetched
  u32 cache_sets_;
  ZeroArray<CacheLine> cache_;
  u64 lru_clock_ = 0;
  std::unique_ptr<hmm::MetadataModel> meta_;
};

}  // namespace bb::baselines
