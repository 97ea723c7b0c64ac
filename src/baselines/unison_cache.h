// Unison Cache (Jevdjic et al., MICRO 2014).
//
// A page-granularity (4 KB), 4-way set-associative DRAM cache with tags
// embedded in HBM and *footprint prediction*: on a page miss only the
// blocks the page used during its previous residency are fetched, cutting
// over-fetch while keeping page-level spatial locality. Way tags are read
// from HBM before the data access (in-HBM metadata latency); a footprint
// history table lives in SRAM.
#pragma once

#include <cassert>
#include <vector>

#include "common/bitvector.h"
#include "hmm/controller.h"

namespace bb::baselines {

struct UnisonConfig {
  u64 page_bytes = 4 * KiB;
  u64 block_bytes = 64;
  u32 ways = 4;
  u64 tag_bytes_per_page = 8;  ///< embedded tag+LRU+footprint metadata
  u64 footprint_table_entries = 16 * 1024;  ///< SRAM history table
};

class UnisonCacheController final : public hmm::HybridMemoryController {
 public:
  UnisonCacheController(mem::DramDevice& hbm, mem::DramDevice& dram,
                        hmm::PagingConfig paging = {},
                        const UnisonConfig& cfg = {});

  /// Only the footprint history table is SRAM-resident.
  u64 metadata_sram_bytes() const override;

  u32 set_count() const { return sets_; }

 protected:
  hmm::HmmResult service(Addr addr, AccessType type, Tick now) override;

 private:
  struct Way {
    bool valid = false;
    u64 page = 0;       ///< OS page index
    u64 lru_stamp = 0;
  };

  u32 blocks_per_page() const {
    return static_cast<u32>(cfg_.page_bytes / cfg_.block_bytes);
  }
  /// Index of way `w` of `set` in ways_ and in the per-way bitmaps.
  std::size_t way_index(u32 set, u32 w) const {
    assert(set < sets_ && w < cfg_.ways);
    return static_cast<std::size_t>(set) * cfg_.ways + w;
  }
  Addr frame_addr(u32 set, u32 w) const;
  void evict(u32 set, u32 w, Tick now);

  UnisonConfig cfg_;
  u32 sets_;
  std::vector<Way> ways_;
  // Per-way block bitmaps, one row per way (indexed by way_index).
  BitMatrix present_;  ///< fetched blocks
  BitMatrix dirty_;
  BitMatrix used_;     ///< demanded blocks (footprint + over-fetch)
  u64 lru_clock_ = 0;
  /// Footprint history, direct-mapped by page id (aliasing pages share an
  /// entry, as a real bounded SRAM table would): block usage of the last
  /// residency. A never-written entry predicts no blocks.
  BitMatrix footprints_;
};

}  // namespace bb::baselines
