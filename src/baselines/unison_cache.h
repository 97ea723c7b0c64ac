// Unison Cache (Jevdjic et al., MICRO 2014).
//
// A page-granularity (4 KB), 4-way set-associative DRAM cache with tags
// embedded in HBM and *footprint prediction*: on a page miss only the
// blocks the page used during its previous residency are fetched, cutting
// over-fetch while keeping page-level spatial locality. Way tags are read
// from HBM before the data access (in-HBM metadata latency); a footprint
// history table lives in SRAM.
#pragma once

#include <array>
#include <cassert>

#include "common/bitvector.h"
#include "common/zero_array.h"
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

  /// True when, on every way, the used and dirty blocks are fetched ones,
  /// an invalid way has empty bitmaps, and no set holds one page in two
  /// valid ways. Debug and BB_CHECKS builds check a set after every
  /// eviction from it and every install into it.
  bool check_invariants() const;

  void serialize(snap::Archive& ar) override;

  /// One way of the page cache: an unpadded snapshot table element.
  struct Way {
    u64 page = 0;  ///< OS page index
    u64 lru_stamp = 0;
    u8 valid = 0;
    std::array<u8, 7> pad{};
    bool well_formed() const { return valid <= 1 && pad == decltype(pad){}; }
  };

 protected:
  hmm::HmmResult service(Addr addr, AccessType type, Tick now) override;

 private:

  u32 blocks_per_page() const {
    return static_cast<u32>(cfg_.page_bytes / cfg_.block_bytes);
  }
  /// Index of way `w` of `set` in ways_.
  std::size_t way_index(u32 set, u32 w) const {
    assert(set < sets_ && w < cfg_.ways);
    return static_cast<std::size_t>(set) * cfg_.ways + w;
  }
  /// Row of bitmap `k` (kPresent, kDirty or kUsed) of way `wi` in blocks_.
  static std::size_t bitmap(std::size_t wi, std::size_t k) {
    return wi * kBitmaps + k;
  }
  Addr frame_addr(u32 set, u32 w) const;
  void evict(u32 set, u32 w, Tick now);
  bool set_is_consistent(u32 set) const;

  UnisonConfig cfg_;
  u32 sets_;
  Divisor page_div_;   ///< cfg_.page_bytes
  Divisor block_div_;  ///< cfg_.block_bytes
  Divisor sets_div_;   ///< sets_
  Divisor fp_div_;     ///< cfg_.footprint_table_entries
  ZeroArray<Way> ways_;  ///< all-zero bytes: every way invalid
  // Per-way block bitmaps: fetched blocks, dirty blocks, and demanded
  // blocks (footprint + over-fetch). A way's three are adjacent rows of one
  // table: an access finds them side by side, and the one table is large
  // enough for huge zero pages (DESIGN.md section 4).
  static constexpr std::size_t kPresent = 0;
  static constexpr std::size_t kDirty = 1;
  static constexpr std::size_t kUsed = 2;
  static constexpr std::size_t kBitmaps = 3;
  BitMatrix blocks_;
  u64 lru_clock_ = 0;
  /// Footprint history, direct-mapped by page id (aliasing pages share an
  /// entry, as a real bounded SRAM table would): block usage of the last
  /// residency. A never-written entry predicts no blocks.
  BitMatrix footprints_;
};

}  // namespace bb::baselines
