// Banshee (Yu et al., MICRO 2017).
//
// A page-granularity (4 KB), 4-way set-associative DRAM cache that tracks
// cache contents through the page tables / TLBs, so lookups cost only an
// SRAM-latency check (no in-HBM tag probe) — its bandwidth-efficiency
// claim. Replacement is frequency-based with sampling: a miss only
// replaces when the candidate's access counter exceeds the victim's by a
// threshold, which suppresses cache thrashing, and misses are sampled so
// counter maintenance itself costs little bandwidth. Fills move whole
// pages; writebacks are lazy (page-granularity dirty).
#pragma once

#include <cassert>
#include <unordered_map>

#include "common/bitvector.h"
#include "common/zero_array.h"
#include "hmm/controller.h"

namespace bb::baselines {

struct BansheeConfig {
  u64 page_bytes = 4 * KiB;
  u32 ways = 4;
  u32 replace_threshold = 2;  ///< candidate must beat victim by this margin
  u32 sample_rate = 8;        ///< 1-in-N misses update frequency counters
  Tick sram_latency = ns_to_ticks(2.0);
};

class BansheeController final : public hmm::HybridMemoryController {
 public:
  BansheeController(mem::DramDevice& hbm, mem::DramDevice& dram,
                    hmm::PagingConfig paging = {},
                    const BansheeConfig& cfg = {});

  /// Full mapping metadata (page-table extensions + frequency counters) if
  /// it all had to live in SRAM.
  u64 metadata_sram_bytes() const override;

  /// True when no set holds one page in two valid ways and every invalid
  /// way has an empty `used` row. Debug and BB_CHECKS builds check a set
  /// after every install into it (an install replaces the evicted page).
  bool check_invariants() const;

  void serialize(snap::Archive& ar) override;

  /// One way of the page cache: an unpadded snapshot table element.
  struct Way {
    u64 page = 0;
    u16 freq = 0;
    u8 valid = 0;
    u8 dirty = 0;
    u32 pad = 0;
    bool well_formed() const { return valid <= 1 && dirty <= 1 && pad == 0; }
  };

 protected:
  hmm::HmmResult service(Addr addr, AccessType type, Tick now) override;

 private:

  /// Index of way `w` of `set` in ways_ and in used_.
  std::size_t way_index(u32 set, u32 w) const {
    assert(set < sets_ && w < cfg_.ways);
    return static_cast<std::size_t>(set) * cfg_.ways + w;
  }
  Way& way_at(u32 set, u32 w) { return ways_[way_index(set, w)]; }
  bool set_is_consistent(u32 set) const;
  Addr frame_addr(u32 set, u32 w) const {
    return (static_cast<u64>(set) * cfg_.ways + w) * cfg_.page_bytes;
  }

  BansheeConfig cfg_;
  u32 sets_;
  Divisor page_div_;    ///< cfg_.page_bytes
  Divisor sets_div_;    ///< sets_
  Divisor sample_div_;  ///< cfg_.sample_rate
  ZeroArray<Way> ways_;  ///< all-zero bytes: every way invalid
  BitMatrix used_;  ///< per way: demanded blocks, for over-fetch accounting
  // determinism-ok: keyed operator[]/erase only (never iterated), so the
  // implementation-defined bucket order cannot reach stats or output.
  std::unordered_map<u64, u16> candidate_freq_;  ///< sampled miss counters
  u64 miss_tick_ = 0;                            ///< sampling wheel
};

}  // namespace bb::baselines
