// OS paging pressure model.
//
// POM-style designs make the HBM capacity OS-visible; cache-style designs do
// not. The paper credits hybrid/POM designs with "more OS-visible memory to
// reduce page faults" (Section III-E, movement trigger 5). We model this
// with a resident-set simulation: OS pages (4 KB) become resident on first
// touch; when the resident set exceeds the design's visible capacity a
// victim is chosen clock-style and the faulting access pays a fixed penalty
// (minor-fault / compressed-swap cost, not a disk swap).
#pragma once

#include <vector>

#include "common/types.h"

namespace bb {
class MemoryTraceSink;
}  // namespace bb

namespace bb::snap {
class Archive;
}  // namespace bb::snap

namespace bb::hmm {

struct PagingConfig {
  bool enabled = true;
  u64 visible_bytes = 10 * GiB;  ///< OS-visible memory capacity
  u64 os_page_bytes = 4 * KiB;
  Tick fault_penalty = ns_to_ticks(200.0);
};

struct PagingStats {
  u64 faults = 0;        ///< capacity faults (victim evicted + penalty paid)
  u64 first_touches = 0; ///< cold faults (no penalty; OS zero-fill assumed)
};

class PagingModel {
 public:
  explicit PagingModel(const PagingConfig& cfg);

  /// Touches the OS page containing `addr` at simulated tick `now`;
  /// returns the penalty (0 or the configured fault penalty) to add to the
  /// request latency.
  Tick touch(Addr addr, Tick now = 0);

  /// Attaches / detaches (nullptr) the event trace sink; capacity faults
  /// then emit os_page_swap_out events (victim page evicted).
  void set_trace_sink(MemoryTraceSink* sink) { trace_ = sink; }

  const PagingStats& stats() const { return stats_; }
  const PagingConfig& config() const { return cfg_; }

  /// Clears the fault counters at a warmup boundary. The resident set and
  /// clock ring survive — the OS does not forget which pages are resident
  /// when measurement starts.
  void reset_stats() { stats_ = PagingStats{}; }

  /// Snapshot/restore of the resident set (clock ring + reference bits +
  /// hand) and fault counters; a restore rebuilds the page->slot table
  /// from the ring and fails closed on a ring longer than the capacity or
  /// one that lists a page twice.
  void serialize(snap::Archive& ar);

 private:
  static constexpr u32 kEmptySlot = ~u32{0};

  /// Home index of `page` in table_ (Fibonacci hashing: the top bits of
  /// the product).
  std::size_t home(u64 page) const {
    return static_cast<std::size_t>((page * 0x9E3779B97F4A7C15ULL) >>
                                    table_shift_);
  }
  /// Index in table_ holding `page`'s ring slot, or the empty entry where
  /// it would be inserted.
  std::size_t find(u64 page) const;
  /// Removes resident `page` (backward-shift deletion, no tombstones).
  void erase(u64 page);
  /// Re-sizes table_ to hold the whole ring at most half full.
  void rebuild();

  MemoryTraceSink* trace_ = nullptr;
  PagingConfig cfg_;
  Divisor os_page_;
  u64 capacity_pages_;
  PagingStats stats_;
  /// page id -> slot in the clock ring: open addressing with linear
  /// probing over a power-of-two table of ring slots. The key is read back
  /// through ring_, so an entry is 4 B. Never iterated: victim order comes
  /// from the clock ring, not from table order.
  std::vector<u32> table_;
  u32 table_shift_ = 64;                   ///< 64 - log2(table_.size())
  std::vector<u64> ring_;                  ///< clock ring of resident pages
  std::vector<u8> referenced_;             ///< per ring slot: clock bit
  std::size_t hand_ = 0;
};

}  // namespace bb::hmm
