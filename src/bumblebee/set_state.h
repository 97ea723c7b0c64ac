// Per-remapping-set metadata: the PRT slice and the BLE array (Figure 3).
//
// A set has m + n slots: slots [0, m) are off-chip DRAM frames, [m, m+n)
// are HBM frames. Logical page i of the set (its "original PLE") may be
// remapped to any frame j via new_ple[i]; occup[j] says whether frame j
// holds some page's authoritative data. Each HBM frame additionally has a
// BLE describing its role:
//   * kFree  — frame holds nothing,
//   * kCache — frame holds a cHBM copy of a DRAM-resident page `ple`
//              (valid = blocks present, dirty = blocks modified),
//   * kMem   — frame is the mHBM home of page `ple` (valid = blocks
//              *accessed*, the spatial-locality signal; dirty = modified).
//
// SetTable stores every set's metadata in flat per-field arrays sized once
// from the Geometry; SetState is a view of one set's slices of them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bumblebee/config.h"
#include "bumblebee/hot_table.h"
#include "common/bitvector.h"
#include "common/types.h"

namespace bb::bumblebee {

inline constexpr u32 kNoPage = ~u32{0};
inline constexpr std::int32_t kUnallocated = -1;

/// Block Location Entry for one HBM frame; its block bitmaps are rows of
/// SetTable's BitMatrix fields. Eight bytes, so a set's eight BLEs share
/// one cache line.
struct Ble {
  enum class Mode : u8 { kFree, kCache, kMem };

  Mode mode = Mode::kFree;
  /// Frame mapped out after uncorrectable errors (fault injection). Sticky:
  /// SetState::reset_ble deliberately leaves it set — a retired frame stays
  /// kFree but is never allocated again.
  bool retired = false;
  u32 ple = kNoPage;  ///< in-set index of the page whose data is here
};

/// The fixed-size fields of one remapping set.
struct SetScalars {
  // Zombie-page detection (movement trigger 3): the HBM queue head and its
  // counter, and for how many set accesses they have been unchanged.
  u32 zombie_page = kNoPage;
  u64 zombie_counter = 0;
  u32 zombie_age = 0;

  u64 accesses = 0;           ///< total accesses routed to this set
  bool chbm_disabled = false; ///< high-footprint batch flush (trigger 5)
  std::int32_t last_alloc_page = -1;  ///< hotness-based allocation hint

  // Graceful degradation (fault injection): frames retired from this set,
  // and whether the set has crossed the degradation threshold (no further
  // HBM allocation or caching; existing copies were flushed off-chip).
  u32 retired_frames = 0;
  bool degraded = false;
};

/// The four block bitmaps of every BLE: row set * n + k belongs to HBM
/// frame k of `set`.
struct BlockBitmaps {
  BitMatrix valid;  ///< cache: blocks present; mem: blocks accessed
  BitMatrix dirty;  ///< blocks modified relative to the off-chip copy

  // Over-fetch accounting only (not modeled as stored metadata): which
  // blocks were *fetched* into HBM and which of those were later demanded.
  BitMatrix fetched;
  BitMatrix used;
};

/// All metadata of one remapping set: a view of its slices of a SetTable.
/// Like std::span, it is cheap to copy and its constness is shallow.
struct SetState {
  std::span<std::int32_t> new_ple;  ///< slot-indexed; -1 = unallocated
  BitRow occup;                     ///< frame-indexed
  std::span<Ble> ble;               ///< HBM frames only (size n)
  HotTable hot;
  SetScalars& vars;
  BlockBitmaps& bits;
  std::size_t first_row;  ///< this set's first row of `bits`

  BitRow valid(u32 k) const { return bits.valid.row(first_row + k); }
  BitRow dirty(u32 k) const { return bits.dirty.row(first_row + k); }
  BitRow fetched(u32 k) const { return bits.fetched.row(first_row + k); }
  BitRow used(u32 k) const { return bits.used.row(first_row + k); }

  /// Frees BLE k: kFree, no page, empty bitmaps (the retired flag stays).
  void reset_ble(u32 k) {
    ble[k].mode = Ble::Mode::kFree;
    ble[k].ple = kNoPage;
    valid(k).clear_all();
    dirty(k).clear_all();
    fetched(k).clear_all();
    used(k).clear_all();
  }

  /// Frame currently caching page i in cHBM mode, or kNoPage.
  u32 cache_frame_of(u32 page) const {
    for (u32 k = 0; k < ble.size(); ++k) {
      if (ble[k].mode == Ble::Mode::kCache && ble[k].ple == page) return k;
    }
    return kNoPage;
  }

  /// First free, non-retired HBM frame (BLE index), or kNoPage.
  u32 free_hbm_frame() const {
    for (u32 k = 0; k < ble.size(); ++k) {
      if (ble[k].mode == Ble::Mode::kFree && !ble[k].retired) return k;
    }
    return kNoPage;
  }

  /// Free HBM frames that are still allocatable (retired frames excluded,
  /// so a fully-retired set reads as "Rh high" and stops attracting data).
  u32 free_hbm_frames() const {
    u32 c = 0;
    for (const Ble& b : ble) c += (b.mode == Ble::Mode::kFree && !b.retired);
    return c;
  }

  /// First unoccupied DRAM frame, or kNoPage. Prefers `preferred` if free.
  u32 free_dram_frame(u32 m, u32 preferred = kNoPage) const {
    if (preferred != kNoPage && preferred < m && !occup.test(preferred)) {
      return preferred;
    }
    for (u32 j = 0; j < m; ++j) {
      if (!occup.test(j)) return j;
    }
    return kNoPage;
  }

  /// Rh is "high" iff every HBM frame is in use (the paper defines high as
  /// Rh reaching 1 to maximize HBM utilization).
  bool rh_high() const { return free_hbm_frames() == 0; }
  double rh() const {
    return 1.0 - static_cast<double>(free_hbm_frames()) /
                     static_cast<double>(ble.size());
  }
};

/// Every set's metadata in flat per-field arrays: a handful of
/// allocations, however many sets the geometry has.
class SetTable {
 public:
  SetTable(const Geometry& g, u32 dram_queue_depth, u64 counter_max)
      : sets_(g.sets),
        slots_(g.slots()),
        n_(g.n),
        new_ple_(std::size_t{g.sets} * g.slots(), kUnallocated),
        occup_(g.sets, g.slots()),
        ble_(std::size_t{g.sets} * g.n),
        bits_{BitMatrix(std::size_t{g.sets} * g.n, g.blocks_per_page),
              BitMatrix(std::size_t{g.sets} * g.n, g.blocks_per_page),
              BitMatrix(std::size_t{g.sets} * g.n, g.blocks_per_page),
              BitMatrix(std::size_t{g.sets} * g.n, g.blocks_per_page)},
        hot_(g.sets, g.n, dram_queue_depth, counter_max),
        vars_(g.sets) {}

  u32 size() const { return sets_; }

  SetState operator[](u32 set) {
    return {{new_ple_.data() + std::size_t{set} * slots_, slots_},
            occup_.row(set),
            {ble_.data() + std::size_t{set} * n_, n_},
            hot_[set],
            vars_[set],
            bits_,
            std::size_t{set} * n_};
  }
  /// The view a const member function reads through (its constness is
  /// shallow, as for any view).
  const SetState operator[](u32 set) const {
    return const_cast<SetTable&>(*this)[set];
  }

 private:
  u32 sets_;
  u32 slots_;
  u32 n_;
  std::vector<std::int32_t> new_ple_;  ///< sets x slots
  BitMatrix occup_;                    ///< one row of slots bits per set
  std::vector<Ble> ble_;               ///< sets x n
  BlockBitmaps bits_;                  ///< one row per BLE
  HotTables hot_;
  std::vector<SetScalars> vars_;
};

/// Spatial-locality summary of a set (Section III-E, Equation 1).
struct SpatialSummary {
  u32 nc = 0;  ///< cHBM frames
  u32 na = 0;  ///< mHBM frames with most blocks accessed
  u32 nn = 0;  ///< mHBM frames with most blocks NOT accessed
  int sl() const { return static_cast<int>(na) - static_cast<int>(nn) -
                          static_cast<int>(nc); }
};

inline SpatialSummary spatial_summary(const SetState& st,
                                      u32 blocks_per_page) {
  SpatialSummary s;
  for (u32 k = 0; k < st.ble.size(); ++k) {
    switch (st.ble[k].mode) {
      case Ble::Mode::kCache:
        ++s.nc;
        break;
      case Ble::Mode::kMem:
        if (2 * st.valid(k).popcount() >= blocks_per_page) {
          ++s.na;
        } else {
          ++s.nn;
        }
        break;
      case Ble::Mode::kFree:
        break;
    }
  }
  return s;
}

}  // namespace bb::bumblebee
