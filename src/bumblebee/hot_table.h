// Per-remapping-set hot table (Figure 4 of the paper).
//
// Two LRU queues of (page, counter) entries:
//   * the HBM queue tracks every page currently resident in HBM (cHBM or
//     mHBM) — at most n entries;
//   * the off-chip DRAM queue tracks the most recently accessed off-chip
//     pages — a fixed small depth (8 in the evaluated configuration).
//
// Each entry's counter records the page's access count while in the queue
// (the paper's "hotness value"). Entries popped from the HBM queue are
// pushed back into the DRAM queue (the page is being evicted from HBM);
// entries popped from the DRAM queue are dropped.
//
// Queues are tiny (8 + 8 entries), so linear arrays beat pointer-chasing
// structures; the MRU end is the back of the array. HotTables owns the
// queues of every set as fixed-capacity slices of two flat entry arrays;
// a HotTable is a view of one set's two slices and their lengths.
#pragma once

#include <optional>
#include <span>

#include "common/types.h"
#include "common/zero_array.h"

namespace bb::snap {
class Archive;
}  // namespace bb::snap

namespace bb::bumblebee {

class HotTable {
 public:
  struct Entry {
    u32 page = 0;   ///< in-set logical page index
    u64 counter = 0;
  };

  /// Current lengths of one set's two queues.
  struct Lengths {
    u32 hbm = 0;
    u32 dram = 0;
  };

  /// Capacities and saturation shared by every set's table.
  struct Shape {
    u32 hbm_capacity = 0;
    u32 dram_capacity = 0;
    u64 counter_max = 0;
  };

  /// A view of one set's queues: `hbm` and `dram` are slices of
  /// shape.hbm_capacity and shape.dram_capacity entries.
  HotTable(Entry* hbm, Entry* dram, Lengths& len, const Shape& shape)
      : hbm_(hbm), dram_(dram), len_(&len), shape_(&shape) {}

  /// Records an access to a page resident in HBM: moves it to the MRU end
  /// (inserting if absent) and bumps its counter. Returns the new counter.
  u64 touch_hbm(u32 page);

  /// Records an access to an off-chip page; LRU-inserts into the DRAM queue
  /// (dropping the LRU entry on overflow). Returns the new counter.
  u64 touch_dram(u32 page);

  /// The page's hotness: its counter in either queue, 0 if untracked.
  u64 hotness(u32 page) const;

  /// T — the smallest counter among HBM-queue entries (0 if the queue is
  /// empty).
  u64 min_hbm_counter() const;

  /// LRU entry of the HBM queue (zombie detection watches this head).
  std::optional<Entry> lru_hbm() const;

  /// Eviction candidate: the entry with the smallest counter — the page
  /// that defines T — tie-broken towards the LRU end. Evicting it keeps
  /// the admission gate (hotness > T) and the replacement victim
  /// consistent, so marginal entrants churn among themselves instead of
  /// displacing established hot pages. `exclude` skips one page (the one
  /// just given its buffering second chance).
  std::optional<Entry> coldest_hbm(u32 exclude = ~u32{0}) const;

  /// The page is leaving HBM: removes it from the HBM queue and pushes its
  /// entry into the DRAM queue (keeping the counter), per the paper.
  void move_hbm_to_dram(u32 page);

  /// The page entered HBM: moves (or inserts) its entry into the HBM queue,
  /// keeping any counter it accumulated in the DRAM queue.
  void move_dram_to_hbm(u32 page);

  /// Re-queues an HBM-resident page at the MRU end without bumping its
  /// counter (the "one more chance" buffering of eviction trigger 2).
  void requeue_hbm_mru(u32 page);

  /// Forgets a page entirely (OS swap-out fallback).
  void remove(u32 page);

  std::size_t hbm_size() const { return len_->hbm; }
  std::size_t dram_size() const { return len_->dram; }
  std::span<const Entry> hbm_entries() const { return {hbm_, len_->hbm}; }
  std::span<const Entry> dram_entries() const { return {dram_, len_->dram}; }

  /// Snapshot/restore of both queues (capacities are construction-time;
  /// a restore fails closed on a queue longer than its capacity).
  void serialize(snap::Archive& ar);

 private:
  Entry* hbm_;   ///< index 0 = LRU, back = MRU
  Entry* dram_;
  Lengths* len_;
  const Shape* shape_;
};

/// The hot tables of every remapping set in three flat arrays; all-zero
/// bytes are empty queues.
class HotTables {
 public:
  HotTables(u32 sets, u32 hbm_capacity, u32 dram_capacity, u64 counter_max);

  HotTable operator[](u32 set) {
    return {hbm_.data() + std::size_t{set} * shape_.hbm_capacity,
            dram_.data() + std::size_t{set} * shape_.dram_capacity,
            len_[set], shape_};
  }

 private:
  HotTable::Shape shape_;
  ZeroArray<HotTable::Entry> hbm_;   ///< sets x hbm_capacity
  ZeroArray<HotTable::Entry> dram_;  ///< sets x dram_capacity
  ZeroArray<HotTable::Lengths> len_;
};

}  // namespace bb::bumblebee
