#include "bumblebee/hot_table.h"

#include "common/snapshot.h"

#include <algorithm>
#include <stdexcept>

namespace bb::bumblebee {

namespace {

using Entry = HotTable::Entry;

/// Index of `page` in q[0, len), or len if absent.
u32 find(const Entry* q, u32 len, u32 page) {
  u32 i = 0;
  while (i < len && q[i].page != page) ++i;
  return i;
}

/// Removes q[i] and returns it, shifting the younger entries down.
Entry take(Entry* q, u32& len, u32 i) {
  const Entry e = q[i];
  std::copy(q + i + 1, q + len, q + i);
  --len;
  return e;
}

/// Appends `e` at the MRU end, dropping the LRU entry of a full queue.
void push_dropping_lru(Entry* q, u32& len, u32 capacity, const Entry& e) {
  if (capacity == 0) return;
  if (len == capacity) take(q, len, 0);
  q[len++] = e;
}

/// Appends `e` at the MRU end of the HBM queue. The queue tracks at most
/// one entry per HBM frame, so a full queue means corrupt remap state;
/// fail in every build rather than write into the next set's slice.
void push_hbm(Entry* q, u32& len, u32 capacity, const Entry& e) {
  if (len == capacity) {
    throw std::logic_error(
        "hot table: HBM queue full (it tracks at most n resident pages)");
  }
  q[len++] = e;
}

/// One queue's length and entries; a restored length is checked against
/// the slice before any entry is read.
void serialize_queue(snap::Archive& ar, HotTable::Entry* q, u32& len,
                     u32 capacity) {
  u64 n = len;
  ar.u64(n);
  if (n > capacity) throw snap::SnapshotError("hot-table queue overflow");
  len = static_cast<u32>(n);
  for (u32 i = 0; i < len; ++i) {
    ar.u32(q[i].page);
    ar.u64(q[i].counter);
  }
}

}  // namespace

HotTables::HotTables(u32 sets, u32 hbm_capacity, u32 dram_capacity,
                     u64 counter_max)
    : shape_{hbm_capacity, dram_capacity, counter_max},
      hbm_(std::size_t{sets} * hbm_capacity),
      dram_(std::size_t{sets} * dram_capacity),
      len_(sets) {}

u64 HotTable::touch_hbm(u32 page) {
  const u32 i = find(hbm_, len_->hbm, page);
  Entry e{page, 0};
  if (i < len_->hbm) e = take(hbm_, len_->hbm, i);
  e.counter = std::min(e.counter + 1, shape_->counter_max);
  push_hbm(hbm_, len_->hbm, shape_->hbm_capacity, e);
  return e.counter;
}

u64 HotTable::touch_dram(u32 page) {
  const u32 i = find(dram_, len_->dram, page);
  Entry e{page, 0};
  if (i < len_->dram) e = take(dram_, len_->dram, i);
  e.counter = std::min(e.counter + 1, shape_->counter_max);
  push_dropping_lru(dram_, len_->dram, shape_->dram_capacity, e);
  return e.counter;
}

u64 HotTable::hotness(u32 page) const {
  const u32 h = find(hbm_, len_->hbm, page);
  if (h < len_->hbm) return hbm_[h].counter;
  const u32 d = find(dram_, len_->dram, page);
  if (d < len_->dram) return dram_[d].counter;
  return 0;
}

u64 HotTable::min_hbm_counter() const {
  u64 t = 0;
  for (u32 i = 0; i < len_->hbm; ++i) {
    if (i == 0 || hbm_[i].counter < t) t = hbm_[i].counter;
  }
  return t;
}

std::optional<HotTable::Entry> HotTable::lru_hbm() const {
  if (len_->hbm == 0) return std::nullopt;
  return hbm_[0];
}

std::optional<HotTable::Entry> HotTable::coldest_hbm(u32 exclude) const {
  std::optional<u32> best;
  for (u32 i = 0; i < len_->hbm; ++i) {
    if (hbm_[i].page == exclude) continue;
    if (!best || hbm_[i].counter < hbm_[*best].counter) best = i;
  }
  if (!best) return std::nullopt;
  return hbm_[*best];
}

void HotTable::move_hbm_to_dram(u32 page) {
  const u32 i = find(hbm_, len_->hbm, page);
  if (i == len_->hbm) return;
  const Entry e = take(hbm_, len_->hbm, i);
  // Remove any stale entry, then push at MRU keeping the counter.
  const u32 d = find(dram_, len_->dram, page);
  if (d < len_->dram) take(dram_, len_->dram, d);
  push_dropping_lru(dram_, len_->dram, shape_->dram_capacity, e);
}

void HotTable::move_dram_to_hbm(u32 page) {
  Entry e{page, 0};
  const u32 d = find(dram_, len_->dram, page);
  if (d < len_->dram) e = take(dram_, len_->dram, d);
  const u32 h = find(hbm_, len_->hbm, page);
  if (h < len_->hbm) {
    // Already tracked (defensive); merge counters.
    hbm_[h].counter =
        std::min(hbm_[h].counter + e.counter, shape_->counter_max);
    return;
  }
  push_hbm(hbm_, len_->hbm, shape_->hbm_capacity, e);
}

void HotTable::requeue_hbm_mru(u32 page) {
  const u32 i = find(hbm_, len_->hbm, page);
  if (i == len_->hbm) return;
  const Entry e = take(hbm_, len_->hbm, i);
  hbm_[len_->hbm++] = e;
}

void HotTable::remove(u32 page) {
  const u32 h = find(hbm_, len_->hbm, page);
  if (h < len_->hbm) take(hbm_, len_->hbm, h);
  const u32 d = find(dram_, len_->dram, page);
  if (d < len_->dram) take(dram_, len_->dram, d);
}

void HotTable::serialize(snap::Archive& ar) {
  serialize_queue(ar, hbm_, len_->hbm, shape_->hbm_capacity);
  serialize_queue(ar, dram_, len_->dram, shape_->dram_capacity);
}

}  // namespace bb::bumblebee
