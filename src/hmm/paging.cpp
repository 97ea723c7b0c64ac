#include "hmm/paging.h"

#include <cassert>

#include "common/snapshot.h"
#include "common/trace_event.h"

namespace bb::hmm {

namespace {

constexpr std::size_t kMinTableSize = 1024;

}  // namespace

PagingModel::PagingModel(const PagingConfig& cfg)
    : cfg_(cfg),
      os_page_(cfg.os_page_bytes),
      capacity_pages_(cfg.enabled ? cfg.visible_bytes / cfg.os_page_bytes
                                  : 0) {
  assert(capacity_pages_ < kEmptySlot && "u32 ring slots");
  rebuild();
}

std::size_t PagingModel::find(u64 page) const {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = home(page);
  while (table_[i] != kEmptySlot && ring_[table_[i]] != page) {
    i = (i + 1) & mask;
  }
  return i;
}

void PagingModel::erase(u64 page) {
  const std::size_t mask = table_.size() - 1;
  std::size_t hole = find(page);
  assert(table_[hole] != kEmptySlot);
  // Pull later members of the probe run back into the hole unless their
  // home index lies cyclically in (hole, j], where they already are
  // reachable.
  for (std::size_t j = (hole + 1) & mask; table_[j] != kEmptySlot;
       j = (j + 1) & mask) {
    const std::size_t h = home(ring_[table_[j]]);
    const bool reachable =
        (hole <= j) ? (hole < h && h <= j) : (hole < h || h <= j);
    if (!reachable) {
      table_[hole] = table_[j];
      hole = j;
    }
  }
  table_[hole] = kEmptySlot;
}

void PagingModel::rebuild() {
  std::size_t size = kMinTableSize;
  while (size < 2 * ring_.size()) size *= 2;
  table_.assign(size, kEmptySlot);
  table_shift_ = 64 - log2_floor(size);
  for (std::size_t slot = 0; slot < ring_.size(); ++slot) {
    table_[find(ring_[slot])] = static_cast<u32>(slot);
  }
}

Tick PagingModel::touch(Addr addr, Tick now) {
  if (!cfg_.enabled) return 0;
  const u64 page = os_page_.div(addr);

  const std::size_t at = find(page);
  if (table_[at] != kEmptySlot) {
    referenced_[table_[at]] = 1;
    return 0;
  }

  if (ring_.size() < capacity_pages_) {
    // Cold (first-touch) fault: page fits, OS just zero-fills it.
    table_[at] = static_cast<u32>(ring_.size());
    ring_.push_back(page);
    referenced_.push_back(1);
    if (2 * ring_.size() > table_.size()) rebuild();
    ++stats_.first_touches;
    return 0;
  }

  // Capacity fault: run the clock hand until an unreferenced victim appears.
  for (;;) {
    if (hand_ >= ring_.size()) hand_ = 0;
    if (referenced_[hand_] != 0) {
      referenced_[hand_] = 0;
      ++hand_;
      continue;
    }
    break;
  }
  const u64 victim = ring_[hand_];
  erase(victim);
  ring_[hand_] = page;
  referenced_[hand_] = 1;
  table_[find(page)] = static_cast<u32>(hand_);
  ++hand_;
  ++stats_.faults;
  if (trace_) {
    trace_->emit(TraceEvent(now, "os_page_swap_out", "paging")
                     .arg("faulting_page", page)
                     .arg("victim_page", victim)
                     .arg("penalty_ns", ticks_to_ns(cfg_.fault_penalty)));
  }
  return cfg_.fault_penalty;
}

void PagingModel::serialize(snap::Archive& ar) {
  ar.u64(stats_.faults);
  ar.u64(stats_.first_touches);
  const std::size_t resident = ar.length(ring_.size());
  if (resident > capacity_pages_) {
    throw snap::SnapshotError("paging ring longer than its capacity");
  }
  if (ar.loading()) {
    ring_.resize(resident);
    referenced_.resize(resident);
  }
  for (u64& page : ring_) ar.u64(page);
  for (u8& ref : referenced_) {
    bool on = ref != 0;
    ar.flag(on);
    ref = on ? 1 : 0;
  }
  ar.u64(hand_);
  if (!ar.loading()) return;
  rebuild();
  // A page listed twice leaves its first slot unreachable in the table.
  for (std::size_t slot = 0; slot < ring_.size(); ++slot) {
    if (table_[find(ring_[slot])] != slot) {
      throw snap::SnapshotError("paging ring lists a page twice");
    }
  }
}

}  // namespace bb::hmm
