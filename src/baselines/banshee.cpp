#include "baselines/banshee.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/snapshot.h"

namespace bb::baselines {

BansheeController::BansheeController(mem::DramDevice& hbm,
                                     mem::DramDevice& dram,
                                     hmm::PagingConfig paging,
                                     const BansheeConfig& cfg)
    : HybridMemoryController("Banshee", hbm, dram,
                             [&] {
                               paging.visible_bytes = dram.capacity();
                               return paging;
                             }()),
      cfg_(cfg),
      sets_(static_cast<u32>(hbm.capacity() / cfg.page_bytes / cfg.ways)),
      page_div_(cfg.page_bytes),
      sets_div_(sets_),
      sample_div_(cfg.sample_rate) {
  const std::size_t ways = static_cast<std::size_t>(sets_) * cfg_.ways;
  ways_ = ZeroArray<Way>(ways);
  used_ = BitMatrix(ways, cfg_.page_bytes / 64);
}

bool BansheeController::set_is_consistent(u32 set) const {
  for (u32 w = 0; w < cfg_.ways; ++w) {
    const std::size_t wi = way_index(set, w);
    const Way& way = ways_[wi];
    if (!way.valid) {
      if (used_.row(wi).any()) return false;
      continue;
    }
    for (u32 v = w + 1; v < cfg_.ways; ++v) {
      const Way& other = ways_[way_index(set, v)];
      if (other.valid && other.page == way.page) return false;
    }
  }
  return true;
}

bool BansheeController::check_invariants() const {
  for (u32 set = 0; set < sets_; ++set) {
    if (!set_is_consistent(set)) return false;
  }
  return true;
}

void BansheeController::serialize(snap::Archive& ar) {
  serialize_base(ar);
  ar.table(ways_, "Banshee way table");
  used_.serialize(ar);
  // The candidate counters in ascending page order, so the bytes do not
  // depend on the hash map's bucket order.
  std::vector<u64> pages;
  if (!ar.loading()) {
    pages.reserve(candidate_freq_.size());
    // determinism-ok: collects the keys only; they are sorted before use.
    for (const auto& entry : candidate_freq_) pages.push_back(entry.first);
    std::sort(pages.begin(), pages.end());
  }
  ar.count(pages);
  if (ar.loading()) candidate_freq_.clear();
  for (u64& page : pages) {
    u16 freq = ar.loading() ? 0 : candidate_freq_.at(page);
    ar.u64(page);
    ar.u32(freq);
    if (ar.loading()) candidate_freq_[page] = freq;
  }
  ar.u64(miss_tick_);
  if (ar.loading() && !check_invariants()) {
    throw snap::SnapshotError("Banshee set holds a page twice or an invalid "
                              "way has used bits");
  }
}

u64 BansheeController::metadata_sram_bytes() const {
  // Per cached page: tag (4 B) + frequency counter (2 B) + flags, plus the
  // sampled candidate table.
  const u64 pages = static_cast<u64>(sets_) * cfg_.ways;
  return pages * 7 + 64 * KiB;
}

hmm::HmmResult BansheeController::service(Addr addr, AccessType type,
                                          Tick now) {
  hmm::HmmResult res;
  const Addr phys = dram().fold(addr);
  const u64 page = page_div_.div(phys);
  const u32 set = static_cast<u32>(sets_div_.mod(page));
  const u64 in_page = page_div_.mod(phys);
  const u32 block = static_cast<u32>(in_page / 64);

  // Mapping known from TLB/PTE: SRAM-cost lookup only.
  res.metadata_latency = cfg_.sram_latency;
  Tick t = now + cfg_.sram_latency;

  for (u32 w = 0; w < cfg_.ways; ++w) {
    Way& way = way_at(set, w);
    if (way.valid && way.page == page) {
      const Addr pa = frame_addr(set, w) + in_page;
      const auto r = hbm().access(pa, 64, type, t, mem::TrafficClass::kDemand);
      res.complete = r.complete;
      res.served_by_hbm = true;
      res.phys_addr = pa;
      if (type == AccessType::kWrite) way.dirty = true;
      if (way.freq < 0xffff) ++way.freq;
      const std::size_t wi = way_index(set, w);
      if (!used_.test(wi, block)) {
        used_.set(wi, block);
        ++mutable_stats().fetched_blocks_used;
      }
      return res;
    }
  }

  // Miss: serve off-chip.
  const auto r = dram().access(phys, 64, type, t, mem::TrafficClass::kDemand);
  res.complete = r.complete;
  res.served_by_hbm = false;
  res.phys_addr = phys;

  // Frequency-based replacement with sampling.
  if (sample_div_.mod(++miss_tick_) != 0) return res;
  u16& cand = candidate_freq_[page];
  if (cand < 0xffff) ++cand;

  u32 victim = cfg_.ways;
  u16 victim_freq = 0xffff;
  for (u32 w = 0; w < cfg_.ways; ++w) {
    Way& way = way_at(set, w);
    if (!way.valid) {
      victim = w;
      victim_freq = 0;
      break;
    }
    if (way.freq < victim_freq) {
      victim_freq = way.freq;
      victim = w;
    }
  }
  const bool replace =
      victim < cfg_.ways &&
      (!way_at(set, victim).valid ||
       cand >= victim_freq + cfg_.replace_threshold);
  if (!replace) return res;

  Way& way = way_at(set, victim);
  if (way.valid && way.dirty) {
    // Lazy page-granularity writeback.
    move_data(hbm(), frame_addr(set, victim), dram(),
              dram().fold(way.page * cfg_.page_bytes),
              cfg_.page_bytes, r.complete, mem::TrafficClass::kWriteback);
  }
  if (way.valid) ++mutable_stats().evictions;

  move_data(dram(), page * cfg_.page_bytes, hbm(), frame_addr(set, victim),
            cfg_.page_bytes, r.complete, mem::TrafficClass::kFill);
  const u32 blocks = static_cast<u32>(cfg_.page_bytes / 64);
  mutable_stats().blocks_fetched += blocks;
  way.valid = true;
  way.page = page;
  way.freq = cand;
  way.dirty = (type == AccessType::kWrite);
  const std::size_t wi = way_index(set, victim);
  used_.clear_row(wi);
  used_.set(wi, block);
  BB_CHECK(set_is_consistent(set),
           "Banshee set holds a page twice or an invalid way has used bits");
  ++mutable_stats().fetched_blocks_used;
  candidate_freq_.erase(page);
  return res;
}

}  // namespace bb::baselines
