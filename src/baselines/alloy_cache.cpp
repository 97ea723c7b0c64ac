#include "baselines/alloy_cache.h"

#include "common/snapshot.h"

namespace bb::baselines {

AlloyCacheController::AlloyCacheController(mem::DramDevice& hbm,
                                           mem::DramDevice& dram,
                                           hmm::PagingConfig paging,
                                           const AlloyConfig& cfg)
    : HybridMemoryController("AC", hbm, dram,
                             [&] {
                               paging.visible_bytes = dram.capacity();
                               return paging;
                             }()),
      cfg_(cfg),
      line_bytes_(cfg.line_bytes),
      lines_(hbm.capacity() / cfg.tad_bytes) {
  const auto slots = static_cast<std::size_t>(lines_.value());
  tag_ = ZeroArray<u8>(slots);
  valid_ = BitMatrix(1, slots);
  dirty_ = BitMatrix(1, slots);
}

bool AlloyCacheController::check_invariants() const {
  for (std::size_t s = 0; s < lines_.value(); ++s) {
    if (dirty_.test(0, s) && !valid_.test(0, s)) return false;
  }
  return true;
}

void AlloyCacheController::serialize(snap::Archive& ar) {
  serialize_base(ar);
  ar.table(tag_, "AC slot count");
  valid_.serialize(ar);
  dirty_.serialize(ar);
  if (ar.loading() && !check_invariants()) {
    throw snap::SnapshotError("AC holds a dirty slot that is not valid");
  }
}

hmm::HmmResult AlloyCacheController::service(Addr addr, AccessType type,
                                             Tick now) {
  hmm::HmmResult res;
  const Addr phys = dram().fold(addr);
  const u64 line = line_bytes_.div(phys);
  const u64 slot = lines_.mod(line);
  const u8 tag = static_cast<u8>(lines_.div(line));
  const Addr tad_addr = slot * cfg_.tad_bytes;

  // One TAD stream returns tag + data together.
  const auto probe = hbm().access(tad_addr, cfg_.tad_bytes, AccessType::kRead,
                                  now, mem::TrafficClass::kDemand);
  res.metadata_latency = probe.latency();  // the tag half of the TAD

  const std::size_t s = static_cast<std::size_t>(slot);
  if (valid_.test(0, s) && tag_[s] == tag) {
    // Hit: the probe already delivered the data; writes update the TAD.
    if (type == AccessType::kWrite) {
      hbm().access(tad_addr, cfg_.tad_bytes, AccessType::kWrite,
                   probe.complete, mem::TrafficClass::kDemand);
      dirty_.set(0, s);
    }
    res.complete = probe.complete;
    res.served_by_hbm = true;
    res.phys_addr = tad_addr;
    return res;
  }

  // Miss: writeback the victim if dirty, then serve from DRAM and fill.
  if (valid_.test(0, s) && dirty_.test(0, s)) {
    const Addr victim =
        (static_cast<u64>(tag_[s]) * lines_.value() + slot) * cfg_.line_bytes;
    move_data(hbm(), tad_addr, dram(), victim, cfg_.line_bytes,
              probe.complete, mem::TrafficClass::kWriteback);
    ++mutable_stats().evictions;
  }
  const auto r = dram().access(phys, cfg_.line_bytes, type, probe.complete,
                               mem::TrafficClass::kDemand);
  // Fill the TAD (asynchronous).
  hbm().access(tad_addr, cfg_.tad_bytes, AccessType::kWrite, r.complete,
               mem::TrafficClass::kFill);
  tag_[s] = tag;
  valid_.set(0, s);
  dirty_.set(0, s, type == AccessType::kWrite);
  ++mutable_stats().blocks_fetched;
  ++mutable_stats().fetched_blocks_used;  // demand fill: always used

  res.complete = r.complete;
  res.served_by_hbm = false;
  res.phys_addr = phys;
  return res;
}

}  // namespace bb::baselines
