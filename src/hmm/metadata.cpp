#include "hmm/metadata.h"

#include <cassert>

#include "common/snapshot.h"

namespace bb::hmm {

MetadataModel::MetadataModel(const MetadataConfig& cfg, mem::DramDevice* hbm)
    : cfg_(cfg), hbm_(hbm) {
  assert(cfg_.placement == MetadataPlacement::kSram || hbm_ != nullptr);
  if (cfg_.placement == MetadataPlacement::kSramCachedHbm) {
    cache::CacheParams p;
    p.name = "metadata-cache";
    p.size_bytes = cfg_.cache_bytes;
    p.ways = cfg_.cache_ways;
    p.line_bytes = cfg_.cache_line_bytes;
    sram_cache_ = std::make_unique<cache::Cache>(p);
  }
}

Tick MetadataModel::lookup(u64 key, Tick now) {
  ++stats_.lookups;
  Tick latency = 0;
  switch (cfg_.placement) {
    case MetadataPlacement::kSram:
      ++stats_.sram_hits;
      latency = cfg_.sram_latency;
      break;
    case MetadataPlacement::kHbm: {
      const auto r = hbm_->access(key_to_hbm_addr(key), cfg_.entry_bytes,
                                  AccessType::kRead, now,
                                  mem::TrafficClass::kMetadata);
      ++stats_.hbm_accesses;
      latency = r.latency();
      break;
    }
    case MetadataPlacement::kSramCachedHbm: {
      const auto c =
          sram_cache_->access(key_to_hbm_addr(key), AccessType::kRead);
      latency = cfg_.sram_latency;
      if (c.hit) {
        ++stats_.sram_hits;
      } else {
        const auto r = hbm_->access(key_to_hbm_addr(key), cfg_.entry_bytes,
                                    AccessType::kRead, now,
                                    mem::TrafficClass::kMetadata);
        ++stats_.hbm_accesses;
        latency += r.latency();
      }
      break;
    }
  }
  stats_.total_latency += latency;
  return latency;
}

void MetadataModel::update(u64 key, Tick now) {
  switch (cfg_.placement) {
    case MetadataPlacement::kSram:
      break;
    case MetadataPlacement::kHbm:
      hbm_->access(key_to_hbm_addr(key), cfg_.entry_bytes, AccessType::kWrite,
                   now, mem::TrafficClass::kMetadata);
      ++stats_.hbm_accesses;
      break;
    case MetadataPlacement::kSramCachedHbm: {
      const auto c =
          sram_cache_->access(key_to_hbm_addr(key), AccessType::kWrite);
      if (!c.hit || (c.evicted && c.evicted_dirty)) {
        hbm_->access(key_to_hbm_addr(key), cfg_.entry_bytes,
                     AccessType::kWrite, now, mem::TrafficClass::kMetadata);
        ++stats_.hbm_accesses;
      }
      break;
    }
  }
}

void MetadataModel::serialize(snap::Archive& ar) {
  ar.u64(stats_.lookups);
  ar.u64(stats_.sram_hits);
  ar.u64(stats_.hbm_accesses);
  ar.u64(stats_.total_latency);
  ar.optional(sram_cache_.get(), "metadata cache");
}

}  // namespace bb::hmm
