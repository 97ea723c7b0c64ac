// Metadata placement and access-latency model.
//
// The paper's Section II-B measures metadata access latency (MAL) at 2-26%
// of total request latency for designs whose metadata overflows SRAM, and
// the Meta-H ablation places all Bumblebee metadata in HBM. This model
// covers the three placements used across the reproduced designs:
//
//   kSram         — fits on chip; fixed pipelined lookup latency.
//   kHbm          — resides in HBM; every lookup performs a real (small)
//                   HBM access, consuming bandwidth and adding latency.
//   kSramCachedHbm — backing store in HBM with a real set-associative SRAM
//                   metadata cache in front (Hybrid2/Chameleon style); hits
//                   cost the SRAM latency, misses add an HBM access.
#pragma once

#include <memory>

#include "cache/cache.h"
#include "common/types.h"
#include "mem/dram_device.h"

namespace bb::snap {
class Archive;
}  // namespace bb::snap

namespace bb::hmm {

enum class MetadataPlacement : u8 { kSram, kHbm, kSramCachedHbm };

struct MetadataConfig {
  MetadataPlacement placement = MetadataPlacement::kSram;
  Tick sram_latency = ns_to_ticks(2.0);
  u64 entry_bytes = 8;          ///< size of one metadata record
  u64 cache_bytes = 512 * KiB;  ///< SRAM metadata cache (kSramCachedHbm)
  u32 cache_ways = 8;
  u64 cache_line_bytes = 64;
  /// HBM region (device-local) reserved for metadata, so metadata accesses
  /// contend with data accesses on real banks.
  Addr hbm_base = 0;
};

struct MetadataStats {
  u64 lookups = 0;
  u64 sram_hits = 0;
  u64 hbm_accesses = 0;
  Tick total_latency = 0;  ///< metadata latency on the critical path

  Tick mean_latency() const { return lookups ? total_latency / lookups : 0; }
};

class MetadataModel {
 public:
  /// `hbm` may be null only for kSram placement.
  MetadataModel(const MetadataConfig& cfg, mem::DramDevice* hbm);

  /// Performs a metadata lookup for the record identified by `key` at time
  /// `now`; returns the latency contribution on the critical path.
  Tick lookup(u64 key, Tick now);

  /// A metadata update off the critical path (still consumes HBM bandwidth
  /// for non-SRAM placements).
  void update(u64 key, Tick now);

  const MetadataStats& stats() const { return stats_; }
  const MetadataConfig& config() const { return cfg_; }

  /// Clears the lookup/latency counters (and the SRAM metadata cache's hit
  /// stats) at a warmup boundary; the cache contents survive, matching the
  /// warmed-up devices.
  void reset_stats() {
    stats_ = MetadataStats{};
    if (sram_cache_) sram_cache_->reset_stats();
  }

  /// Snapshot/restore of the lookup counters and (when present) the SRAM
  /// metadata cache contents.
  void serialize(snap::Archive& ar);

 private:
  Addr key_to_hbm_addr(u64 key) const {
    return cfg_.hbm_base + key * cfg_.entry_bytes;
  }

  MetadataConfig cfg_;
  mem::DramDevice* hbm_;
  std::unique_ptr<cache::Cache> sram_cache_;  // kSramCachedHbm only
  MetadataStats stats_;
};

}  // namespace bb::hmm
