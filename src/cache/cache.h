// Set-associative, write-back, write-allocate cache model with true-LRU
// replacement (per-line recency stamps).
//
// Used for the SRAM metadata caches in front of HBM-resident metadata and,
// at page/line granularities up to 64 KB, for the Figure 1 cHBM
// access-count study. Tracks per-line access counts and exposes an
// eviction hook so observers can build "accesses before eviction"
// distributions.
#pragma once

#include <array>
#include <cassert>
#include <functional>
#include <string>

#include "common/types.h"
#include "common/zero_array.h"

namespace bb::snap {
class Archive;
}  // namespace bb::snap

namespace bb::cache {

struct CacheParams {
  std::string name = "cache";
  u64 size_bytes = 64 * KiB;
  u32 ways = 4;
  u64 line_bytes = 64;

  u32 num_sets() const {
    assert(line_bytes > 0 && ways > 0);
    return static_cast<u32>(size_bytes / line_bytes / ways);
  }
};

struct CacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 evictions = 0;
  u64 writebacks = 0;  ///< dirty evictions

  u64 accesses() const { return hits + misses; }
  double hit_rate() const {
    return accesses() ? static_cast<double>(hits) /
                            static_cast<double>(accesses())
                      : 0.0;
  }
};

/// Outcome of a single cache access.
struct CacheAccessResult {
  bool hit = false;
  bool evicted = false;          ///< a valid line was displaced
  Addr evicted_addr = kAddrInvalid;  ///< line base address of the victim
  bool evicted_dirty = false;
};

/// Information passed to the eviction observer.
struct EvictionInfo {
  Addr line_addr;
  u64 access_count;  ///< hits + the installing access
  bool dirty;
};

class Cache {
 public:
  explicit Cache(CacheParams params);

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  /// Accesses `addr`; on miss, allocates (possibly evicting).
  CacheAccessResult access(Addr addr, AccessType type);

  /// Probes without modifying any state.
  bool contains(Addr addr) const;

  /// Invalidates the line containing `addr` if present; returns whether the
  /// invalidated line was dirty.
  bool invalidate(Addr addr);

  /// Observer invoked whenever a valid line is evicted (not on invalidate).
  void set_eviction_hook(std::function<void(const EvictionInfo&)> hook) {
    eviction_hook_ = std::move(hook);
  }

  /// Flushes every valid line through the eviction hook and clears the cache.
  void flush();

  const CacheParams& params() const { return params_; }
  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

  /// Snapshot/restore of the line array, statistics, and LRU recency
  /// state. Geometry is construction-time shape; a restore fails closed on
  /// a line-count mismatch.
  void serialize(snap::Archive& ar);

  /// One cache line: an unpadded snapshot table element.
  struct Line {
    Addr tag = 0;
    u8 valid = 0;
    u8 dirty = 0;
    std::array<u8, 6> pad{};
    u64 accesses = 0;
    bool well_formed() const {
      return valid <= 1 && dirty <= 1 && pad == decltype(pad){};
    }
  };

 private:

  /// Marks (set, way) most recently used.
  void touch(u32 set, u32 way) {
    stamp_[static_cast<std::size_t>(set) * params_.ways + way] = ++clock_;
  }
  /// The least recently used way of a full set.
  u32 lru_way(u32 set) const;

  u32 set_of(Addr addr) const {
    return static_cast<u32>((addr / params_.line_bytes) % sets_);
  }
  Addr tag_of(Addr addr) const {
    return addr / params_.line_bytes / sets_;
  }
  Addr line_addr(Addr tag, u32 set) const {
    return (tag * sets_ + set) * params_.line_bytes;
  }
  Line& line_at(u32 set, u32 way) {
    return lines_[static_cast<std::size_t>(set) * params_.ways + way];
  }
  const Line& line_at(u32 set, u32 way) const {
    return lines_[static_cast<std::size_t>(set) * params_.ways + way];
  }

  CacheParams params_;
  u32 sets_;
  ZeroArray<Line> lines_;  ///< sets * ways; zero bytes: invalid
  // bb-analyze-ok(stats-reset): LRU recency clock, not a statistic;
  // resetting it at warmup would reorder lines touched before the boundary.
  u64 clock_ = 0;
  ZeroArray<u64> stamp_;  ///< per-line last-use stamp (sets * ways)
  CacheStats stats_;
  std::function<void(const EvictionInfo&)> eviction_hook_;
};

}  // namespace bb::cache
