#include "cache/cache.h"

#include "common/snapshot.h"

namespace bb::cache {

Cache::Cache(CacheParams params)
    : params_(std::move(params)), sets_(params_.num_sets()) {
  assert(sets_ > 0 && "cache must have at least one set");
  assert(is_pow2(params_.line_bytes));
  lines_ = ZeroArray<Line>(static_cast<std::size_t>(sets_) * params_.ways);
  stamp_ = ZeroArray<u64>(lines_.size());
}

u32 Cache::lru_way(u32 set) const {
  const std::size_t base = static_cast<std::size_t>(set) * params_.ways;
  u32 best = 0;
  for (u32 w = 1; w < params_.ways; ++w) {
    if (stamp_[base + w] < stamp_[base + best]) best = w;
  }
  return best;
}

CacheAccessResult Cache::access(Addr addr, AccessType type) {
  const u32 set = set_of(addr);
  const Addr tag = tag_of(addr);
  CacheAccessResult res;

  for (u32 w = 0; w < params_.ways; ++w) {
    Line& line = line_at(set, w);
    if (line.valid && line.tag == tag) {
      ++stats_.hits;
      ++line.accesses;
      if (type == AccessType::kWrite) line.dirty = true;
      touch(set, w);
      res.hit = true;
      return res;
    }
  }

  ++stats_.misses;

  // Prefer an invalid way.
  u32 way = params_.ways;
  for (u32 w = 0; w < params_.ways; ++w) {
    if (!line_at(set, w).valid) {
      way = w;
      break;
    }
  }
  if (way == params_.ways) {
    way = lru_way(set);
    Line& victim = line_at(set, way);
    ++stats_.evictions;
    if (victim.dirty) ++stats_.writebacks;
    res.evicted = true;
    res.evicted_addr = line_addr(victim.tag, set);
    res.evicted_dirty = victim.dirty != 0;
    if (eviction_hook_) {
      eviction_hook_({res.evicted_addr, victim.accesses, res.evicted_dirty});
    }
  }

  Line& line = line_at(set, way);
  line.valid = true;
  line.tag = tag;
  line.dirty = (type == AccessType::kWrite);
  line.accesses = 1;
  touch(set, way);
  return res;
}

bool Cache::contains(Addr addr) const {
  const u32 set = set_of(addr);
  const Addr tag = tag_of(addr);
  for (u32 w = 0; w < params_.ways; ++w) {
    const Line& line = line_at(set, w);
    if (line.valid && line.tag == tag) return true;
  }
  return false;
}

bool Cache::invalidate(Addr addr) {
  const u32 set = set_of(addr);
  const Addr tag = tag_of(addr);
  for (u32 w = 0; w < params_.ways; ++w) {
    Line& line = line_at(set, w);
    if (line.valid && line.tag == tag) {
      const bool was_dirty = line.dirty;
      line = Line{};
      return was_dirty;
    }
  }
  return false;
}

void Cache::flush() {
  for (u32 s = 0; s < sets_; ++s) {
    for (u32 w = 0; w < params_.ways; ++w) {
      Line& line = line_at(s, w);
      if (line.valid) {
        if (eviction_hook_) {
          eviction_hook_(
              {line_addr(line.tag, s), line.accesses, line.dirty != 0});
        }
        if (line.dirty) ++stats_.writebacks;
        ++stats_.evictions;
        line = Line{};
      }
    }
  }
}

void Cache::serialize(snap::Archive& ar) {
  ar.table(lines_, "cache line table");
  ar.u64(stats_.hits);
  ar.u64(stats_.misses);
  ar.u64(stats_.evictions);
  ar.u64(stats_.writebacks);
  ar.u64(clock_);
  ar.table(stamp_, "LRU stamp table");
}

}  // namespace bb::cache
