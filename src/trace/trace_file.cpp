#include "trace/trace_file.h"

#include "common/snapshot.h"

#include <cstdint>
#include <cstdio>
#include <memory>

namespace bb::trace {
namespace {

constexpr u64 kMagic = 0x42424d4d54524331ULL;  // "BBMMTRC1"
constexpr u32 kVersion = 1;

struct FileHeader {
  u64 magic;
  u32 version;
  u32 reserved;
  u64 count;
};

struct PackedRecord {
  u64 inst_gap;
  u64 addr;
  u8 is_write;
  u8 pad[7];
};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

bool save_trace(const std::string& path,
                const std::vector<TraceRecord>& records) {
  File f(std::fopen(path.c_str(), "wb"));
  if (!f) return false;

  FileHeader h{kMagic, kVersion, 0, records.size()};
  if (std::fwrite(&h, sizeof(h), 1, f.get()) != 1) return false;
  for (const auto& r : records) {
    PackedRecord p{};
    p.inst_gap = r.inst_gap;
    p.addr = r.addr;
    p.is_write = r.type == AccessType::kWrite ? 1 : 0;
    if (std::fwrite(&p, sizeof(p), 1, f.get()) != 1) return false;
  }
  return true;
}

std::vector<TraceRecord> load_trace(const std::string& path, bool* ok) {
  if (ok) *ok = false;
  std::vector<TraceRecord> out;
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) return out;

  FileHeader h{};
  if (std::fread(&h, sizeof(h), 1, f.get()) != 1) return out;
  if (h.magic != kMagic || h.version != kVersion) return out;

  out.reserve(static_cast<std::size_t>(h.count));
  for (u64 i = 0; i < h.count; ++i) {
    PackedRecord p{};
    if (std::fread(&p, sizeof(p), 1, f.get()) != 1) {
      out.clear();
      return out;
    }
    out.push_back({p.inst_gap, p.addr,
                   p.is_write ? AccessType::kWrite : AccessType::kRead});
  }
  if (ok) *ok = true;
  return out;
}

void TraceReplayer::serialize(snap::Archive& ar) {
  u64 cur = cursor_;
  ar.u64(cur);
  if (cur >= records_.size()) {
    throw snap::SnapshotError("replay cursor out of range");
  }
  cursor_ = static_cast<std::size_t>(cur);
  ar.u64(laps_);
}

}  // namespace bb::trace
