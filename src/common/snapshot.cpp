#include "common/snapshot.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sys/stat.h>

#include "common/crc32.h"

namespace bb::snap {
namespace {

constexpr char kMagic[8] = {'B', 'B', 'S', 'N', 'A', 'P', '0', '1'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 4;

void put_le32(char* out, u32 v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

void put_le64(char* out, u64 v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

u32 get_le32(const char* in) {
  u32 v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<u32>(static_cast<u8>(in[i])) << (8 * i);
  return v;
}

u64 get_le64(const char* in) {
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(static_cast<u8>(in[i])) << (8 * i);
  return v;
}

/// True when all `n` bytes at `p` are zero.
bool all_zero(const char* p, std::size_t n) {
  return n == 0 || (p[0] == 0 && std::memcmp(p, p + 1, n - 1) == 0);
}

std::size_t pages_of(std::size_t bytes) {
  return (bytes + kTablePageBytes - 1) / kTablePageBytes;
}

/// Bytes of pages [first, last) of a `bytes`-long table (the last page
/// may be short; an empty range past the end has none).
std::size_t span_bytes(std::size_t first, std::size_t last,
                       std::size_t bytes) {
  return std::min(last * kTablePageBytes, bytes) -
         std::min(first * kTablePageBytes, bytes);
}

u64 env_count(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  return end == v ? 0 : static_cast<u64>(parsed);
}

// Deterministic crash injection for the kill-and-resume supervisor test
// (tools/check_crash_recovery): BB_TEST_KILL_AFTER_SNAPSHOTS=N raises
// SIGKILL right after the Nth successful commit; BB_TEST_KILL_MID_WRITE=N
// raises it during the Nth commit with only part of the temp file written,
// leaving a torn `.tmp` that a restore must ignore. Counters are
// process-wide so "the Nth snapshot" is seeded and reproducible; atomic
// because the workers of a parallel matrix commit concurrently.
std::atomic<u64> g_commits{0};

void kill_self() {
  std::raise(SIGKILL);
}

}  // namespace

void Writer::put_str(const std::string& s) {
  tag(Tag::kStr);
  raw_u64(s.size(), 8);
  buf_.append(s);
}

void Writer::put_table(u64 count, const void* data, std::size_t bytes) {
  tag(Tag::kTable);
  put_u64(count);
  const char* p = static_cast<const char*>(data);
  const std::size_t pages = pages_of(bytes);
  const auto zero_page = [&](std::size_t i) {
    return all_zero(p + i * kTablePageBytes, span_bytes(i, i + 1, bytes));
  };
  for (std::size_t i = 0; i < pages;) {
    std::size_t lit = i;
    while (lit < pages && zero_page(lit)) ++lit;
    std::size_t end = lit;
    while (end < pages && !zero_page(end)) ++end;
    put_u64(lit - i);
    put_u64(end - lit);
    buf_.append(p + lit * kTablePageBytes, span_bytes(lit, end, bytes));
    i = end;
  }
}

void Writer::commit(const std::string& path) const {
  const u64 attempt = ++g_commits;

  std::string file;
  file.reserve(kHeaderBytes + buf_.size());
  file.append(kMagic, sizeof(kMagic));
  char scratch[8];
  put_le32(scratch, kFormatVersion);
  file.append(scratch, 4);
  put_le64(scratch, buf_.size());
  file.append(scratch, 8);
  put_le32(scratch, crc32_of(reinterpret_cast<const u8*>(buf_.data()),
                             buf_.size()));
  file.append(scratch, 4);
  file.append(buf_);

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::ios_base::failure("snapshot: cannot open " + tmp);
    }
    if (env_count("BB_TEST_KILL_MID_WRITE") == attempt) {
      out.write(file.data(), static_cast<std::streamsize>(file.size() / 2));
      out.flush();
      kill_self();
    }
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    if (!out.flush()) {
      throw std::ios_base::failure("snapshot: write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::ios_base::failure("snapshot: cannot rename " + tmp + " -> " +
                                 path);
  }
  if (env_count("BB_TEST_KILL_AFTER_SNAPSHOTS") == attempt) {
    kill_self();
  }
}

Reader::Reader(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SnapshotError("cannot open " + path);
  }
  std::string file((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (file.size() < kHeaderBytes) {
    throw SnapshotError("truncated header in " + path);
  }
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    throw SnapshotError("bad magic in " + path);
  }
  const u32 version = get_le32(file.data() + 8);
  if (version != kFormatVersion) {
    throw SnapshotError("format version " + std::to_string(version) +
                        " (expected " + std::to_string(kFormatVersion) +
                        ") in " + path);
  }
  const u64 payload_bytes = get_le64(file.data() + 12);
  const u32 crc = get_le32(file.data() + 20);
  if (file.size() - kHeaderBytes != payload_bytes) {
    throw SnapshotError("payload size mismatch in " + path);
  }
  buf_ = file.substr(kHeaderBytes);
  if (crc32_of(reinterpret_cast<const u8*>(buf_.data()), buf_.size()) != crc) {
    throw SnapshotError("payload CRC mismatch in " + path);
  }
}

void Reader::tag(Tag expect) {
  const char* p = take(1);
  if (static_cast<u8>(*p) != static_cast<u8>(expect)) {
    throw SnapshotError("type tag mismatch at offset " +
                        std::to_string(pos_ - 1) + " (got " +
                        std::to_string(static_cast<u8>(*p)) + ", expected " +
                        std::to_string(static_cast<u8>(expect)) + ")");
  }
}

const char* Reader::take(std::size_t n) {
  if (buf_.size() - pos_ < n) {
    throw SnapshotError("payload truncated at offset " + std::to_string(pos_));
  }
  const char* p = buf_.data() + pos_;
  pos_ += n;
  return p;
}

std::string Reader::get_str() {
  tag(Tag::kStr);
  const u64 n = raw_u64(8);
  if (n > buf_.size() - pos_) {
    throw SnapshotError("string length overruns payload at offset " +
                        std::to_string(pos_));
  }
  const char* p = take(static_cast<std::size_t>(n));
  return std::string(p, static_cast<std::size_t>(n));
}

void Reader::get_table(u64 count, void* data, std::size_t bytes,
                       const char* what) {
  tag(Tag::kTable);
  if (get_u64() != count) throw SnapshotError(std::string(what) + " mismatch");
  char* p = static_cast<char*>(data);
  const std::size_t pages = pages_of(bytes);
  for (std::size_t i = 0; i < pages;) {
    const u64 zeros = get_u64();
    const u64 literal = get_u64();
    if ((zeros == 0 && literal == 0) || zeros > pages - i ||
        literal > pages - i - zeros) {
      throw SnapshotError("table run overruns " + std::string(what) +
                          " at offset " + std::to_string(pos_));
    }
    const std::size_t lit = i + static_cast<std::size_t>(zeros);
    const std::size_t end = lit + static_cast<std::size_t>(literal);
    const std::size_t n = span_bytes(lit, end, bytes);
    if (n > remaining()) {
      throw SnapshotError("table run overruns the payload at offset " +
                          std::to_string(pos_));
    }
    for (std::size_t z = i; z < lit; ++z) {
      char* page = p + z * kTablePageBytes;
      const std::size_t len = span_bytes(z, z + 1, bytes);
      if (!all_zero(page, len)) std::memset(page, 0, len);
    }
    std::memcpy(p + lit * kTablePageBytes, take(n), n);
    i = end;
  }
}

void Archive::u32(bb::u16& v) {
  bb::u32 wide = v;
  u32(wide);
  if (wide > UINT16_MAX) {
    throw SnapshotError("value " + std::to_string(wide) +
                        " does not fit a 16-bit field");
  }
  v = static_cast<bb::u16>(wide);
}

void Archive::i64(std::int32_t& v) {
  bb::i64 wide = v;
  i64(wide);
  if (wide < INT32_MIN || wide > INT32_MAX) {
    throw SnapshotError("value " + std::to_string(wide) +
                        " does not fit a 32-bit field");
  }
  v = static_cast<std::int32_t>(wide);
}

void Archive::expect(bb::u64 n, const char* what) {
  bb::u64 stored = n;
  u64(stored);
  if (stored != n) throw SnapshotError(std::string(what) + " mismatch");
}

std::size_t Archive::length(std::size_t n) {
  bb::u64 stored = n;
  u64(stored);
  if (loading() && stored > r_->remaining()) {
    throw SnapshotError("count " + std::to_string(stored) +
                        " overruns the payload");
  }
  return static_cast<std::size_t>(stored);
}

void Archive::presence(bool present, const char* what) {
  bb::u8 b = present ? 1 : 0;
  u8(b);
  if ((b != 0) != present) {
    throw SnapshotError(std::string(what) + " presence mismatch");
  }
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::ios_base::failure("cannot open " + tmp);
    }
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    if (!out.flush()) {
      throw std::ios_base::failure("write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::ios_base::failure("cannot rename " + tmp + " -> " + path);
  }
}

}  // namespace bb::snap
