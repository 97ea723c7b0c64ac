// bb::snap — versioned, CRC32-protected binary serialization of in-flight
// simulator state (the crash-tolerance layer; DESIGN.md §15).
//
// A snapshot file is:
//
//   magic "BBSNAP01" (8 B) | u32 format version | u64 payload bytes |
//   u32 payload CRC32 | payload
//
// all little-endian. The payload is a sequence of type-tagged primitives
// (one tag byte before every value), so a reader that drifts out of sync
// with its writer fails loudly at the first mismatched tag instead of
// silently reinterpreting bytes. A flat design table (a ZeroArray of
// unpadded elements) is one tagged value: its element count, then its raw
// bytes as runs of 4 KiB pages, where an all-zero page costs nothing, so
// a table the run barely touched stays small. Each stateful class names
// its fields once, in stream order, in a single
// `serialize(snap::Archive&)`: the same body writes the fields on save
// and reads them back on restore, so the two directions cannot drift
// apart.
//
// Error contract (matches bb::cli): a corrupt, truncated or
// version-mismatched snapshot throws SnapshotError, a
// std::ios_base::failure — exit code 3, fail closed. Commits are atomic:
// the file is written to `path + ".tmp"` and renamed into place, so a
// crash mid-write can never leave a torn snapshot under the final name.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <ios>
#include <string>
#include <type_traits>

#include "common/types.h"
#include "common/zero_array.h"

namespace bb::snap {

/// Corrupt, truncated or incompatible snapshot (never a usage error).
class SnapshotError : public std::ios_base::failure {
 public:
  explicit SnapshotError(const std::string& what)
      : std::ios_base::failure("snapshot: " + what) {}
};

inline constexpr u32 kFormatVersion = 1;

/// Payload type tags (one byte preceding every value).
enum class Tag : u8 {
  kU8 = 1,
  kU32 = 2,
  kU64 = 3,
  kI64 = 4,
  kF64 = 5,
  kStr = 6,
  kTable = 7,
};

/// A table's bytes are stored as runs over pages of this size.
inline constexpr std::size_t kTablePageBytes = 4096;

/// Accumulates a payload in memory; commit() seals and atomically writes
/// the container file.
class Writer {
 public:
  void put_u8(u8 v) {
    tag(Tag::kU8);
    buf_.push_back(static_cast<char>(v));
  }
  void put_u32(u32 v) {
    tag(Tag::kU32);
    raw_u64(v, 4);
  }
  void put_u64(u64 v) {
    tag(Tag::kU64);
    raw_u64(v, 8);
  }
  void put_i64(i64 v) {
    tag(Tag::kI64);
    raw_u64(static_cast<u64>(v), 8);
  }
  void put_f64(double v) {
    tag(Tag::kF64);
    u64 bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    raw_u64(bits, 8);
  }
  void put_str(const std::string& s);
  /// A flat table of `count` elements spanning `bytes` raw bytes at
  /// `data`: the count, then (zero pages, literal pages) run pairs until
  /// every page is covered; only the literal pages' bytes follow their
  /// pair.
  void put_table(u64 count, const void* data, std::size_t bytes);

  const std::string& payload() const { return buf_; }

  /// Writes magic/version/size/CRC + payload to `path + ".tmp"`, then
  /// renames over `path`. Throws std::ios_base::failure on I/O errors.
  /// Honors the BB_TEST_KILL_AFTER_SNAPSHOTS / BB_TEST_KILL_MID_WRITE
  /// environment hooks (see snapshot.cpp) used by the kill-and-resume
  /// supervisor test.
  void commit(const std::string& path) const;

 private:
  void tag(Tag t) { buf_.push_back(static_cast<char>(t)); }
  void raw_u64(u64 v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  std::string buf_;
};

/// Opens and verifies a snapshot file, then yields its typed values in
/// writer order. Every structural problem throws SnapshotError.
class Reader {
 public:
  explicit Reader(const std::string& path);

  u8 get_u8() {
    tag(Tag::kU8);
    return static_cast<u8>(take(1)[0]);
  }
  u32 get_u32() {
    tag(Tag::kU32);
    return static_cast<u32>(raw_u64(4));
  }
  u64 get_u64() {
    tag(Tag::kU64);
    return raw_u64(8);
  }
  i64 get_i64() {
    tag(Tag::kI64);
    return static_cast<i64>(raw_u64(8));
  }
  double get_f64() {
    tag(Tag::kF64);
    const u64 bits = raw_u64(8);
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string get_str();
  /// Reads a put_table stream into `data` (`bytes` long, `count`
  /// elements). A count other than `count`, a run past the table or past
  /// the unread payload throws before the run's bytes are copied. A
  /// zero-page run leaves a page that is already all zero unwritten, so
  /// the untouched pages of a fresh table stay untouched.
  void get_table(u64 count, void* data, std::size_t bytes,
                 const char* what);

  /// True when every payload byte has been consumed (restores verify this
  /// so a short read cannot pass silently).
  bool at_end() const { return pos_ == buf_.size(); }

  /// Payload bytes not yet consumed.
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  void tag(Tag expect);
  const char* take(std::size_t n);
  u64 raw_u64(int bytes) {
    const char* p = take(static_cast<std::size_t>(bytes));
    u64 v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<u64>(static_cast<u8>(p[i])) << (8 * i);
    }
    return v;
  }

  std::string buf_;  ///< payload only (header verified in the ctor)
  std::size_t pos_ = 0;
};

/// One two-way pass over a snapshot payload, wrapping a Writer (save) or
/// a Reader (restore). A class's `serialize(Archive&)` lists its fields
/// once: saving writes each one, loading reads into it with the same type
/// tag. Work only a restore needs — validating loaded values, rebuilding
/// derived state — goes under `if (ar.loading())`; a check that must
/// leave the object unchanged on rejection reads into locals first and
/// assigns them after the check.
///
/// Every load-side failure throws SnapshotError. Counts read from the
/// stream are bounded by the unread payload before anything is sized from
/// them, so a crafted length cannot drive a huge allocation.
class Archive {
 public:
  explicit Archive(Writer& w) : w_(&w) {}
  explicit Archive(Reader& r) : r_(&r) {}

  bool loading() const { return r_ != nullptr; }

  void u8(bb::u8& v) {
    if (r_ == nullptr) return w_->put_u8(v);
    v = r_->get_u8();
  }
  void u32(bb::u32& v) {
    if (r_ == nullptr) return w_->put_u32(v);
    v = r_->get_u32();
  }
  void u64(bb::u64& v) {
    if (r_ == nullptr) return w_->put_u64(v);
    v = r_->get_u64();
  }
  void i64(bb::i64& v) {
    if (r_ == nullptr) return w_->put_i64(v);
    v = r_->get_i64();
  }
  void f64(double& v) {
    if (r_ == nullptr) return w_->put_f64(v);
    v = r_->get_f64();
  }
  void str(std::string& v) {
    if (r_ == nullptr) return w_->put_str(v);
    v = r_->get_str();
  }

  /// Narrow fields stored in a wider slot: a u16 as u32, an int32 as i64.
  /// A loaded value the field cannot hold throws.
  void u32(bb::u16& v);
  void i64(std::int32_t& v);

  /// A bool as a u8 0/1; any non-zero byte loads as true.
  void flag(bool& v) {
    bb::u8 b = v ? 1 : 0;
    u8(b);
    v = b != 0;
  }

  /// An enum stored as its u8 value; a loaded byte past `last` (the
  /// enum's final enumerator) throws.
  template <class E>
  void enumeration(E& v, E last) {
    bb::u8 b = static_cast<bb::u8>(v);
    u8(b);
    if (b > static_cast<bb::u8>(last)) {
      throw SnapshotError("enum value " + std::to_string(b) +
                          " out of range");
    }
    v = static_cast<E>(b);
  }

  /// A flat table whose element type has no padding bytes (so its raw
  /// bytes are its value): its element count, which a restore requires to
  /// equal `t.size()` ("<what> mismatch"), then its bytes with every
  /// all-zero 4 KiB page stored as a skip. A struct element spells out its
  /// padding as zero members and keeps flags in u8s; its `well_formed()`
  /// (flags 0 or 1, padding zero) must then hold for every element a
  /// restore loads.
  template <class T>
  void table(ZeroArray<T>& t, const char* what) {
    static_assert(std::has_unique_object_representations_v<T>,
                  "a padded element has indeterminate bytes; give it "
                  "explicit zero padding members");
    static_assert(std::endian::native == std::endian::little,
                  "table bytes are the host's; the format is little-endian");
    if (r_ == nullptr) {
      return w_->put_table(t.size(), t.data(), t.size() * sizeof(T));
    }
    r_->get_table(t.size(), t.data(), t.size() * sizeof(T), what);
    if constexpr (requires(const T& e) { e.well_formed(); }) {
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (!t[i].well_formed()) {
          throw SnapshotError(std::string(what) + ": element " +
                              std::to_string(i) +
                              " has a flag above 1 or non-zero padding");
        }
      }
    }
  }

  /// A count fixed by the object's shape (bank count, bucket count):
  /// writes `n`; a restore throws "<what> mismatch" unless the stored
  /// count equals `n`.
  void expect(bb::u64 n, const char* what);

  /// A count the stream decides: writes `n`; a restore returns the stored
  /// count, rejecting one larger than the unread payload bytes (every
  /// element costs at least one byte).
  std::size_t length(std::size_t n);

  /// length() of a container, which a restore resizes to the stored count.
  template <class C>
  void count(C& c) {
    const std::size_t n = length(c.size());
    if (loading()) c.resize(n);
  }

  /// The presence byte of an optional layer: writes 1 when `present`; a
  /// restore throws "<what> presence mismatch" when the stream disagrees.
  void presence(bool present, const char* what);

  /// presence() of `*p`, then the layer itself when there is one.
  template <class T>
  void optional(T* p, const char* what) {
    presence(p != nullptr, what);
    if (p != nullptr) p->serialize(*this);
  }

 private:
  Writer* w_ = nullptr;
  Reader* r_ = nullptr;
};

/// True when `path` exists (a plain stat probe; no directory iteration).
bool file_exists(const std::string& path);

/// Writes `content` to `path` atomically: `path + ".tmp"` then rename.
/// The crash-atomicity primitive behind every output artifact (CSV, JSON,
/// epoch CSV, event trace, BENCH files, journal rewrites). Throws
/// std::ios_base::failure on any I/O error.
void write_file_atomic(const std::string& path, const std::string& content);

}  // namespace bb::snap
