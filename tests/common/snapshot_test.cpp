#include "common/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/trace_event.h"
#include "common/zero_array.h"
#include "snapshot_testing.h"

namespace bb::snap {
namespace {

std::string tmp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Snapshot, RoundTripsEveryType) {
  const std::string path = tmp_path("roundtrip.bbsnap");
  Writer w;
  w.put_u8(7);
  w.put_u32(0xDEADBEEFu);
  w.put_u64(0x123456789ABCDEF0ULL);
  w.put_i64(-42);
  w.put_f64(3.25);
  w.put_str("bumblebee");
  w.put_str("");
  w.commit(path);

  Reader r(path);
  EXPECT_EQ(r.get_u8(), 7u);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x123456789ABCDEF0ULL);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.25);
  EXPECT_EQ(r.get_str(), "bumblebee");
  EXPECT_EQ(r.get_str(), "");
  EXPECT_TRUE(r.at_end());
}

TEST(Snapshot, CommitIsAtomic) {
  const std::string path = tmp_path("atomic.bbsnap");
  Writer w;
  w.put_u64(1);
  w.commit(path);
  EXPECT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
  // Recommitting over an existing file replaces it whole.
  Writer w2;
  w2.put_u64(2);
  w2.commit(path);
  Reader r(path);
  EXPECT_EQ(r.get_u64(), 2u);
  EXPECT_TRUE(r.at_end());
}

TEST(Snapshot, TagMismatchThrows) {
  const std::string path = tmp_path("tagmismatch.bbsnap");
  Writer w;
  w.put_u64(99);
  w.commit(path);
  Reader r(path);
  EXPECT_THROW(r.get_u32(), SnapshotError);
}

TEST(Snapshot, ReadPastEndThrows) {
  const std::string path = tmp_path("pastend.bbsnap");
  Writer w;
  w.put_u8(1);
  w.commit(path);
  Reader r(path);
  EXPECT_EQ(r.get_u8(), 1u);
  EXPECT_THROW(r.get_u8(), SnapshotError);
}

TEST(Snapshot, PayloadCorruptionFailsClosed) {
  const std::string path = tmp_path("corrupt.bbsnap");
  Writer w;
  for (u64 i = 0; i < 16; ++i) w.put_u64(i);
  w.commit(path);
  std::string blob = read_file(path);
  blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x01);
  write_raw(path, blob);
  EXPECT_THROW(Reader r(path), SnapshotError);
}

TEST(Snapshot, MagicMismatchFailsClosed) {
  const std::string path = tmp_path("badmagic.bbsnap");
  Writer w;
  w.put_u64(1);
  w.commit(path);
  std::string blob = read_file(path);
  blob[0] = 'X';
  write_raw(path, blob);
  EXPECT_THROW(Reader r(path), SnapshotError);
}

TEST(Snapshot, VersionMismatchFailsClosed) {
  const std::string path = tmp_path("badversion.bbsnap");
  Writer w;
  w.put_u64(1);
  w.commit(path);
  std::string blob = read_file(path);
  // u32 version lives right after the 8-byte magic.
  blob[8] = static_cast<char>(kFormatVersion + 1);
  write_raw(path, blob);
  EXPECT_THROW(Reader r(path), SnapshotError);
}

TEST(Snapshot, TruncationFailsClosed) {
  const std::string path = tmp_path("truncated.bbsnap");
  Writer w;
  for (u64 i = 0; i < 16; ++i) w.put_u64(i);
  w.commit(path);
  const std::string blob = read_file(path);
  write_raw(path, blob.substr(0, blob.size() - 5));
  EXPECT_THROW(Reader r(path), SnapshotError);
}

TEST(Snapshot, MissingFileThrows) {
  EXPECT_THROW(Reader r(tmp_path("does-not-exist.bbsnap")), SnapshotError);
}

TEST(Snapshot, WriteFileAtomicWritesAndCleansUp) {
  const std::string path = tmp_path("artifact.csv");
  write_file_atomic(path, "a,b\n1,2\n");
  EXPECT_EQ(read_file(path), "a,b\n1,2\n");
  EXPECT_FALSE(file_exists(path + ".tmp"));
  // Overwrite is whole-file, never an append.
  write_file_atomic(path, "x\n");
  EXPECT_EQ(read_file(path), "x\n");
}

TEST(Snapshot, WriteFileAtomicUnwritablePathThrows) {
  EXPECT_THROW(
      write_file_atomic("/nonexistent-dir/sub/out.csv", "x"),
      std::ios_base::failure);
}

TEST(Snapshot, FileExistsProbe) {
  const std::string path = tmp_path("exists.probe");
  EXPECT_FALSE(file_exists(path));
  write_raw(path, "x");
  EXPECT_TRUE(file_exists(path));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- Archive

enum class Color : u8 { kRed, kGreen, kBlue };

/// Every Archive field shape in one object.
struct Sample {
  u8 a = 0;
  u32 b = 0;
  u64 c = 0;
  i64 d = 0;
  double e = 0;
  std::string f;
  bool g = false;
  u16 h = 0;
  std::int32_t i = 0;
  Color j = Color::kRed;
  std::vector<u64> list;
  std::vector<u64> fixed = std::vector<u64>(3);

  void serialize(Archive& ar) {
    ar.u8(a);
    ar.u32(b);
    ar.u64(c);
    ar.i64(d);
    ar.f64(e);
    ar.str(f);
    ar.flag(g);
    ar.u32(h);
    ar.i64(i);
    ar.enumeration(j, Color::kBlue);
    ar.count(list);
    for (u64& v : list) ar.u64(v);
    ar.expect(fixed.size(), "fixed count");
    for (u64& v : fixed) ar.u64(v);
  }
};

TEST(Archive, OneBodySavesAndRestoresEveryShape) {
  Sample s;
  s.a = 7;
  s.b = 0xDEADBEEFu;
  s.c = 0x123456789ABCDEF0ULL;
  s.d = -42;
  s.e = 3.25;
  s.f = "bumblebee";
  s.g = true;
  s.h = 0xFFFF;
  s.i = -7;
  s.j = Color::kBlue;
  s.list = {1, 2, 3, 4};
  s.fixed = {5, 6, 7};
  const std::string payload = testing::payload_of(s);

  Sample back;
  testing::restore(payload, back);
  EXPECT_EQ(back.a, s.a);
  EXPECT_EQ(back.b, s.b);
  EXPECT_EQ(back.c, s.c);
  EXPECT_EQ(back.d, s.d);
  EXPECT_DOUBLE_EQ(back.e, s.e);
  EXPECT_EQ(back.f, s.f);
  EXPECT_EQ(back.g, s.g);
  EXPECT_EQ(back.h, s.h);
  EXPECT_EQ(back.i, s.i);
  EXPECT_EQ(back.j, s.j);
  EXPECT_EQ(back.list, s.list);
  EXPECT_EQ(back.fixed, s.fixed);
  EXPECT_EQ(testing::payload_of(back), payload);
}

TEST(Archive, WritesTheSameTagsAsThePrimitives) {
  // The archive is a front end over Writer: a bool is a u8 0/1, a u16 a
  // u32, an int32 an i64, an enum a u8 and every count a u64.
  Writer w;
  Archive ar(w);
  bool on = true;
  u16 narrow = 9;
  std::int32_t signed_narrow = -3;
  Color c = Color::kGreen;
  std::vector<u64> list = {11};
  ar.flag(on);
  ar.u32(narrow);
  ar.i64(signed_narrow);
  ar.enumeration(c, Color::kBlue);
  ar.count(list);
  ar.expect(2, "pair");
  ar.presence(true, "layer");

  Writer want;
  want.put_u8(1);
  want.put_u32(9);
  want.put_i64(-3);
  want.put_u8(1);
  want.put_u64(1);
  want.put_u64(2);
  want.put_u8(1);
  EXPECT_EQ(w.payload(), want.payload());
}

TEST(Archive, RestoreRejectsCountPastPayload) {
  // A count is bounded by the unread payload before anything is sized
  // from it; the container is left as it was.
  struct Listed {
    std::vector<u64> list = {1, 2};
    void serialize(Archive& ar) { ar.count(list); }
  };
  Writer w;
  w.put_u64(u64{1} << 60);
  Listed l;
  EXPECT_THROW(testing::restore(w.payload(), l), SnapshotError);
  EXPECT_EQ(l.list.size(), 2u);

  // The bound is the unread bytes: a count equal to them is accepted.
  Writer edge;
  edge.put_u64(4);
  edge.put_u8(0);
  edge.put_u8(0);
  Listed ok;
  EXPECT_NO_THROW(testing::restore(edge.payload(), ok));
  EXPECT_EQ(ok.list.size(), 4u);
}

TEST(Archive, RestoreRejectsOutOfRangeValues) {
  struct Narrow {
    Color c = Color::kRed;
    u16 h = 0;
    std::int32_t i = 0;
    int which = 0;
    void serialize(Archive& ar) {
      if (which == 0) ar.enumeration(c, Color::kBlue);
      if (which == 1) ar.u32(h);
      if (which == 2) ar.i64(i);
    }
  };
  Writer bad_enum;
  bad_enum.put_u8(3);  // one past kBlue
  Writer bad_u16;
  bad_u16.put_u32(0x10000);
  Writer bad_i32;
  bad_i32.put_i64(i64{1} << 31);
  const Writer* streams[] = {&bad_enum, &bad_u16, &bad_i32};
  for (int which = 0; which < 3; ++which) {
    SCOPED_TRACE(which);
    Narrow n;
    n.which = which;
    EXPECT_THROW(testing::restore(streams[which]->payload(), n),
                 SnapshotError);
  }
}

TEST(Archive, RestoreRejectsShapeAndPresenceMismatch) {
  struct Shaped {
    u64 n = 3;
    bool present = true;
    void serialize(Archive& ar) {
      ar.expect(n, "slot count");
      ar.presence(present, "layer");
    }
  };
  Shaped saved;
  const std::string payload = testing::payload_of(saved);
  Shaped wider;
  wider.n = 4;
  EXPECT_THROW(testing::restore(payload, wider), SnapshotError);
  Shaped absent;
  absent.present = false;
  EXPECT_THROW(testing::restore(payload, absent), SnapshotError);
  Shaped same;
  EXPECT_NO_THROW(testing::restore(payload, same));
}

// ------------------------------------------------------------ Archive::table

/// One flat table, serialized through Archive::table.
template <class T>
struct Table {
  ZeroArray<T> t;
  explicit Table(std::size_t n) : t(n) {}
  void serialize(Archive& ar) { ar.table(t, "table size"); }
};

TEST(ArchiveTable, RoundTripIsExact) {
  // 5000 u32s: one literal page, zero pages, and a short last page.
  Table<u32> saved(5000);
  saved.t[3] = 0xDEADBEEFu;
  saved.t[2100] = 7;
  saved.t[4999] = 1;
  const std::string payload = testing::payload_of(saved);
  Table<u32> back(5000);
  testing::restore(payload, back);
  for (std::size_t i = 0; i < 5000; ++i) ASSERT_EQ(back.t[i], saved.t[i]) << i;
  EXPECT_EQ(testing::payload_of(back), payload);

  // A restore into a table that already holds data clears the pages the
  // stream skips.
  Table<u32> dirty(5000);
  for (std::size_t i = 0; i < 5000; ++i) dirty.t[i] = static_cast<u32>(i + 1);
  testing::restore(payload, dirty);
  EXPECT_EQ(testing::payload_of(dirty), payload);

  // An empty table is its tag and count only.
  Table<u64> empty(0);
  Table<u64> empty_back(0);
  testing::restore(testing::payload_of(empty), empty_back);
}

TEST(ArchiveTable, UntouchedPagesCostNothing) {
  Table<u64> table(2 * 1024 * 1024);  // 16 MiB
  EXPECT_LT(testing::payload_of(table).size(), 64 * KiB);
  table.t[12345] = 1;
  table.t[2 * 1024 * 1024 - 1] = 2;
  // Two literal pages and their run headers.
  EXPECT_LT(testing::payload_of(table).size(), 3 * kTablePageBytes);
}

/// One hand-made table run: its header words, then `bytes` of 0xAB.
struct Run {
  std::vector<u64> words;  ///< zero pages, literal pages (or a prefix)
  std::size_t bytes = 0;
};

/// A kTable value as Writer::put_table lays it out, from a hand-made
/// count and runs.
std::string crafted_table(u64 count, const std::vector<Run>& runs) {
  Writer w;
  w.put_u64(count);
  std::string out = static_cast<char>(Tag::kTable) + w.payload();
  for (const Run& run : runs) {
    Writer header;
    for (const u64 word : run.words) header.put_u64(word);
    out += header.payload() + std::string(run.bytes, static_cast<char>(0xAB));
  }
  return out;
}

TEST(ArchiveTable, RestoreRejectsCraftedStreamsBeforeCopying) {
  // Three pages of u64s; the well-formed stream restores.
  constexpr std::size_t kCount = 3 * kTablePageBytes / 8;
  {
    Table<u64> t(kCount);
    EXPECT_NO_THROW(testing::restore(
        crafted_table(kCount, {{{1, 1}, kTablePageBytes}, {{1, 0}, 0}}), t));
    EXPECT_EQ(t.t[kTablePageBytes / 8], 0xABABABABABABABABULL);
  }
  const auto untouched = [](const Table<u64>& t) {
    for (std::size_t i = 0; i < t.t.size(); ++i) {
      if (t.t[i] != 0) return false;
    }
    return true;
  };
  const std::pair<const char*, std::string> bad[] = {
      {"count mismatch", crafted_table(kCount + 1, {{{3, 0}, 0}})},
      {"truncated run", crafted_table(kCount, {{{3}, 0}})},
      {"literal run past the unread payload",
       crafted_table(kCount, {{{0, 3}, kTablePageBytes}})},
      {"huge literal run", crafted_table(kCount, {{{0, u64{1} << 60}, 0}})},
      {"runs past the table", crafted_table(kCount, {{{2, 2}, 0}})},
      {"empty run", crafted_table(kCount, {{{0, 0}, 0}})},
  };
  for (const auto& [what, payload] : bad) {
    SCOPED_TRACE(what);
    Table<u64> t(kCount);
    EXPECT_THROW(testing::restore(payload, t), SnapshotError);
    EXPECT_TRUE(untouched(t));
  }
}

// ------------------------------------------------------- MemoryTraceSink

TEST(MemoryTraceSinkSnapshot, RoundTripsEveryArgKind) {
  MemoryTraceSink sink;
  sink.emit(TraceEvent(5, "a", "x").arg("u", u64{1}).arg("i", i64{-2}));
  sink.emit(TraceEvent(9, "b", "y").arg("d", 0.5).arg("s", "text"));
  const std::string payload = testing::payload_of(sink);
  MemoryTraceSink back;
  testing::restore(payload, back);
  ASSERT_EQ(back.events().size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(trace_event_to_json(back.events()[k]),
              trace_event_to_json(sink.events()[k]));
  }
}

/// One event named "e" at tick 0 in MemoryTraceSink::serialize's layout,
/// with `args` arguments; the first has kind byte `kind`.
std::string sink_payload(u64 args, u8 kind) {
  Writer w;
  w.put_u64(1);  // events
  w.put_u64(0);  // tick
  w.put_str("e");
  w.put_str("c");
  w.put_u64(args);
  w.put_str("k");
  w.put_u8(kind);
  w.put_u64(0);
  w.put_i64(0);
  w.put_f64(0);
  w.put_str("");
  return w.payload();
}

TEST(MemoryTraceSinkSnapshot, RestoreRejectsCraftedCountsAndKinds) {
  {
    MemoryTraceSink sink;
    EXPECT_NO_THROW(testing::restore(sink_payload(1, 3), sink));
  }
  {
    SCOPED_TRACE("kind byte past kString");
    MemoryTraceSink sink;
    EXPECT_THROW(testing::restore(sink_payload(1, 4), sink), SnapshotError);
  }
  {
    SCOPED_TRACE("argument count past the payload");
    MemoryTraceSink sink;
    EXPECT_THROW(testing::restore(sink_payload(u64{1} << 60, 0), sink),
                 SnapshotError);
  }
  {
    SCOPED_TRACE("event count past the payload");
    Writer w;
    w.put_u64(u64{1} << 60);
    MemoryTraceSink sink;
    EXPECT_THROW(testing::restore(w.payload(), sink), SnapshotError);
  }
}

}  // namespace
}  // namespace bb::snap
