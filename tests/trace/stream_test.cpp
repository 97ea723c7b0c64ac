// Streaming trace layer tests: v2 round-trips, replay laps, rejection of
// the retired v1 format and of any chunk codec but varint, and the
// fail-closed contract for truncated / corrupt files (a record must never
// be served from a chunk whose checksum did not verify).
#include "trace/stream.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "trace/workload.h"

namespace bb::trace {
namespace {

std::string tmp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<TraceRecord> synth_records(std::size_t n, u64 seed = 7) {
  TraceGenerator gen(WorkloadProfile::by_name("mcf"), seed);
  return gen.take(n);
}

void expect_same(const std::vector<TraceRecord>& a,
                 const std::vector<TraceRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].inst_gap, b[i].inst_gap) << "record " << i;
    ASSERT_EQ(a[i].addr, b[i].addr) << "record " << i;
    ASSERT_EQ(a[i].type, b[i].type) << "record " << i;
  }
}

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// Independent CRC32 (IEEE 802.3, reflected) so corruption tests can craft
// files whose *chunk* checksum verifies while the record bytes lie — the
// stream checksum must then catch it at the lap boundary.
u32 ref_crc32(const unsigned char* data, std::size_t n) {
  u32 crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
    }
  }
  return ~crc;
}

void put_le32(std::vector<unsigned char>& bytes, std::size_t off, u32 v) {
  for (int i = 0; i < 4; ++i) {
    bytes[off + static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(v >> (8 * i));
  }
}

u32 get_le32(const std::vector<unsigned char>& bytes, std::size_t off) {
  u32 v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<u32>(bytes[off + static_cast<std::size_t>(i)]) << (8 * i);
  }
  return v;
}

// File offsets of the v2 layout (see trace/stream.h).
constexpr std::size_t kHeaderBytes = 24;
constexpr std::size_t kChunkHeaderBytes = 16;
constexpr std::size_t kCodecWord = 12;        // within the header
constexpr std::size_t kPayloadBytesWord = 8;  // within a chunk header

/// Offset of the chunk header that follows the chunk whose header starts
/// at `chunk`, from that header's payload-size field.
std::size_t next_chunk(const std::vector<unsigned char>& bytes,
                       std::size_t chunk) {
  return chunk + kChunkHeaderBytes +
         get_le32(bytes, chunk + kPayloadBytesWord);
}

struct TempTrace {
  explicit TempTrace(const char* name) : path(tmp_path(name)) {}
  ~TempTrace() { std::remove(path.c_str()); }
  std::string path;
};

// A file in the retired v1 layout: "BBMMTRC1" magic, u32 version 1, u32
// reserved, u64 record count, then `body_bytes` of packed records.
std::vector<unsigned char> v1_file(u64 count, std::size_t body_bytes) {
  std::vector<unsigned char> bytes(24 + body_bytes, 0);
  const u64 magic = 0x42424d4d54524331ULL;
  for (int i = 0; i < 8; ++i) {
    bytes[static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(magic >> (8 * i));
    bytes[16 + static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(count >> (8 * i));
  }
  put_le32(bytes, 8, 1);
  return bytes;
}

void expect_v1_rejected(const std::string& path) {
  EXPECT_THROW(trace_info(path), TraceError);
  try {
    StreamingTraceReader reader(path);
    FAIL() << "a v1 trace must not open";
  } catch (const TraceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("v1"), std::string::npos) << what;
    EXPECT_NE(what.find("regenerate"), std::string::npos) << what;
  }
}

TEST(StreamFormat, RoundTripAllCodecs) {
  // Varint is the one chunk codec: the writer stamps codec word 1.
  const auto original = synth_records(3000);
  TempTrace t("roundtrip_v2.bbtrace");
  TraceWriterOptions w;
  w.chunk_records = 256;  // 3000 % 256 != 0: short final chunk on purpose
  ASSERT_TRUE(save_trace_v2(t.path, original, w));
  EXPECT_EQ(get_le32(slurp(t.path), kCodecWord), 1u);
  const auto info = trace_info(t.path);
  EXPECT_EQ(info.records, original.size());
  EXPECT_EQ(info.chunks, (original.size() + 255) / 256);
  expect_same(read_trace(t.path), original);
  EXPECT_EQ(validate_trace(t.path).records, original.size());
}

TEST(StreamFormat, CodecWordOtherThanVarintFailsClosed) {
  // Ids 0 and 2 were the retired raw and zlib codecs; 3 was never used.
  // Every entry point rejects them before decoding, naming the id.
  const auto original = synth_records(100);
  TempTrace t("badcodec.bbtrace");
  ASSERT_TRUE(save_trace_v2(t.path, original));
  const auto good = slurp(t.path);
  for (const u32 codec : {0u, 2u, 3u}) {
    SCOPED_TRACE(codec);
    auto bytes = good;
    put_le32(bytes, kCodecWord, codec);
    dump(t.path, bytes);
    const std::string id = "codec id " + std::to_string(codec);
    const auto expect_named = [&](const std::function<void()>& open) {
      try {
        open();
        FAIL() << "codec " << codec << " must not open";
      } catch (const TraceError& e) {
        EXPECT_NE(std::string(e.what()).find(id), std::string::npos)
            << e.what();
      }
    };
    expect_named([&] { trace_info(t.path); });
    expect_named([&] { validate_trace(t.path); });
    expect_named([&] { StreamingTraceReader reader(t.path); });
  }
}

TEST(StreamFormat, VarintHandlesAddressJumpsAndWideGaps) {
  // Zigzag deltas across the full address range plus gaps needing every
  // varint length.
  std::vector<TraceRecord> recs = {
      {1, 0, AccessType::kRead},
      {0x7FFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFC0ull, AccessType::kWrite},
      {127, 64, AccessType::kRead},
      {128, 0xFFFFFFFFFFFFFFC0ull, AccessType::kRead},
      {1, 0, AccessType::kWrite},
  };
  TempTrace t("varint_extremes.bbtrace");
  TraceWriterOptions w;
  w.chunk_records = 2;
  ASSERT_TRUE(save_trace_v2(t.path, recs, w));
  expect_same(read_trace(t.path), recs);
}

TEST(StreamingReader, BitIdenticalToRecordsAcrossLaps) {
  const auto original = synth_records(1000);
  const std::size_t n = original.size();
  TempTrace t("laps.bbtrace");
  TraceWriterOptions w;
  w.chunk_records = 128;
  ASSERT_TRUE(save_trace_v2(t.path, original, w));

  StreamingTraceReader stream(t.path);
  // 2.5 laps: exercises the wrap twice, including lap-boundary checksum
  // verification, and ends mid-trace.
  for (std::size_t i = 0; i < 2500; ++i) {
    ASSERT_EQ(stream.laps(), i / n) << "step " << i;
    const TraceRecord a = stream.next();
    const TraceRecord& b = original[i % n];
    ASSERT_EQ(a.inst_gap, b.inst_gap) << "step " << i;
    ASSERT_EQ(a.addr, b.addr) << "step " << i;
    ASSERT_EQ(a.type, b.type) << "step " << i;
  }
  EXPECT_EQ(stream.laps(), 2u);
}

TEST(StreamingReader, BoundedBuffersReportedInInfo) {
  const auto original = synth_records(4096);
  TempTrace t("bounded.bbtrace");
  TraceWriterOptions w;
  w.chunk_records = 64;
  ASSERT_TRUE(save_trace_v2(t.path, original, w));
  StreamingTraceReader reader(t.path);
  // The decode buffer high-water mark is one chunk, not the trace: 64
  // records regardless of the 4096-record file.
  EXPECT_EQ(reader.info().max_chunk_records, 64u);
  EXPECT_LT(reader.info().max_chunk_payload, 64u * 17u + 1u);
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(reader.next().addr, original[i].addr);
  }
}

TEST(StreamingReader, EmptyV2TraceRejected) {
  TempTrace t("empty_v2.bbtrace");
  TraceCaptureSink sink;
  sink.open(t.path);
  EXPECT_TRUE(sink.close());  // structurally valid file with zero records
  EXPECT_THROW(StreamingTraceReader reader(t.path), TraceError);
  EXPECT_THROW(trace_info(t.path), TraceError);
}

TEST(StreamingReader, EmptyV1TraceRejected) {
  TempTrace t("empty_v1.bbtrace");
  dump(t.path, v1_file(0, 0));
  expect_v1_rejected(t.path);
}

TEST(StreamingReader, MissingFileIsIoError) {
  EXPECT_THROW(StreamingTraceReader reader(tmp_path("nope.bbtrace")),
               std::ios_base::failure);
  EXPECT_THROW(trace_info(tmp_path("nope.bbtrace")), std::ios_base::failure);
}

TEST(StreamCorruption, BadMagicFailsClosed) {
  const auto original = synth_records(100);
  TempTrace t("badmagic.bbtrace");
  ASSERT_TRUE(save_trace_v2(t.path, original));
  auto bytes = slurp(t.path);
  bytes[0] ^= 0xFF;
  dump(t.path, bytes);
  EXPECT_THROW(trace_info(t.path), TraceError);
  EXPECT_THROW(StreamingTraceReader reader(t.path), TraceError);
  // A well-formed file in the retired v1 layout (100 packed 24-byte
  // records) fails closed the same way, naming v1.
  dump(t.path, v1_file(100, 100 * 24));
  expect_v1_rejected(t.path);
}

TEST(StreamCorruption, UnknownVersionFailsClosed) {
  const auto original = synth_records(100);
  TempTrace t("badversion.bbtrace");
  ASSERT_TRUE(save_trace_v2(t.path, original));
  auto bytes = slurp(t.path);
  put_le32(bytes, 8, 3);  // header version field
  dump(t.path, bytes);
  EXPECT_THROW(StreamingTraceReader reader(t.path), TraceError);
}

TEST(StreamCorruption, TruncatedFinalChunkFailsClosed) {
  const auto original = synth_records(1000);
  TempTrace t("truncated.bbtrace");
  TraceWriterOptions w;
  w.chunk_records = 128;
  ASSERT_TRUE(save_trace_v2(t.path, original, w));
  auto bytes = slurp(t.path);
  // Drop the footer and half the final chunk: the structural walk must
  // notice before any record is served.
  bytes.resize(bytes.size() - 32 - 40);
  dump(t.path, bytes);
  EXPECT_THROW(StreamingTraceReader reader(t.path), TraceError);
}

TEST(StreamCorruption, TruncatedV1FailsClosed) {
  TempTrace t("truncated_v1.bbtrace");
  dump(t.path, v1_file(100, 100 * 24 - 13));  // mid-record cut
  expect_v1_rejected(t.path);
}

TEST(StreamCorruption, ChunkChecksumMismatchDetectedOnLoad) {
  const auto original = synth_records(600);
  TempTrace t("flipped.bbtrace");
  TraceWriterOptions w;
  w.chunk_records = 200;
  ASSERT_TRUE(save_trace_v2(t.path, original, w));
  auto bytes = slurp(t.path);
  // Flip one payload byte inside the *second* chunk, found by skipping the
  // first chunk's payload.
  const std::size_t second_payload =
      next_chunk(bytes, kHeaderBytes) + kChunkHeaderBytes;
  bytes[second_payload + 5] ^= 0x01;
  dump(t.path, bytes);
  // The shallow walk does not decode payloads, so construction succeeds
  // and the first chunk still replays...
  StreamingTraceReader reader(t.path);
  for (int i = 0; i < 200; ++i) reader.next();
  // ...but the corrupt chunk must never yield a record.
  EXPECT_THROW(reader.next(), TraceError);
  EXPECT_THROW(validate_trace(t.path), TraceError);
}

TEST(StreamCorruption, StreamChecksumCatchesConsistentlyPatchedChunk) {
  const auto original = synth_records(300);
  TempTrace t("patched.bbtrace");
  TraceWriterOptions w;
  w.chunk_records = 100;
  ASSERT_TRUE(save_trace_v2(t.path, original, w));
  auto bytes = slurp(t.path);
  // Adversarial case: corrupt a record *and* re-stamp the chunk CRC so the
  // per-chunk check passes. Flipping the low bit of a varint byte whose
  // top bit is clear (the last byte of its value) changes the value but
  // not the length, so the chunk still decodes to 100 records. Only the
  // footer's stream checksum, verified at the lap boundary, can catch it.
  const std::size_t chunk_hdr = kHeaderBytes;
  const std::size_t payload = chunk_hdr + kChunkHeaderBytes;
  const std::size_t payload_bytes =
      get_le32(bytes, chunk_hdr + kPayloadBytesWord);
  std::size_t at = payload;
  while ((bytes[at] & 0x80u) != 0) ++at;
  ASSERT_LT(at, payload + payload_bytes);
  bytes[at] ^= 0x01;
  put_le32(bytes, chunk_hdr + 12, ref_crc32(&bytes[payload], payload_bytes));
  dump(t.path, bytes);
  StreamingTraceReader reader(t.path);
  for (std::size_t i = 0; i < original.size() - 1; ++i) reader.next();
  // Serving the final record completes the lap, which verifies the stream
  // checksum — the record must not escape.
  EXPECT_THROW(reader.next(), TraceError);
  EXPECT_THROW(validate_trace(t.path), TraceError);
}

TEST(StreamCorruption, EmptyChunkMidReplayFailsClosed) {
  // The file (about 50 KB of varint chunks) is far larger than a stdio
  // buffer, so the rewind at a lap boundary re-reads the first chunk from
  // the file.
  const auto original = synth_records(10000);
  TempTrace t("emptied.bbtrace");
  TraceWriterOptions w;
  w.chunk_records = 100;
  ASSERT_TRUE(save_trace_v2(t.path, original, w));
  ASSERT_GT(slurp(t.path).size(), 4u * static_cast<std::size_t>(BUFSIZ));
  // The structural walk passes at open; then the file is rewritten in
  // place so the first chunk header claims zero records and an empty
  // payload, whose CRC is 0. No record may be served from it.
  StreamingTraceReader reader(t.path);
  std::FILE* f = std::fopen(t.path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::vector<unsigned char> header(kChunkHeaderBytes, 0);
  put_le32(header, 0, 0x434b4e48);  // "CHNK"
  ASSERT_EQ(std::fseek(f, kHeaderBytes, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(header.data(), 1, header.size(), f), header.size());
  ASSERT_EQ(std::fclose(f), 0);
  // Lap one may still see the original header if stdio read it ahead at
  // open; the first record of lap two comes from the patched file.
  std::size_t served = 0;
  try {
    for (; served <= original.size(); ++served) reader.next();
  } catch (const TraceError&) {
  }
  EXPECT_TRUE(served == 0 || served == original.size()) << served;
}

TEST(StreamCorruption, FooterCountMismatchFailsClosed) {
  const auto original = synth_records(256);
  TempTrace t("badcount.bbtrace");
  TraceWriterOptions w;
  w.chunk_records = 64;
  ASSERT_TRUE(save_trace_v2(t.path, original, w));
  auto bytes = slurp(t.path);
  // Footer record_count is 24 bytes from the end (count u64,
  // inst_gap_total u64, stream_crc u64).
  bytes[bytes.size() - 24] ^= 0x01;
  dump(t.path, bytes);
  EXPECT_THROW(trace_info(t.path), TraceError);
}

TEST(CaptureSink, CountsAndInstructionTotal) {
  TempTrace t("sink.bbtrace");
  TraceCaptureSink sink;
  TraceWriterOptions w;
  w.chunk_records = 8;
  sink.open(t.path, w);
  EXPECT_TRUE(sink.is_open());
  u64 gaps = 0;
  for (u64 i = 0; i < 20; ++i) {  // 2 full chunks + a short one
    sink.append({i + 1, i * 64, i % 3 == 0 ? AccessType::kWrite
                                           : AccessType::kRead});
    gaps += i + 1;
  }
  EXPECT_EQ(sink.records(), 20u);
  EXPECT_TRUE(sink.close());
  const auto info = trace_info(t.path);
  EXPECT_EQ(info.records, 20u);
  EXPECT_EQ(info.inst_gap_total, gaps);
  EXPECT_EQ(info.chunks, 3u);
  const auto back = read_trace(t.path);
  ASSERT_EQ(back.size(), 20u);
  EXPECT_EQ(back[19].addr, 19u * 64u);
}

TEST(CaptureSink, RejectsBadOptions) {
  TraceCaptureSink sink;
  TraceWriterOptions w;
  w.chunk_records = 0;
  EXPECT_THROW(sink.open(tmp_path("never.bbtrace"), w), TraceError);
  w.chunk_records = (1u << 24) + 1;  // past the format's chunk bound
  EXPECT_THROW(sink.open(tmp_path("never.bbtrace"), w), TraceError);
  EXPECT_FALSE(sink.is_open());
  EXPECT_THROW(sink.open("/nonexistent-dir/x.bbtrace"),
               std::ios_base::failure);
}

// Whole-file reads (read_trace, as trace_tools --in uses) of the one
// on-disk format.

TEST(TraceFile, RoundTrip) {
  TraceGenerator gen(WorkloadProfile::by_name("mcf"), 21);
  const auto original = gen.take(5000);
  TempTrace t("roundtrip.bbtrace");
  ASSERT_TRUE(save_trace_v2(t.path, original));
  expect_same(read_trace(t.path), original);
}

TEST(TraceFile, EmptyTrace) {
  // Writing zero records succeeds; reading them back fails closed.
  TempTrace t("empty.bbtrace");
  ASSERT_TRUE(save_trace_v2(t.path, {}));
  EXPECT_THROW(read_trace(t.path), TraceError);
}

TEST(TraceFile, MissingFileFails) {
  EXPECT_THROW(read_trace(tmp_path("does-not-exist.bbtrace")),
               std::ios_base::failure);
}

TEST(TraceFile, RejectsCorruptHeader) {
  TempTrace t("corrupt.bbtrace");
  const std::string text = "not a trace file at all, only some text";
  dump(t.path, std::vector<unsigned char>(text.begin(), text.end()));
  EXPECT_THROW(read_trace(t.path), TraceError);
}

TEST(TraceFile, RejectsTruncatedBody) {
  TraceGenerator gen(WorkloadProfile::by_name("xz"), 4);
  TempTrace t("truncated_body.bbtrace");
  ASSERT_TRUE(save_trace_v2(t.path, gen.take(100)));
  auto bytes = slurp(t.path);
  bytes.resize(bytes.size() - 13);  // cuts into the footer
  dump(t.path, bytes);
  EXPECT_THROW(read_trace(t.path), TraceError);
}

// The streaming reader is the one replay source for trace files.

TEST(Replayer, LoopsOverRecords) {
  const std::vector<TraceRecord> recs = {
      {1, 0, AccessType::kRead},
      {2, 64, AccessType::kWrite},
      {3, 128, AccessType::kRead},
  };
  TempTrace t("loops.bbtrace");
  ASSERT_TRUE(save_trace_v2(t.path, recs));
  StreamingTraceReader rep(t.path);
  EXPECT_EQ(rep.info().records, 3u);
  EXPECT_EQ(rep.next().addr, 0u);
  EXPECT_EQ(rep.next().addr, 64u);
  EXPECT_EQ(rep.next().addr, 128u);
  EXPECT_EQ(rep.laps(), 1u);
  EXPECT_EQ(rep.next().addr, 0u);  // wrapped
}

// An empty trace must not fabricate records: construction throws a
// std::invalid_argument (exit 2 through the bb::cli contract).
TEST(Replayer, EmptyTraceRejectedAtConstruction) {
  TempTrace t("empty_replay.bbtrace");
  ASSERT_TRUE(save_trace_v2(t.path, {}));
  try {
    StreamingTraceReader rep(t.path);
    FAIL() << "empty trace must not construct";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("empty trace"), std::string::npos);
  }
}

}  // namespace
}  // namespace bb::trace
