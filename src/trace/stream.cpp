#include "trace/stream.h"

#include "common/crc32.h"
#include "common/prof.h"
#include "common/snapshot.h"

#include <cstring>
#include <ios>

namespace bb::trace {
namespace {

// ---- format constants -----------------------------------------------------

constexpr u64 kMagicV1 = 0x42424d4d54524331ULL;  // "BBMMTRC1"
constexpr u64 kMagicV2 = 0x42424d4d54524332ULL;  // "BBMMTRC2"
constexpr u32 kVarintCodec = 1;                  // the header's codec word
constexpr u32 kChunkMarker = 0x434b4e48;         // "CHNK" (LE bytes H N K C)
constexpr u32 kFooterMarker = 0x544f4f46;        // "FOOT"
constexpr std::size_t kHeaderBytes = 24;
constexpr std::size_t kChunkHeaderBytes = 16;
constexpr std::size_t kFooterBytes = 32;
constexpr std::size_t kCanonicalRecordBytes = 17;  // u64 gap, u64 addr, u8 w
constexpr u64 kMaxChunkPayloadBytes = 1ULL << 30;
constexpr u32 kMaxChunkRecords = 1u << 24;

// ---- little-endian byte helpers -------------------------------------------

void put_u32(u8* out, u32 v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<u8>(v >> (8 * i));
}

void put_u64(u8* out, u64 v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<u8>(v >> (8 * i));
}

u32 get_u32(const u8* in) {
  u32 v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<u32>(in[i]) << (8 * i);
  return v;
}

u64 get_u64(const u8* in) {
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(in[i]) << (8 * i);
  return v;
}

// CRC32 comes from the shared common/crc32.h implementation (also used by
// the snapshot container), pulled into this namespace so the call sites
// below read unqualified.
using bb::crc32_final;
using bb::crc32_init;
using bb::crc32_of;
using bb::crc32_update;

// ---- varint / zigzag ------------------------------------------------------

void put_varint(std::vector<u8>& out, u64 v) {
  while (v >= 0x80) {
    out.push_back(static_cast<u8>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<u8>(v));
}

/// Reads one varint from [p, end). Throws on overrun or >64-bit values.
u64 get_varint(const u8*& p, const u8* end) {
  u64 v = 0;
  for (u32 shift = 0; shift < 64; shift += 7) {
    if (p == end) throw TraceError("varint chunk payload truncated");
    const u8 byte = *p++;
    v |= static_cast<u64>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) return v;
  }
  throw TraceError("varint value overflows 64 bits");
}

u64 zigzag_encode(u64 delta) {
  const i64 s = static_cast<i64>(delta);
  return (static_cast<u64>(s) << 1) ^ static_cast<u64>(s >> 63);
}

u64 zigzag_decode(u64 z) { return (z >> 1) ^ (~(z & 1) + 1); }

// ---- canonical record image -----------------------------------------------

void put_canonical(u8* out, const TraceRecord& r) {
  put_u64(out, r.inst_gap);
  put_u64(out + 8, r.addr);
  out[16] = r.type == AccessType::kWrite ? 1 : 0;
}

// ---- file helpers ---------------------------------------------------------

[[noreturn]] void throw_io(const std::string& path, const char* what) {
  throw std::ios_base::failure(std::string(what) + ": " + path);
}

[[noreturn]] void throw_bad(const std::string& path, const std::string& what) {
  throw TraceError("bad trace file " + path + ": " + what);
}

bool read_exact(std::FILE* f, u8* buf, std::size_t n) {
  return std::fread(buf, 1, n, f) == n;
}

bool write_exact(std::FILE* f, const u8* buf, std::size_t n) {
  return std::fwrite(buf, 1, n, f) == n;
}

void seek_to(std::FILE* f, const std::string& path, u64 offset) {
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) {
    throw_io(path, "cannot seek in trace file");
  }
}

u64 file_size(std::FILE* f, const std::string& path) {
  if (std::fseek(f, 0, SEEK_END) != 0) throw_io(path, "cannot seek");
  const long size = std::ftell(f);
  if (size < 0) throw_io(path, "cannot tell");
  return static_cast<u64>(size);
}

// ---- chunk codec ----------------------------------------------------------

/// Varint-encodes `records` into `payload`, updating the running
/// stream-CRC state over the canonical images via `canon` scratch.
void encode_chunk(const std::vector<TraceRecord>& records,
                  std::vector<u8>& canon, std::vector<u8>& payload,
                  u32& stream_crc_state) {
  canon.resize(records.size() * kCanonicalRecordBytes);
  for (std::size_t i = 0; i < records.size(); ++i) {
    put_canonical(canon.data() + i * kCanonicalRecordBytes, records[i]);
  }
  stream_crc_state = crc32_update(stream_crc_state, canon.data(),
                                  canon.size());
  payload.clear();
  Addr prev = 0;
  for (const TraceRecord& r : records) {
    if (r.inst_gap >= (1ULL << 63)) {
      throw TraceError("inst_gap too large for the varint codec");
    }
    const u64 w = r.type == AccessType::kWrite ? 1 : 0;
    put_varint(payload, (r.inst_gap << 1) | w);
    put_varint(payload, zigzag_encode(r.addr - prev));
    prev = r.addr;
  }
}

/// Decodes one varint chunk payload into `out` (exactly n_records
/// entries), updating the running stream-CRC state over the canonical
/// images. Throws TraceError on any inconsistency; `out` is only valid on
/// return.
void decode_chunk(const u8* payload, std::size_t payload_bytes, u32 n_records,
                  std::vector<TraceRecord>& out, u32& stream_crc_state) {
  out.clear();
  const u8* p = payload;
  const u8* end = payload + payload_bytes;
  Addr prev = 0;
  u8 image[kCanonicalRecordBytes];
  for (u32 i = 0; i < n_records; ++i) {
    const u64 gw = get_varint(p, end);
    TraceRecord r;
    r.inst_gap = gw >> 1;
    r.type = (gw & 1) != 0 ? AccessType::kWrite : AccessType::kRead;
    r.addr = prev + zigzag_decode(get_varint(p, end));
    prev = r.addr;
    put_canonical(image, r);
    stream_crc_state =
        crc32_update(stream_crc_state, image, kCanonicalRecordBytes);
    out.push_back(r);
  }
  if (p != end) {
    throw TraceError("varint chunk has trailing bytes after its records");
  }
}

// ---- structural walk ------------------------------------------------------

struct WalkResult {
  TraceInfo info;
  u64 footer_stream_crc = 0;
};

/// Shallow structural validation of an open trace file: header, every
/// chunk header (payloads skipped), footer, and their mutual agreement.
/// Leaves the file position unspecified.
WalkResult walk_structure(std::FILE* f, const std::string& path) {
  WalkResult wr;
  TraceInfo& info = wr.info;
  info.file_bytes = file_size(f, path);
  if (info.file_bytes < kHeaderBytes) {
    throw_bad(path, "shorter than a trace header");
  }
  seek_to(f, path, 0);
  u8 hdr[kHeaderBytes];
  if (!read_exact(f, hdr, kHeaderBytes)) throw_io(path, "cannot read header");
  const u64 magic = get_u64(hdr);
  const u32 version = get_u32(hdr + 8);

  if (magic == kMagicV1) {
    throw_bad(path,
              "v1 trace (BBMMTRC1) is no longer read; regenerate it as v2 "
              "(trace_tools --out rebuilds a synthetic trace from the same "
              "--workload, --misses and --seed)");
  }
  if (magic != kMagicV2) throw_bad(path, "not a Bumblebee binary trace");
  if (version != kTraceFormatVersion) {
    throw_bad(path,
              "v2 magic with unsupported version " + std::to_string(version));
  }
  const u32 codec = get_u32(hdr + 12);
  if (codec != kVarintCodec) {
    throw_bad(path, "codec id " + std::to_string(codec) +
                        " is not read (varint, id 1, is the only chunk "
                        "codec); re-capture the trace or re-convert it "
                        "from its source");
  }

  if (info.file_bytes < kHeaderBytes + kFooterBytes) {
    throw_bad(path, "too small to hold a footer (truncated capture?)");
  }
  const u64 footer_off = info.file_bytes - kFooterBytes;
  seek_to(f, path, footer_off);
  u8 foot[kFooterBytes];
  if (!read_exact(f, foot, kFooterBytes)) throw_io(path, "cannot read footer");
  if (get_u32(foot) != kFooterMarker) {
    throw_bad(path, "footer marker missing (truncated capture?)");
  }
  info.records = get_u64(foot + 8);
  info.inst_gap_total = get_u64(foot + 16);
  wr.footer_stream_crc = get_u64(foot + 24);
  if (info.records == 0) throw_bad(path, "empty trace: nothing to replay");

  u64 pos = kHeaderBytes;
  u64 counted = 0;
  seek_to(f, path, pos);
  while (pos < footer_off) {
    if (footer_off - pos < kChunkHeaderBytes) {
      throw_bad(path, "dangling bytes before the footer at offset " +
                          std::to_string(pos));
    }
    u8 ch[kChunkHeaderBytes];
    if (!read_exact(f, ch, kChunkHeaderBytes)) {
      throw_io(path, "cannot read chunk header");
    }
    if (get_u32(ch) != kChunkMarker) {
      throw_bad(path, "chunk marker missing at offset " + std::to_string(pos));
    }
    const u32 n_records = get_u32(ch + 4);
    const u32 payload_bytes = get_u32(ch + 8);
    if (n_records == 0 || n_records > kMaxChunkRecords) {
      throw_bad(path, "implausible chunk record count at offset " +
                          std::to_string(pos));
    }
    if (payload_bytes == 0 || payload_bytes > kMaxChunkPayloadBytes) {
      throw_bad(path, "implausible chunk payload size at offset " +
                          std::to_string(pos));
    }
    pos += kChunkHeaderBytes;
    if (payload_bytes > footer_off - pos) {
      throw_bad(path, "chunk at offset " +
                          std::to_string(pos - kChunkHeaderBytes) +
                          " overruns the footer (truncated final chunk?)");
    }
    pos += payload_bytes;
    seek_to(f, path, pos);
    counted += n_records;
    info.max_chunk_payload = std::max<u64>(info.max_chunk_payload,
                                           payload_bytes);
    info.max_chunk_records = std::max<u64>(info.max_chunk_records, n_records);
    ++info.chunks;
  }
  if (counted != info.records) {
    throw_bad(path, "chunks hold " + std::to_string(counted) +
                        " records but the footer promises " +
                        std::to_string(info.records));
  }
  return wr;
}

}  // namespace

// ---- TraceCaptureSink -----------------------------------------------------

TraceCaptureSink::~TraceCaptureSink() {
  if (is_open()) close();
}

void TraceCaptureSink::open(const std::string& path,
                            const TraceWriterOptions& opts) {
  if (is_open()) throw TraceError("capture sink is already open");
  if (opts.chunk_records == 0 || opts.chunk_records > kMaxChunkRecords) {
    throw TraceError("capture chunk size must be in [1, " +
                     std::to_string(kMaxChunkRecords) + "] records");
  }
  file_.reset(std::fopen(path.c_str(), "wb"));
  if (!file_) throw_io(path, "cannot create trace file");
  path_ = path;
  opts_ = opts;
  buffer_.clear();
  buffer_.reserve(opts_.chunk_records);
  records_ = 0;
  inst_gap_total_ = 0;
  stream_crc_ = crc32_init();
  ok_ = true;

  u8 hdr[kHeaderBytes];
  put_u64(hdr, kMagicV2);
  put_u32(hdr + 8, kTraceFormatVersion);
  put_u32(hdr + 12, kVarintCodec);
  put_u64(hdr + 16, opts_.chunk_records);
  if (!write_exact(file_.get(), hdr, kHeaderBytes)) ok_ = false;
}

void TraceCaptureSink::append(const TraceRecord& rec) {
  if (!is_open() || !ok_) return;
  buffer_.push_back(rec);
  records_ += 1;
  inst_gap_total_ += rec.inst_gap;
  if (buffer_.size() >= opts_.chunk_records) flush_chunk();
}

void TraceCaptureSink::flush_chunk() {
  if (buffer_.empty() || !ok_) return;
  encode_chunk(buffer_, canon_, scratch_, stream_crc_);
  u8 ch[kChunkHeaderBytes];
  put_u32(ch, kChunkMarker);
  put_u32(ch + 4, static_cast<u32>(buffer_.size()));
  put_u32(ch + 8, static_cast<u32>(scratch_.size()));
  put_u32(ch + 12, crc32_of(scratch_.data(), scratch_.size()));
  if (!write_exact(file_.get(), ch, kChunkHeaderBytes) ||
      !write_exact(file_.get(), scratch_.data(), scratch_.size())) {
    ok_ = false;
  }
  buffer_.clear();
}

bool TraceCaptureSink::close() {
  if (!is_open()) return ok_;
  flush_chunk();
  u8 foot[kFooterBytes];
  put_u32(foot, kFooterMarker);
  put_u32(foot + 4, 0);
  put_u64(foot + 8, records_);
  put_u64(foot + 16, inst_gap_total_);
  put_u64(foot + 24, crc32_final(stream_crc_));
  if (!write_exact(file_.get(), foot, kFooterBytes)) ok_ = false;
  if (std::fflush(file_.get()) != 0) ok_ = false;
  file_.reset();
  return ok_;
}

// ---- trace_info -----------------------------------------------------------

TraceInfo trace_info(const std::string& path) {
  struct Closer {
    void operator()(std::FILE* fp) const {
      if (fp != nullptr) std::fclose(fp);
    }
  };
  std::unique_ptr<std::FILE, Closer> f(std::fopen(path.c_str(), "rb"));
  if (!f) throw_io(path, "cannot open trace file");
  return walk_structure(f.get(), path).info;
}

// ---- StreamingTraceReader -------------------------------------------------

StreamingTraceReader::StreamingTraceReader(const std::string& path)
    : path_(path) {
  file_.reset(std::fopen(path.c_str(), "rb"));
  if (!file_) throw_io(path, "cannot open trace file");
  const WalkResult wr = walk_structure(file_.get(), path_);
  info_ = wr.info;
  footer_stream_crc_ = wr.footer_stream_crc;
  payload_.resize(static_cast<std::size_t>(info_.max_chunk_payload));
  decoded_.reserve(static_cast<std::size_t>(info_.max_chunk_records));
  rewind_to_first_chunk();
}

StreamingTraceReader::~StreamingTraceReader() = default;

void StreamingTraceReader::rewind_to_first_chunk() {
  seek_to(file_.get(), path_, kHeaderBytes);
  decoded_.clear();
  cursor_ = 0;
  records_served_this_lap_ = 0;
  stream_crc_ = crc32_init();
}

TraceRecord StreamingTraceReader::next() {
  prof::ScopedPhase phase(prof::Phase::kTraceGen);
  if (cursor_ >= decoded_.size()) load_next_chunk();
  const TraceRecord r = decoded_[cursor_++];
  if (cursor_ >= decoded_.size() &&
      records_served_this_lap_ >= info_.records) {
    // Lap complete. Count it eagerly, while serving the last record, and
    // verify the whole decoded stream against the footer checksum before
    // the record escapes (fail closed).
    if (crc32_final(stream_crc_) != footer_stream_crc_) {
      throw_bad(path_, "stream checksum mismatch (corrupt records?)");
    }
    ++laps_;
    rewind_to_first_chunk();
  }
  return r;
}

void StreamingTraceReader::load_next_chunk() {
  u8 ch[kChunkHeaderBytes];
  if (!read_exact(file_.get(), ch, kChunkHeaderBytes)) {
    throw_io(path_, "cannot read chunk header");
  }
  if (get_u32(ch) != kChunkMarker) {
    throw_bad(path_, "chunk marker missing mid-replay");
  }
  const u32 n_records = get_u32(ch + 4);
  const u32 payload_bytes = get_u32(ch + 8);
  const u32 payload_crc = get_u32(ch + 12);
  if (payload_bytes > payload_.size() ||
      n_records > info_.max_chunk_records) {
    throw_bad(path_, "chunk grew beyond its validated bounds mid-replay");
  }
  // An empty chunk checksums and decodes cleanly but leaves nothing to
  // serve; the structural walk rejects it, so a rewrite put it here.
  if (n_records == 0) throw_bad(path_, "empty chunk mid-replay");
  if (!read_exact(file_.get(), payload_.data(), payload_bytes)) {
    throw_io(path_, "cannot read chunk payload");
  }
  if (crc32_of(payload_.data(), payload_bytes) != payload_crc) {
    throw_bad(path_, "chunk checksum mismatch at record " +
                         std::to_string(records_served_this_lap_));
  }
  decode_chunk(payload_.data(), payload_bytes, n_records, decoded_,
               stream_crc_);
  cursor_ = 0;
  records_served_this_lap_ += n_records;
}

void StreamingTraceReader::serialize(snap::Archive& ar) {
  // Position = completed laps + records already handed out this lap. The
  // decoded_ buffer holds a whole chunk; records_served_this_lap_ counts
  // whole chunks, so subtract the part of the buffer not yet served.
  u64 target_laps = laps_;
  u64 served_in_lap = records_served_this_lap_ - (decoded_.size() - cursor_);
  ar.u64(target_laps);
  ar.u64(served_in_lap);
  if (!ar.loading()) return;
  if (served_in_lap > info_.records) {
    throw snap::SnapshotError("stream cursor past end of trace");
  }
  rewind_to_first_chunk();
  while (records_served_this_lap_ < served_in_lap) load_next_chunk();
  cursor_ = decoded_.size() -
            static_cast<std::size_t>(records_served_this_lap_ - served_in_lap);
  laps_ = target_laps;
}

// ---- whole-trace helpers --------------------------------------------------

TraceInfo validate_trace(const std::string& path) {
  StreamingTraceReader reader(path);
  u64 gaps = 0;
  for (u64 i = 0; i < reader.info().records; ++i) {
    gaps += reader.next().inst_gap;
  }
  // Serving the final record verified the stream checksum and completed
  // the lap; anything else means the chunk walk and the footer disagree
  // about how many records the file really holds.
  if (reader.laps() != 1) {
    throw_bad(path, "reader failed to complete exactly one pass");
  }
  if (gaps != reader.info().inst_gap_total) {
    throw_bad(path, "instruction total " + std::to_string(gaps) +
                        " disagrees with the recorded total " +
                        std::to_string(reader.info().inst_gap_total));
  }
  return reader.info();
}

std::vector<TraceRecord> read_trace(const std::string& path) {
  StreamingTraceReader reader(path);
  std::vector<TraceRecord> out;
  out.reserve(static_cast<std::size_t>(reader.info().records));
  // The final next() completes the lap, which verifies the stream
  // checksum — a corrupt file throws before the records are returned.
  for (u64 i = 0; i < reader.info().records; ++i) out.push_back(reader.next());
  return out;
}

bool save_trace_v2(const std::string& path,
                   const std::vector<TraceRecord>& records,
                   const TraceWriterOptions& opts) {
  TraceCaptureSink sink;
  try {
    sink.open(path, opts);
  } catch (const std::ios_base::failure&) {
    return false;
  }
  for (const TraceRecord& r : records) sink.append(r);
  return sink.close();
}

}  // namespace bb::trace
