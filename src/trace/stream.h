// Streaming binary trace layer: bounded-memory capture and replay.
//
// Format v2 ("BBMMTRC2"), little-endian throughout, written and read
// field-by-field (no struct dumps), so files are portable across hosts:
//
//   header (24 B): u64 magic | u32 version=2 | u32 codec | u64 chunk_records
//   chunk  (16 B + payload): u32 'CHNK' | u32 n_records |
//                            u32 payload_bytes | u32 payload_crc32 | payload
//   footer (32 B): u32 'FOOT' | u32 0 | u64 record_count |
//                  u64 inst_gap_total | u64 stream_crc32
//
// The stream checksum is a CRC32 over the canonical 17-byte record image
// (inst_gap u64 LE, addr u64 LE, is_write u8) of every record in file
// order. Every chunk payload is varint-coded, per record:
// varint(inst_gap << 1 | is_write), then varint(zigzag(addr - prev_addr));
// prev_addr resets to 0 at every chunk boundary so chunks stay
// independently decodable. The header's codec word is always 1 (varint);
// a file with any other codec id is rejected with a TraceError that says
// to re-capture or re-convert it from its source.
//
// Readers hold one chunk at a time: peak memory is bounded by the largest
// chunk in the file, never by trace length. v2 is the only format: a file
// in the retired v1 layout ("BBMMTRC1", host-layout records, no checksums)
// is rejected with a TraceError that says to regenerate it.
//
// Error contract (matches bb::cli): structural violations, corruption and
// empty traces throw TraceError (a std::invalid_argument — exit 2: the
// user supplied a bad trace file); OS-level open/read/write failures throw
// std::ios_base::failure (exit 3). The reader fails closed: a record is
// returned only after its chunk's CRC verified, so corrupt files can never
// leak partial or garbage records into a simulation.
#pragma once

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/generator.h"

namespace bb::trace {

/// Malformed, corrupt or empty trace file (never an OS-level I/O error).
class TraceError : public std::invalid_argument {
 public:
  explicit TraceError(const std::string& what)
      : std::invalid_argument(what) {}
};

struct TraceWriterOptions {
  u32 chunk_records = 4096;  ///< records buffered per chunk
};

/// Buffered chunked writer for format v2 — the capture side of
/// `bbsim --capture-trace`. Records accumulate in a fixed-size buffer;
/// every `chunk_records` appends flush one encoded chunk, and close()
/// seals the file with the footer (record count, one-lap instruction
/// total, stream checksum). I/O errors are sticky: after the first
/// failure appends become no-ops and close() returns false.
class TraceCaptureSink {
 public:
  TraceCaptureSink() = default;
  ~TraceCaptureSink();

  TraceCaptureSink(const TraceCaptureSink&) = delete;
  TraceCaptureSink& operator=(const TraceCaptureSink&) = delete;

  /// Opens `path` for writing and emits the header. Throws TraceError for
  /// an unusable chunk size (zero or above 2^24 records) and
  /// std::ios_base::failure when the file cannot be created.
  void open(const std::string& path,
            const TraceWriterOptions& opts = TraceWriterOptions{});

  void append(const TraceRecord& rec);

  /// Flushes the final partial chunk and writes the footer. Returns false
  /// when any write (now or earlier) failed — the file is then unusable.
  bool close();

  bool is_open() const { return file_ != nullptr; }
  bool ok() const { return ok_; }
  u64 records() const { return records_; }
  const std::string& path() const { return path_; }

 private:
  void flush_chunk();

  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f != nullptr) std::fclose(f);
    }
  };
  std::unique_ptr<std::FILE, FileCloser> file_;
  std::string path_;
  TraceWriterOptions opts_;
  std::vector<TraceRecord> buffer_;
  std::vector<u8> canon_;    ///< canonical-image scratch, reused per chunk
  std::vector<u8> scratch_;  ///< encoded-payload scratch, reused per chunk
  u64 records_ = 0;
  u64 inst_gap_total_ = 0;
  u32 stream_crc_ = 0;
  bool ok_ = true;
};

/// Structural description of a trace file, from a shallow walk of the
/// header, chunk headers and footer (payloads are not decoded).
/// The on-disk format version every file carries (the only one read).
inline constexpr u32 kTraceFormatVersion = 2;

struct TraceInfo {
  u64 records = 0;
  u64 inst_gap_total = 0;  ///< instruction budget for exactly one pass
  u64 chunks = 0;
  u64 file_bytes = 0;
  u64 max_chunk_payload = 0;  ///< read-buffer high-water mark, bytes
  u64 max_chunk_records = 0;  ///< decoded-buffer high-water mark, records
};

/// Walks and structurally validates `path` (markers, sizes, chunk/footer
/// record-count agreement). Throws TraceError / std::ios_base::failure.
TraceInfo trace_info(const std::string& path);

/// Bounded-memory trace replay behind the TraceSource interface: holds
/// exactly one decoded chunk regardless of trace length, and loops to the
/// first record at end-of-trace (laps() counts completed passes and is
/// bumped while serving a pass's last record). Construction walks the file
/// structure up front, so a truncated or empty file fails before any
/// record is served; per-chunk CRCs are verified as chunks load and the
/// footer's stream checksum and record count at every lap boundary.
class StreamingTraceReader : public TraceSource {
 public:
  explicit StreamingTraceReader(const std::string& path);
  ~StreamingTraceReader() override;

  StreamingTraceReader(const StreamingTraceReader&) = delete;
  StreamingTraceReader& operator=(const StreamingTraceReader&) = delete;

  TraceRecord next() override;

  const TraceInfo& info() const { return info_; }
  u64 laps() const { return laps_; }

  /// Snapshot/restore of the replay position (lap count + records served
  /// within the current lap). Restoring re-decodes at most one lap's worth
  /// of chunks from the file start, rebuilding the running stream checksum
  /// along the way, so checksum verification at the next lap boundary
  /// still covers every record.
  void serialize(snap::Archive& ar) override;

 private:
  void rewind_to_first_chunk();
  void load_next_chunk();

  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f != nullptr) std::fclose(f);
    }
  };
  std::unique_ptr<std::FILE, FileCloser> file_;
  std::string path_;
  TraceInfo info_;
  u64 footer_stream_crc_ = 0;

  std::vector<TraceRecord> decoded_;  ///< current chunk, capacity fixed
  std::size_t cursor_ = 0;            ///< next record within decoded_
  std::vector<u8> payload_;           ///< encoded-chunk buffer, size fixed
  u64 records_served_this_lap_ = 0;
  u32 stream_crc_ = 0;                ///< running CRC of served records
  u64 laps_ = 0;
};

/// Deep validation: decodes every chunk, verifying per-chunk CRCs, the
/// stream checksum, the instruction total and the footer record count.
/// Returns the file's TraceInfo; throws TraceError with a diagnostic that
/// names the failing offset/chunk otherwise.
TraceInfo validate_trace(const std::string& path);

/// Reads an entire trace into memory, for tools that inspect a whole
/// stream (trace_tools --in). Throws like StreamingTraceReader.
std::vector<TraceRecord> read_trace(const std::string& path);

/// Convenience one-shot v2 writer (capture of an in-memory record set).
/// Returns false on I/O failure; throws TraceError for unusable options.
bool save_trace_v2(const std::string& path,
                   const std::vector<TraceRecord>& records,
                   const TraceWriterOptions& opts = TraceWriterOptions{});

}  // namespace bb::trace
