// Binary trace persistence: record real or synthetic miss streams once and
// replay them across designs or tool versions. The format is a fixed
// little-endian header (magic, version, record count) followed by packed
// records, so traces are portable and mmap-friendly.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "trace/generator.h"

namespace bb::trace {

/// Writes `records` to `path`. Returns false on I/O failure.
bool save_trace(const std::string& path,
                const std::vector<TraceRecord>& records);

/// Reads a trace written by save_trace. Returns an empty vector on failure
/// or an empty file; sets `*ok` (if given) accordingly.
std::vector<TraceRecord> load_trace(const std::string& path,
                                    bool* ok = nullptr);

/// Replays a loaded trace as a generator; loops when it reaches the end
/// (so arbitrarily long simulations can run on finite traces). Empty
/// traces are rejected at construction: fabricating records for them
/// would silently simulate traffic that was never recorded (the cli_main
/// contract maps the throw to exit code 2).
class TraceReplayer : public TraceSource {
 public:
  explicit TraceReplayer(std::vector<TraceRecord> records)
      : records_(std::move(records)) {
    if (records_.empty()) {
      throw std::invalid_argument("empty trace: nothing to replay");
    }
  }

  TraceRecord next() override {
    const TraceRecord r = records_[cursor_];
    cursor_ = (cursor_ + 1) % records_.size();
    if (cursor_ == 0) ++laps_;
    return r;
  }

  std::size_t size() const { return records_.size(); }
  u64 laps() const { return laps_; }

  /// Snapshot/restore of the replay position.
  bool cursor_supported() const override { return true; }
  void serialize(snap::Archive& ar) override;

 private:
  std::vector<TraceRecord> records_;
  std::size_t cursor_ = 0;
  u64 laps_ = 0;
};

}  // namespace bb::trace
