// Structured event trace: discrete simulation events keyed to the
// simulated tick (never wall clock — tools/lint_determinism enforces
// this), serializable as JSONL or as the Chrome trace_event format that
// Perfetto / about:tracing load directly.
//
// Emitters build TraceEvents only when a sink is attached, so the layer
// costs a single pointer test per potential event when tracing is off.
// The sink, MemoryTraceSink, buffers events so a harness can serialize
// them later in a deterministic order (the experiment runner commits
// per-run buffers in matrix order, keeping trace files byte-identical
// across --jobs values).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"

namespace bb::snap {
class Archive;
}  // namespace bb::snap

namespace bb {

/// One discrete simulation event at a simulated tick.
struct TraceEvent {
  Tick tick = 0;
  std::string name;  ///< event type, e.g. "remap_ratio_transition"
  std::string cat;   ///< subsystem, e.g. "bumblebee", "paging", "sim"

  /// Typed key-value payload, serialized in insertion order.
  struct Arg {
    enum class Kind : u8 { kU64, kI64, kDouble, kString };
    std::string key;
    Kind kind = Kind::kU64;
    u64 u = 0;
    i64 i = 0;
    double d = 0.0;
    std::string s;
  };
  std::vector<Arg> args;

  TraceEvent() = default;
  TraceEvent(Tick t, std::string event_name, std::string category)
      : tick(t), name(std::move(event_name)), cat(std::move(category)) {}

  // Builder-style argument append; the overload set keeps integral /
  // floating-point promotions unambiguous at the call sites.
  TraceEvent& arg(std::string key, u64 v);
  TraceEvent& arg(std::string key, u32 v) { return arg(std::move(key), u64{v}); }
  TraceEvent& arg(std::string key, i64 v);
  TraceEvent& arg(std::string key, int v) { return arg(std::move(key), i64{v}); }
  TraceEvent& arg(std::string key, double v);
  TraceEvent& arg(std::string key, std::string v);
  TraceEvent& arg(std::string key, const char* v) {
    return arg(std::move(key), std::string(v));
  }
};

/// Serializes one event as a single-line JSON object (no trailing newline).
/// `extra` is a pre-rendered fragment of additional top-level members
/// (e.g. "\"design\":\"Bumblebee\",") spliced in verbatim; pass "" for none.
std::string trace_event_to_json(const TraceEvent& ev,
                                const std::string& extra = {});

/// Destination for emitted events: buffers them in memory (deterministic
/// replay/serialization later).
class MemoryTraceSink {
 public:
  void emit(TraceEvent ev) { events_.push_back(std::move(ev)); }
  const std::vector<TraceEvent>& events() const { return events_; }
  std::vector<TraceEvent> take() { return std::move(events_); }

  /// Snapshot/restore of the buffered events (all fields, insertion order).
  void serialize(snap::Archive& ar);

 private:
  std::vector<TraceEvent> events_;
};

/// Writes events as JSONL, one object per line. `extra` as above (applied
/// to every line).
void write_trace_jsonl(const std::vector<TraceEvent>& events,
                       std::ostream& os, const std::string& extra = {});

/// Writes events in Chrome trace_event format (a {"traceEvents":[...]}
/// object of instant events, ts in microseconds), loadable in Perfetto and
/// chrome://tracing. `pid` groups events into a named process track
/// (`process_name` emits the metadata record when non-empty).
void write_trace_chrome_events(const std::vector<TraceEvent>& events,
                               std::ostream& os, u64 pid,
                               const std::string& process_name,
                               bool& first_record);
void write_trace_chrome_header(std::ostream& os);
void write_trace_chrome_footer(std::ostream& os);

}  // namespace bb
