#include "common/trace_event.h"

#include <ostream>

#include "common/json.h"
#include "common/snapshot.h"

namespace bb {

TraceEvent& TraceEvent::arg(std::string key, u64 v) {
  Arg a;
  a.key = std::move(key);
  a.kind = Arg::Kind::kU64;
  a.u = v;
  args.push_back(std::move(a));
  return *this;
}

TraceEvent& TraceEvent::arg(std::string key, i64 v) {
  Arg a;
  a.key = std::move(key);
  a.kind = Arg::Kind::kI64;
  a.i = v;
  args.push_back(std::move(a));
  return *this;
}

TraceEvent& TraceEvent::arg(std::string key, double v) {
  Arg a;
  a.key = std::move(key);
  a.kind = Arg::Kind::kDouble;
  a.d = v;
  args.push_back(std::move(a));
  return *this;
}

TraceEvent& TraceEvent::arg(std::string key, std::string v) {
  Arg a;
  a.key = std::move(key);
  a.kind = Arg::Kind::kString;
  a.s = std::move(v);
  args.push_back(std::move(a));
  return *this;
}

namespace {

void append_arg_value(std::string& out, const TraceEvent::Arg& a) {
  switch (a.kind) {
    case TraceEvent::Arg::Kind::kU64: out += std::to_string(a.u); break;
    case TraceEvent::Arg::Kind::kI64: out += std::to_string(a.i); break;
    case TraceEvent::Arg::Kind::kDouble: out += json_double(a.d); break;
    case TraceEvent::Arg::Kind::kString:
      out += '"';
      out += json_escape(a.s);
      out += '"';
      break;
  }
}

void append_args_object(std::string& out, const TraceEvent& ev) {
  out += '{';
  for (std::size_t i = 0; i < ev.args.size(); ++i) {
    if (i) out += ',';
    out += '"';
    out += json_escape(ev.args[i].key);
    out += "\":";
    append_arg_value(out, ev.args[i]);
  }
  out += '}';
}

}  // namespace

std::string trace_event_to_json(const TraceEvent& ev,
                                const std::string& extra) {
  std::string out = "{";
  out += extra;
  out += "\"tick\":";
  out += std::to_string(ev.tick);
  out += ",\"name\":\"";
  out += json_escape(ev.name);
  out += "\",\"cat\":\"";
  out += json_escape(ev.cat);
  out += "\",\"args\":";
  append_args_object(out, ev);
  out += '}';
  return out;
}

void write_trace_jsonl(const std::vector<TraceEvent>& events,
                       std::ostream& os, const std::string& extra) {
  for (const auto& ev : events) {
    os << trace_event_to_json(ev, extra) << '\n';
  }
}

void write_trace_chrome_header(std::ostream& os) {
  os << "{\"traceEvents\":[\n";
}

void write_trace_chrome_footer(std::ostream& os) {
  os << "\n]}\n";
}

void write_trace_chrome_events(const std::vector<TraceEvent>& events,
                               std::ostream& os, u64 pid,
                               const std::string& process_name,
                               bool& first_record) {
  const auto sep = [&]() -> const char* {
    if (first_record) {
      first_record = false;
      return "";
    }
    return ",\n";
  };
  if (!process_name.empty()) {
    os << sep() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(process_name)
       << "\"}}";
  }
  for (const auto& ev : events) {
    // Chrome's ts unit is microseconds; the tick is one picosecond.
    std::string line = "{\"name\":\"";
    line += json_escape(ev.name);
    line += "\",\"cat\":\"";
    line += json_escape(ev.cat);
    line += "\",\"ph\":\"i\",\"s\":\"p\",\"ts\":";
    line += json_double(static_cast<double>(ev.tick) * 1e-6);
    line += ",\"pid\":";
    line += std::to_string(pid);
    line += ",\"tid\":0,\"args\":";
    append_args_object(line, ev);
    line += '}';
    os << sep() << line;
  }
}

void MemoryTraceSink::serialize(snap::Archive& ar) {
  ar.count(events_);
  for (TraceEvent& ev : events_) {
    ar.u64(ev.tick);
    ar.str(ev.name);
    ar.str(ev.cat);
    ar.count(ev.args);
    for (TraceEvent::Arg& a : ev.args) {
      ar.str(a.key);
      ar.enumeration(a.kind, TraceEvent::Arg::Kind::kString);
      ar.u64(a.u);
      ar.i64(a.i);
      ar.f64(a.d);
      ar.str(a.s);
    }
  }
}

}  // namespace bb
