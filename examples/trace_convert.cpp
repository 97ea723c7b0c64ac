// trace_convert: ingest foreign text traces into the native v2 binary
// format, and inspect / validate existing binary traces.
//
//   ./trace_convert --in=packets.txt --format=gem5 --out=packets.bbtrace
//   ./trace_convert --in=dram.trace --format=ramulator --out=dram.bbtrace
//   ./trace_convert --in=misses.csv --format=csv --out=misses.bbtrace
//   ./trace_convert --info=misses.bbtrace
//   ./trace_convert --verify=misses.bbtrace
//
// Formats and per-line grammars are documented in src/trace/convert.h;
// the v2 binary layout in src/trace/stream.h. Exit codes follow the
// shared CLI contract: 2 for malformed input (parse errors name the
// 1-based line), 3 for I/O failures.
#include <iostream>
#include <stdexcept>

#include "common/cli.h"
#include "common/flags.h"
#include "trace/convert.h"
#include "trace/stream.h"

using namespace bb;

namespace {

void print_info(const trace::TraceInfo& info, const std::string& path) {
  std::cout << path << ": v" << trace::kTraceFormatVersion << " varint, "
            << info.records
            << " records, " << info.inst_gap_total << " instructions/pass, "
            << info.chunks << " chunks, " << info.file_bytes << " bytes"
            << " (max chunk: " << info.max_chunk_records << " records, "
            << info.max_chunk_payload << " B payload)\n";
}

int run(const Flags& flags) {
  if (flags.has("help")) {
    std::cout <<
        "usage: trace_convert --in=FILE --format=gem5|ramulator|csv\n"
        "                     --out=FILE  (v2 binary trace)\n"
        "                     [--ticks-per-inst=T]  (gem5 tick scaling;\n"
        "                      default 1000 = 1 GHz core at 1 IPC over\n"
        "                      1 ps ticks)\n"
        "                     [--gap=N]  (ramulator DRAM-trace inst gap;\n"
        "                      default 1)\n"
        "                     [--no-align]  (keep raw addresses instead of\n"
        "                      64 B line alignment)\n"
        "       trace_convert --info=FILE    (structural walk, no decode)\n"
        "       trace_convert --verify=FILE  (decode every chunk, check\n"
        "                      all checksums and counts)\n"
        "exit codes: 0 ok, 2 malformed input, 3 I/O error\n";
    return 0;
  }

  if (flags.has("info")) {
    const std::string path = flags.get_string("info", "");
    print_info(trace::trace_info(path), path);
    return 0;
  }
  if (flags.has("verify")) {
    const std::string path = flags.get_string("verify", "");
    const auto info = trace::validate_trace(path);
    print_info(info, path);
    std::cout << "ok: all chunk checksums, the stream checksum and the "
                 "record count verified\n";
    return 0;
  }

  const std::string in = flags.get_string("in", "");
  const std::string out = flags.get_string("out", "");
  if (in.empty() || out.empty()) {
    throw std::invalid_argument("--in and --out are required (see --help)");
  }

  trace::ConvertOptions opts;
  opts.format = trace::parse_format(flags.get_string("format", "csv"));
  opts.ticks_per_inst = flags.get_double("ticks-per-inst", 1000.0);
  opts.default_gap = flags.get_u64("gap", 1);
  opts.align_lines = !flags.has("no-align");
  if (opts.ticks_per_inst <= 0) {
    throw std::invalid_argument("--ticks-per-inst must be positive");
  }

  const auto stats = trace::convert_file(in, out, opts);
  std::cout << "converted " << stats.lines << " "
            << trace::format_name(opts.format) << " lines to "
            << stats.records << " records (" << stats.reads << " reads, "
            << stats.writes << " writes): " << out << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli::cli_main(argc, argv, "trace_convert",
                       {"format", "gap", "help", "in", "info", "no-align", "out",
                        "ticks-per-inst", "verify"},
                       run);
}
