// bb::prof implementation — the single sanctioned wall-clock site in the
// tree (tools/bb_analyze `prof-isolation` rule). All chrono usage lives
// here; the header exposes only integer nanoseconds.
#include "common/prof.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/json.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace bb::prof {

namespace {

/// Per-thread accumulator. Owned by the global registry (so ASan sees the
/// slots as reachable, not leaked) and pointed at by a thread_local; only
/// the owning thread writes `totals` on the hot path, so reads from
/// aggregate() must happen after workers have quiesced (pool joined).
struct Slot {
  PhaseTotals totals;
  Phase current = Phase::kNone;
  u64 phase_start_ns = 0;
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<Slot>>& registry() {
  static std::vector<std::unique_ptr<Slot>> r;
  return r;
}

Slot& local_slot() {
  thread_local Slot* slot = [] {
    auto owned = std::make_unique<Slot>();
    Slot* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    registry().push_back(std::move(owned));
    return raw;
  }();
  return *slot;
}

/// Flushes time since `slot.phase_start_ns` into the phase the thread is
/// currently in, then stamps `now` as the new phase start.
void flush(Slot& slot, u64 now) {
  if (slot.current != Phase::kNone) {
    const auto idx = static_cast<std::size_t>(slot.current);
    slot.totals.ns[idx] += now - slot.phase_start_ns;
  }
  slot.phase_start_ns = now;
}

/// The phase breakdown as a single-line JSON object:
/// {"trace_gen":{"seconds":..,"calls":..}, ...}.
std::string phases_to_json(const PhaseTotals& t) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    if (i) os << ", ";
    os << "\"" << to_string(static_cast<Phase>(i)) << "\": {\"seconds\": "
       << json_double(static_cast<double>(t.ns[i]) * 1e-9)
       << ", \"calls\": " << t.calls[i] << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace

const char* to_string(Phase p) {
  switch (p) {
    case Phase::kTraceGen:
      return "trace_gen";
    case Phase::kHmmAccess:
      return "hmm_access";
    case Phase::kDeviceTiming:
      return "device_timing";
    case Phase::kStatsCommit:
      return "stats_commit";
    case Phase::kIo:
      return "io";
    case Phase::kNone:
      break;
  }
  return "none";
}

void PhaseTotals::merge(const PhaseTotals& o) {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    ns[i] += o.ns[i];
    calls[i] += o.calls[i];
  }
}

u64 PhaseTotals::total_ns() const {
  u64 sum = 0;
  for (std::size_t i = 0; i < kPhaseCount; ++i) sum += ns[i];
  return sum;
}

namespace detail {

std::atomic<bool> g_enabled{false};

Phase enter(Phase p, u64 calls) {
  Slot& slot = local_slot();
  flush(slot, monotonic_ns());
  const Phase prev = slot.current;
  slot.current = p;
  if (p != Phase::kNone) {
    slot.totals.calls[static_cast<std::size_t>(p)] += calls;
  }
  return prev;
}

void leave(Phase prev) {
  Slot& slot = local_slot();
  flush(slot, monotonic_ns());
  slot.current = prev;
}

}  // namespace detail

void enable(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

void reset() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (auto& slot : registry()) {
    slot->totals = PhaseTotals{};
    slot->current = Phase::kNone;
    slot->phase_start_ns = 0;
  }
}

PhaseTotals aggregate() {
  PhaseTotals out;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& slot : registry()) out.merge(slot->totals);
  return out;
}

std::vector<u64> worker_busy_ns() {
  std::vector<u64> out;
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    for (const auto& slot : registry()) {
      const u64 busy = slot->totals.total_ns();
      if (busy > 0) out.push_back(busy);
    }
  }
  std::sort(out.begin(), out.end(), std::greater<u64>());
  return out;
}

u64 monotonic_ns() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

u64 peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<u64>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<u64>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

double Stopwatch::seconds() const {
  return static_cast<double>(monotonic_ns() - start_ns_) * 1e-9;
}

HostReport make_host_report(double wall_seconds, u64 requests) {
  HostReport r;
  r.wall_seconds = wall_seconds;
  r.requests = requests;
  r.requests_per_sec =
      wall_seconds > 0 ? static_cast<double>(requests) / wall_seconds : 0.0;
  r.peak_rss_bytes = peak_rss_bytes();
  r.phases = aggregate();
  r.worker_busy_ns_by_thread = worker_busy_ns();
  return r;
}

std::string host_report_to_json(const HostReport& r) {
  std::ostringstream os;
  os << "{\"schema_version\": 1"
     << ", \"wall_seconds\": " << json_double(r.wall_seconds)
     << ", \"requests\": " << r.requests
     << ", \"requests_per_sec\": " << json_double(r.requests_per_sec)
     << ", \"peak_rss_bytes\": " << r.peak_rss_bytes
     << ", \"phases\": " << phases_to_json(r.phases)
     << ", \"worker_busy_seconds\": [";
  for (std::size_t i = 0; i < r.worker_busy_ns_by_thread.size(); ++i) {
    if (i) os << ", ";
    os << json_double(static_cast<double>(r.worker_busy_ns_by_thread[i]) *
                      1e-9);
  }
  os << "]}";
  return os.str();
}

}  // namespace bb::prof
