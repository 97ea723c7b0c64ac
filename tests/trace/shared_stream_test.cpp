// SharedStream: every cursor yields exactly the private generator's
// records, whatever the readers' interleaving, and chunks are freed as
// soon as the last reader that needs them is past them.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/core_model.h"
#include "trace/generator.h"
#include "trace/shared_stream.h"
#include "trace/workload.h"

namespace bb::trace {
namespace {

constexpr u64 kChunk = SharedStream::kChunkRecords;

bool same(const TraceRecord& a, const TraceRecord& b) {
  return a.inst_gap == b.inst_gap && a.addr == b.addr && a.type == b.type;
}

TEST(SharedStream, EveryProfileMatchesPrivateGeneratorsUnderConcurrentReaders) {
  // Four readers per stream, on four threads, each reading a different
  // length at a different pace, so the lead (and with it generation)
  // passes between them and some finish mid-chunk while others go on.
  constexpr u32 kReaders = 4;
  constexpr u64 kLongest = 3 * kChunk + 123;
  for (const WorkloadProfile& profile : WorkloadProfile::spec2017()) {
    for (const sim::CoreLane& lane :
         sim::CoreModel::homogeneous_lanes(profile, 42, 4)) {
      SCOPED_TRACE(profile.name + " seed " + std::to_string(lane.seed));
      const std::vector<TraceRecord> want =
          TraceGenerator(profile, lane.seed).take(kLongest);
      SharedStream stream(profile, lane.seed, kReaders);
      std::vector<u64> mismatches(kReaders, 0);
      std::vector<std::thread> threads;
      for (u32 r = 0; r < kReaders; ++r) {
        threads.emplace_back([&, r] {
          const std::unique_ptr<SharedStream::Cursor> cur = stream.open();
          const u64 n = kLongest - r * 2900;
          for (u64 i = 0; i < n; ++i) {
            if (!same(cur->next(), want[i])) ++mismatches[r];
            if (i % (97 * (r + 1)) == 0) std::this_thread::yield();
          }
        });
      }
      for (std::thread& t : threads) t.join();
      for (u32 r = 0; r < kReaders; ++r) EXPECT_EQ(mismatches[r], 0u) << r;
    }
  }
  EXPECT_EQ(SharedStream::live_chunks(), 0u);
}

TEST(SharedStream, FreesEachChunkOnceEveryReaderHasPassedIt) {
  const WorkloadProfile& mcf = WorkloadProfile::by_name("mcf");
  ASSERT_EQ(SharedStream::live_chunks(), 0u);
  {
    SharedStream stream(mcf, 7, 3);
    auto a = stream.open();
    auto b = stream.open();
    for (u64 i = 0; i < 2 * kChunk + 5; ++i) a->next();
    EXPECT_EQ(SharedStream::live_chunks(), 3u);  // chunks 0, 1, 2
    for (u64 i = 0; i < kChunk + 1; ++i) b->next();
    // b is past chunk 0, but the third reader has not started.
    EXPECT_EQ(SharedStream::live_chunks(), 3u);
    // The third reader finishes without reading: chunk 0 goes.
    stream.open().reset();
    EXPECT_EQ(SharedStream::live_chunks(), 2u);
    EXPECT_THROW(stream.open(), std::logic_error);
    a.reset();  // b still needs chunks 1 and 2
    EXPECT_EQ(SharedStream::live_chunks(), 2u);
    b.reset();  // the last reader: nothing is left
    EXPECT_EQ(SharedStream::live_chunks(), 0u);
  }
  EXPECT_EQ(SharedStream::live_chunks(), 0u);
}

TEST(SharedStream, UnopenedReadersHoldChunksUntilTheStreamGoes) {
  // A cancelled matrix never opens some readers' cursors: their chunks
  // stay until the stream itself is destroyed.
  const WorkloadProfile& mcf = WorkloadProfile::by_name("mcf");
  {
    SharedStream stream(mcf, 7, 2);
    auto a = stream.open();
    for (u64 i = 0; i < 2 * kChunk; ++i) a->next();
    a.reset();
    EXPECT_EQ(SharedStream::live_chunks(), 2u);
  }
  EXPECT_EQ(SharedStream::live_chunks(), 0u);
}

}  // namespace
}  // namespace bb::trace
