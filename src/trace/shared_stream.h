// One synthetic miss stream, generated once and read by many cells.
//
// A matrix runs every design against the same workloads, and each lane's
// miss stream is a pure function of (profile, lane seed). SharedStream
// generates such a stream once, on demand, into immutable chunks of
// kChunkRecords records. Every reader (one per matrix cell of the
// workload) gets its own Cursor, a TraceSource that yields exactly the
// records a private TraceGenerator(profile, seed) would.
//
// Concurrency: the chunks form a singly linked list. A reader that runs
// off the published end extends it under the stream's lock (the generator
// is not thread-safe) and publishes the new chunk with a release store.
// Readers follow links with acquire loads and take no lock on the way to
// a chunk that is already published.
//
// Memory: the stream is told its reader count up front. Each chunk counts
// the readers that have not passed it yet, and the last one to pass frees
// it. A cursor that is destroyed, whether or not it read anything,
// releases every chunk it had not reached. So a chunk lives until the
// slowest reader of its workload is past it, and the generator is freed
// with the last reader.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>

#include "common/types.h"
#include "trace/generator.h"
#include "trace/workload.h"

namespace bb::trace {

class SharedStream {
 public:
  /// Records per chunk: 64 KiB of packed 16 B records.
  static constexpr u32 kChunkRecords = 4096;

 private:
  /// One record in 16 B: the address with bit 0 set for a write (every
  /// generated address is 64 B aligned, so bit 0 is free).
  struct Packed {
    u64 inst_gap;
    u64 addr_write;
  };

  struct Chunk {
    /// Readers that have not passed this chunk; the last one frees it.
    std::atomic<u32> pending{0};
    std::atomic<Chunk*> next{nullptr};
    std::array<Packed, kChunkRecords> recs;
  };

 public:
  /// A stream read by exactly `readers` cursors (see open()).
  SharedStream(const WorkloadProfile& profile, u64 seed, u32 readers);
  /// Frees what is left: chunks still held for readers that never opened
  /// a cursor (a cancelled matrix). Every cursor must be gone by now.
  ~SharedStream();
  SharedStream(const SharedStream&) = delete;
  SharedStream& operator=(const SharedStream&) = delete;

  /// One reader's position in the stream.
  class Cursor final : public TraceSource {
   public:
    ~Cursor() override;
    Cursor(const Cursor&) = delete;
    Cursor& operator=(const Cursor&) = delete;

    /// The next record. Bills trace-gen once per chunk, for the chunk's
    /// records, instead of once per record.
    TraceRecord next() override {
      if (i_ == kChunkRecords) advance();
      const Packed& p = chunk_->recs[i_++];
      return {p.inst_gap, p.addr_write & ~u64{1},
              (p.addr_write & 1) != 0 ? AccessType::kWrite
                                      : AccessType::kRead};
    }

    /// Saves the record index. A cursor cannot seek (the chunks behind it
    /// may be freed), so loading any other index fails closed; runs that
    /// snapshot use a private TraceGenerator instead.
    void serialize(snap::Archive& ar) override;

   private:
    friend class SharedStream;
    explicit Cursor(SharedStream& stream) : stream_(&stream) {}
    /// Moves to the next chunk, generating it if no reader has yet.
    void advance();

    SharedStream* stream_;
    /// Where the next chunk is published: the stream's head, then the
    /// current chunk's `next`.
    std::atomic<Chunk*>* link_ = &stream_->head_;
    Chunk* chunk_ = nullptr;  ///< held (counted in pending) until passed
    u32 i_ = kChunkRecords;   ///< next record within chunk_
    u64 chunks_entered_ = 0;
  };

  /// Opens one of the `readers` cursors, at record 0. Throws
  /// std::logic_error past the reader count.
  std::unique_ptr<Cursor> open();

  /// Chunks allocated and not yet freed, over every stream in the process.
  static u64 live_chunks();

 private:
  /// Returns the chunk behind `link`, generating and publishing it first
  /// when no reader has.
  Chunk* extend(std::atomic<Chunk*>& link);
  /// Drops one reader's hold on `c`, freeing it on the last.
  static void release(Chunk* c);
  /// A reader is done: releases `from` (its current chunk; nullptr when
  /// it never read, meaning the head) and every chunk after it.
  void finish(Chunk* from);

  const WorkloadProfile profile_;
  const u64 seed_;
  const u32 readers_;
  /// Link to the first chunk. It dangles once every reader has passed
  /// that chunk, but is then never read again.
  std::atomic<Chunk*> head_{nullptr};
  std::mutex mu_;  ///< guards the members below and every publication
  std::unique_ptr<TraceGenerator> gen_;  ///< built on the first fill
  u32 opened_ = 0;
  u32 unfinished_;  ///< readers whose cursor is not yet destroyed
};

}  // namespace bb::trace
