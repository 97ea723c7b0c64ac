#include "trace/shared_stream.h"

#include <stdexcept>

#include "common/check.h"
#include "common/prof.h"
#include "common/snapshot.h"

namespace bb::trace {
namespace {

std::atomic<u64> g_live_chunks{0};

}  // namespace

SharedStream::SharedStream(const WorkloadProfile& profile, u64 seed,
                           u32 readers)
    : profile_(profile), seed_(seed), readers_(readers),
      unfinished_(readers) {}

SharedStream::~SharedStream() {
  // Readers that never opened a cursor hold every chunk, so none was
  // freed and the list is whole from the head.
  if (unfinished_ == 0) return;
  for (Chunk* c = head_.load(std::memory_order_relaxed); c != nullptr;) {
    Chunk* n = c->next.load(std::memory_order_relaxed);
    delete c;
    g_live_chunks.fetch_sub(1, std::memory_order_relaxed);
    c = n;
  }
}

std::unique_ptr<SharedStream::Cursor> SharedStream::open() {
  std::lock_guard<std::mutex> lk(mu_);
  if (opened_ == readers_) {
    throw std::logic_error("shared stream opened by more readers than it has");
  }
  ++opened_;
  return std::unique_ptr<Cursor>(new Cursor(*this));
}

u64 SharedStream::live_chunks() {
  return g_live_chunks.load(std::memory_order_relaxed);
}

SharedStream::Chunk* SharedStream::extend(std::atomic<Chunk*>& link) {
  std::lock_guard<std::mutex> lk(mu_);
  // Another reader may have published it while this one waited.
  if (Chunk* c = link.load(std::memory_order_relaxed)) return c;
  if (!gen_) gen_ = std::make_unique<TraceGenerator>(profile_, seed_);
  auto* c = new Chunk;
  // Every reader not yet finished will pass this chunk, including those
  // that have not opened their cursor yet.
  c->pending.store(unfinished_, std::memory_order_relaxed);
  for (Packed& p : c->recs) {
    const TraceRecord r = gen_->draw();
    BB_CHECK((r.addr & 1) == 0, "generated address is not 64 B aligned");
    p = {r.inst_gap, r.addr | (r.type == AccessType::kWrite ? 1 : 0)};
  }
  g_live_chunks.fetch_add(1, std::memory_order_relaxed);
  link.store(c, std::memory_order_release);
  return c;
}

void SharedStream::release(Chunk* c) {
  if (c->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete c;
    g_live_chunks.fetch_sub(1, std::memory_order_relaxed);
  }
}

void SharedStream::finish(Chunk* from) {
  std::lock_guard<std::mutex> lk(mu_);
  // This reader holds `from` (or, when it never read, the head: loaded
  // under the lock, so no chunk can be published unseen) and every later
  // chunk, so all of them are alive; nothing is published meanwhile,
  // because publication needs the lock. Read each link before the release
  // that may free its chunk.
  if (from == nullptr) from = head_.load(std::memory_order_relaxed);
  for (Chunk* c = from; c != nullptr;) {
    Chunk* n = c->next.load(std::memory_order_relaxed);
    release(c);
    c = n;
  }
  if (--unfinished_ == 0) gen_.reset();
}

SharedStream::Cursor::~Cursor() {
  // Bill the records served from the last chunk (see advance()).
  const prof::ScopedPhase phase(prof::Phase::kTraceGen,
                                chunk_ != nullptr ? i_ : 0);
  stream_->finish(chunk_);
}

void SharedStream::Cursor::advance() {
  // One span per chunk: it bills every record served from the chunk just
  // passed, and the generation of the next one when this reader leads.
  const prof::ScopedPhase phase(prof::Phase::kTraceGen,
                                chunk_ != nullptr ? kChunkRecords : 0);
  Chunk* n = link_->load(std::memory_order_acquire);
  if (n == nullptr) n = stream_->extend(*link_);
  if (chunk_ != nullptr) release(chunk_);
  chunk_ = n;
  link_ = &n->next;
  i_ = 0;
  ++chunks_entered_;
}

void SharedStream::Cursor::serialize(snap::Archive& ar) {
  const u64 at =
      chunks_entered_ == 0 ? 0 : (chunks_entered_ - 1) * kChunkRecords + i_;
  u64 stored = at;
  ar.u64(stored);
  if (stored != at) {
    throw snap::SnapshotError(
        "a shared-stream cursor cannot seek to another record");
  }
}

}  // namespace bb::trace
