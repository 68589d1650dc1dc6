// Slab buffer pool: the C++ analog of Ensemble's custom message allocator.
//
// Chunks of a fixed size class are recycled through a freelist instead of
// round-tripping through the general-purpose allocator for every message
// (paper §4, optimization 1: "The Ensemble distribution now has its own
// message allocator ... Ensemble is itself responsible for freeing
// messages").  Allocation counters feed the ablation bench.

#ifndef ENSEMBLE_SRC_UTIL_POOL_H_
#define ENSEMBLE_SRC_UTIL_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/counters.h"

namespace ensemble {

// RelaxedCounter fields: the pool itself is single-threaded, but live
// metrics snapshots read these from other threads.
struct PoolStats {
  RelaxedCounter allocations = 0;   // Chunks handed out.
  RelaxedCounter fresh_chunks = 0;  // Chunks that had to come from the heap.
  RelaxedCounter recycled = 0;      // Chunks served from the freelist.
  RelaxedCounter returned = 0;      // Chunks released back to the pool.
  // Bytes currently held by live (handed-out, not yet recycled) chunks, at
  // chunk granularity, and the high-water mark.  Freelist chunks are not
  // live; oversized requests fall to the heap and show up in HeapBufferStats
  // instead.  The overload manager's pool watermark reads `bytes.live()`.
  LiveCounter bytes;
};

// Fixed-size-class chunk pool.  Not thread-safe: Ensemble stacks are
// single-threaded by design (the paper: per-layer threads cost too much in
// context switches), so each stack owns its pool.  The sharded runtime keeps
// this true per shard — a pooled slice must drop its last reference on its
// owning shard's thread; payloads that cross shards are copied first.
class BufferPool {
 public:
  // `chunk_size` is the payload capacity of every chunk.
  explicit BufferPool(size_t chunk_size = kDefaultChunkSize);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Allocates a writable Bytes of exactly `len` (<= chunk_size() for pooled
  // service; larger requests fall through to the heap).
  Bytes Allocate(size_t len);

  size_t chunk_size() const { return chunk_size_; }
  const PoolStats& stats() const { return stats_; }
  size_t free_count() const { return free_.size(); }

  // Internal: called by Bytes release when the last ref drops.
  void Recycle(BufferChunk* chunk);

  static constexpr size_t kDefaultChunkSize = 4096;

 private:
  BufferChunk* NewChunk();

  size_t chunk_size_;
  std::vector<BufferChunk*> free_;
  PoolStats stats_;
};

// Process-wide counters for plain heap chunk traffic, so benches can report
// "allocations avoided" for the pooled configuration.  Relaxed atomics: every
// shard worker allocates and frees heap chunks concurrently.
struct HeapBufferStats {
  RelaxedCounter heap_allocations = 0;
  RelaxedCounter heap_frees = 0;
  RelaxedCounter bytes_copied = 0;  // Payload bytes memcpy'd by Bytes::Copy/Flatten.
  // Live/peak bytes across all outstanding heap chunks, maintained at
  // HeapChunk/FreeChunk in bytes.cc (the only two sites that know capacity at
  // both ends).  Process-wide: this is the balloon the overload manager
  // bounds when a slow receiver backs up flattened channel payloads.
  LiveCounter bytes;
};
HeapBufferStats& GlobalHeapBufferStats();

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_UTIL_POOL_H_
