#include "src/util/pool.h"

#include <new>

namespace ensemble {

HeapBufferStats& GlobalHeapBufferStats() {
  static HeapBufferStats stats;
  return stats;
}

BufferPool::BufferPool(size_t chunk_size) : chunk_size_(chunk_size) {}

BufferPool::~BufferPool() {
  for (BufferChunk* chunk : free_) {
    chunk->~BufferChunk();
    ::operator delete(chunk);
  }
}

BufferChunk* BufferPool::NewChunk() {
  void* mem = ::operator new(sizeof(BufferChunk) + chunk_size_);
  auto* chunk = new (mem) BufferChunk();
  chunk->capacity = static_cast<uint32_t>(chunk_size_);
  chunk->pool = this;
  stats_.fresh_chunks++;
  return chunk;
}

Bytes BufferPool::Allocate(size_t len) {
  if (len == 0) {
    return {};
  }
  if (len > chunk_size_) {
    // Oversized request: plain heap chunk (uncommon; e.g. pre-fragmentation
    // application payloads).
    return Bytes::Allocate(len);
  }
  stats_.allocations++;
  BufferChunk* chunk;
  if (!free_.empty()) {
    chunk = free_.back();
    free_.pop_back();
    chunk->refs.store(1, std::memory_order_relaxed);
    stats_.recycled++;
  } else {
    chunk = NewChunk();
  }
  stats_.bytes.Add(chunk_size_);
  return Bytes::FromChunk(chunk, 0, len);
}

void BufferPool::Recycle(BufferChunk* chunk) {
  stats_.returned++;
  stats_.bytes.Sub(chunk_size_);
  free_.push_back(chunk);
}

}  // namespace ensemble
