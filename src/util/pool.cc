#include "src/util/pool.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>
#include <new>

namespace ensemble {

namespace {
// Node the calling thread currently runs on; -1 when unavailable.  getcpu(2)
// via raw syscall so we don't need libnuma or a glibc new enough for the
// wrapper.
int CurrentNumaNode() {
  unsigned cpu = 0;
  unsigned node = 0;
  if (syscall(SYS_getcpu, &cpu, &node, nullptr) == 0) {
    return static_cast<int>(node);
  }
  return -1;
}
}  // namespace

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

void BufferPool::Prewarm(size_t chunks) {
  free_.reserve(free_.size() + chunks);
  for (size_t i = 0; i < chunks; i++) {
    BufferChunk* chunk = NewChunk();
    // First-touch: fault every page in from this thread so the kernel places
    // it on the caller's node, not wherever the setup thread ran.
    std::memset(chunk->data(), 0, chunk_size_);
    chunk->refs.store(0, std::memory_order_relaxed);
    free_.push_back(chunk);
    stats_.prewarmed++;
  }
  numa_node_ = CurrentNumaNode();
}

}  // namespace ensemble
