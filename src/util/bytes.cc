#include "src/util/bytes.h"

#include <cstdlib>
#include <new>

#include "src/util/pool.h"

namespace ensemble {

namespace {

BufferChunk* HeapChunk(size_t capacity) {
  void* mem = ::operator new(sizeof(BufferChunk) + capacity);
  auto* chunk = new (mem) BufferChunk();
  chunk->capacity = static_cast<uint32_t>(capacity);
  GlobalHeapBufferStats().heap_allocations++;
  GlobalHeapBufferStats().bytes.Add(capacity);
  return chunk;
}

void FreeChunk(BufferChunk* chunk) {
  if (chunk->pool != nullptr) {
    chunk->pool->Recycle(chunk);
    return;
  }
  GlobalHeapBufferStats().heap_frees++;
  GlobalHeapBufferStats().bytes.Sub(chunk->capacity);
  chunk->~BufferChunk();
  ::operator delete(chunk);
}

}  // namespace

void Bytes::Release() {
  if (chunk_ != nullptr && chunk_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    FreeChunk(chunk_);
  }
  chunk_ = nullptr;
}

Bytes Bytes::Copy(const void* data, size_t len) {
  Bytes b = Allocate(len);
  if (len > 0) {
    std::memcpy(b.MutableData(), data, len);
    GlobalHeapBufferStats().bytes_copied += len;
  }
  return b;
}

Bytes Bytes::Allocate(size_t len) {
  Bytes b;
  if (len == 0) {
    return b;
  }
  b.chunk_ = HeapChunk(len);
  b.off_ = 0;
  b.len_ = static_cast<uint32_t>(len);
  return b;
}

Bytes Bytes::FromChunk(BufferChunk* chunk, size_t off, size_t len) {
  Bytes b;
  b.chunk_ = chunk;
  b.off_ = static_cast<uint32_t>(off);
  b.len_ = static_cast<uint32_t>(len);
  return b;
}

Bytes Bytes::Slice(size_t pos, size_t n) const {
  Bytes b;
  if (chunk_ == nullptr || pos >= len_) {
    return b;
  }
  size_t avail = len_ - pos;
  size_t take = n < avail ? n : avail;
  b.chunk_ = chunk_;
  b.off_ = static_cast<uint32_t>(off_ + pos);
  b.len_ = static_cast<uint32_t>(take);
  b.Acquire();
  return b;
}

void Iovec::Grow(size_t want) {
  size_t cap = cap_;
  while (cap < want) {
    cap *= 2;
  }
  auto* grown = static_cast<Bytes*>(::operator new(cap * sizeof(Bytes)));
  for (uint32_t i = 0; i < count_; i++) {
    new (grown + i) Bytes(std::move(parts_[i]));
    parts_[i].~Bytes();
  }
  FreeHeap();
  parts_ = grown;
  cap_ = static_cast<uint32_t>(cap);
}

Bytes Iovec::Flatten() const {
  if (count_ == 1) {
    return parts_[0];
  }
  Bytes out = Bytes::Allocate(total_);
  size_t pos = 0;
  for (uint32_t i = 0; i < count_; i++) {
    const Bytes& p = parts_[i];
    std::memcpy(out.MutableData() + pos, p.data(), p.size());
    pos += p.size();
  }
  GlobalHeapBufferStats().bytes_copied += total_;
  return out;
}

Iovec Iovec::SubRange(size_t pos, size_t n) const {
  Iovec out;
  size_t skip = pos;
  size_t want = n;
  for (uint32_t i = 0; i < count_; i++) {
    const Bytes& p = parts_[i];
    if (want == 0) {
      break;
    }
    if (skip >= p.size()) {
      skip -= p.size();
      continue;
    }
    size_t take = p.size() - skip;
    if (take > want) {
      take = want;
    }
    out.Append(p.Slice(skip, take));
    skip = 0;
    want -= take;
  }
  return out;
}

bool Iovec::ContentEquals(const Iovec& other) const {
  if (total_ != other.total_) {
    return false;
  }
  // Walk both part lists in lockstep.
  size_t ai = 0, aoff = 0, bi = 0, boff = 0;
  size_t left = total_;
  while (left > 0) {
    const Bytes& a = parts_[ai];
    const Bytes& b = other.parts_[bi];
    size_t chunk = std::min(a.size() - aoff, b.size() - boff);
    if (std::memcmp(a.data() + aoff, b.data() + boff, chunk) != 0) {
      return false;
    }
    aoff += chunk;
    boff += chunk;
    left -= chunk;
    if (aoff == a.size()) {
      ai++;
      aoff = 0;
    }
    if (boff == b.size()) {
      bi++;
      boff = 0;
    }
  }
  return true;
}

Bytes HeaderSlab::Copy(const void* data, size_t len) {
  if (len > kChunkBytes) {
    return Bytes::Copy(data, len);
  }
  if (chunks_.empty() || used_ + len > kChunkBytes) {
    NextChunk();
  }
  std::memcpy(chunks_[cur_].MutableData() + used_, data, len);
  Bytes slice = chunks_[cur_].Slice(used_, len);
  used_ += len;
  return slice;
}

void HeaderSlab::NextChunk() {
  used_ = 0;
  for (size_t i = 0; i < chunks_.size(); i++) {
    if (chunks_[i].Unique()) {
      cur_ = i;
      return;
    }
  }
  chunks_.push_back(Bytes::Allocate(kChunkBytes));
  cur_ = chunks_.size() - 1;
}

}  // namespace ensemble
