// Refcounted byte buffers and scatter-gather vectors.
//
// Ensemble avoided OCaml garbage-collection pressure by running all message
// payloads through a single pre-allocated string managed by its own allocator
// (paper §4, optimization 1) and by using scatter-gather I/O to avoid copying
// (optimization 2 and the flat Figure-6 curves).  The C++ analog is a slab
// pool (`BufferPool`) handing out refcounted slices (`Bytes`) that can be
// sliced and concatenated without copying (`Iovec`).

#ifndef ENSEMBLE_SRC_UTIL_BYTES_H_
#define ENSEMBLE_SRC_UTIL_BYTES_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <vector>

namespace ensemble {

class BufferPool;

// A contiguous, heap- or pool-backed, refcounted chunk of memory.
// Not part of the public surface; Bytes below is the user-facing slice.
struct BufferChunk {
  std::atomic<uint32_t> refs{1};
  BufferPool* pool = nullptr;  // Owning pool, or nullptr for plain heap chunks.
  uint32_t capacity = 0;
  // Payload bytes follow the struct in memory.
  uint8_t* data() { return reinterpret_cast<uint8_t*>(this + 1); }
  const uint8_t* data() const { return reinterpret_cast<const uint8_t*>(this + 1); }
};

// An immutable, refcounted slice of a BufferChunk.  Copying a Bytes bumps a
// refcount; no payload bytes are copied.  The empty Bytes owns nothing.
class Bytes {
 public:
  Bytes() = default;
  ~Bytes() { Release(); }

  Bytes(const Bytes& other) : chunk_(other.chunk_), off_(other.off_), len_(other.len_) {
    Acquire();
  }
  Bytes(Bytes&& other) noexcept : chunk_(other.chunk_), off_(other.off_), len_(other.len_) {
    other.chunk_ = nullptr;
    other.off_ = 0;
    other.len_ = 0;
  }
  Bytes& operator=(const Bytes& other) {
    if (this != &other) {
      Release();
      chunk_ = other.chunk_;
      off_ = other.off_;
      len_ = other.len_;
      Acquire();
    }
    return *this;
  }
  Bytes& operator=(Bytes&& other) noexcept {
    if (this != &other) {
      Release();
      chunk_ = other.chunk_;
      off_ = other.off_;
      len_ = other.len_;
      other.chunk_ = nullptr;
      other.off_ = 0;
      other.len_ = 0;
    }
    return *this;
  }

  // Copies `len` bytes from `data` into a freshly allocated chunk.
  static Bytes Copy(const void* data, size_t len);
  static Bytes CopyString(std::string_view s) { return Copy(s.data(), s.size()); }
  // Allocates an uninitialized writable chunk; caller fills via MutableData()
  // before sharing.  (The only window in which a Bytes is mutable.)
  static Bytes Allocate(size_t len);
  // Wraps a chunk handed out by a BufferPool.  Takes ownership of one ref.
  static Bytes FromChunk(BufferChunk* chunk, size_t off, size_t len);

  const uint8_t* data() const { return chunk_ ? chunk_->data() + off_ : nullptr; }
  uint8_t* MutableData() { return chunk_ ? chunk_->data() + off_ : nullptr; }
  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  // True when this is the only reference to its chunk.
  bool Unique() const {
    return chunk_ != nullptr && chunk_->refs.load(std::memory_order_acquire) == 1;
  }
  uint8_t operator[](size_t i) const { return data()[i]; }

  // Sub-slice [pos, pos+n); clamps to the slice bounds.  O(1), no copy.
  Bytes Slice(size_t pos, size_t n = SIZE_MAX) const;

  std::string_view view() const {
    return {reinterpret_cast<const char*>(data()), len_};
  }
  std::string ToString() const { return std::string(view()); }

  bool operator==(const Bytes& other) const {
    return len_ == other.len_ && (len_ == 0 || std::memcmp(data(), other.data(), len_) == 0);
  }

 private:
  void Acquire() {
    if (chunk_ != nullptr) {
      chunk_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void Release();

  BufferChunk* chunk_ = nullptr;
  uint32_t off_ = 0;
  uint32_t len_ = 0;
};

// A scatter-gather vector: an ordered list of Bytes slices that logically
// concatenate into one payload.  Mirrors the iovec arrays Ensemble hands to
// the UNIX scatter-gather socket interface.  Up to kInlineParts parts live in
// the object itself — a payload, or a compressed header plus its payload —
// so the common message copies and moves without touching the allocator;
// longer lists (packed datagrams, reassembled fragments) move to one heap
// array that Clear() keeps for reuse.  Only live parts are constructed, so
// an empty or moved-from Iovec costs nothing to destroy.
class Iovec {
 public:
  static constexpr uint32_t kInlineParts = 2;

  Iovec() = default;
  explicit Iovec(Bytes one) { Append(std::move(one)); }
  Iovec(const Iovec& other) { Append(other); }
  Iovec(Iovec&& other) noexcept { StealFrom(other); }
  Iovec& operator=(const Iovec& other) {
    if (this != &other) {
      Clear();
      Append(other);
    }
    return *this;
  }
  Iovec& operator=(Iovec&& other) noexcept {
    if (this != &other) {
      Clear();
      FreeHeap();
      StealFrom(other);
    }
    return *this;
  }
  ~Iovec() {
    Clear();
    FreeHeap();
  }

  void Append(Bytes b) {
    if (!b.empty()) {
      if (count_ == cap_) {
        Grow(count_ + 1);
      }
      total_ += b.size();
      new (parts_ + count_) Bytes(std::move(b));
      count_++;
    }
  }
  void Append(const Iovec& other) {
    Reserve(count_ + other.count_);
    for (uint32_t i = 0; i < other.count_; i++) {
      Append(other.parts_[i]);
    }
  }
  void Prepend(Bytes b) {
    if (!b.empty()) {
      if (count_ == cap_) {
        Grow(count_ + 1);
      }
      for (uint32_t i = count_; i > 0; i--) {
        new (parts_ + i) Bytes(std::move(parts_[i - 1]));
        parts_[i - 1].~Bytes();
      }
      total_ += b.size();
      new (parts_) Bytes(std::move(b));
      count_++;
    }
  }
  // Pre-sizes the part list so a known Append sequence mallocs at most once.
  void Reserve(size_t parts) {
    if (parts > cap_) {
      Grow(parts);
    }
  }

  size_t size() const { return total_; }
  bool empty() const { return total_ == 0; }
  size_t part_count() const { return count_; }
  const Bytes& part(size_t i) const { return parts_[i]; }

  // Flattens into one contiguous Bytes.  The slow path; the fast paths keep
  // the parts separate all the way to the wire.
  Bytes Flatten() const;

  // Logical sub-range as a new Iovec (no copy; slices parts).
  Iovec SubRange(size_t pos, size_t n) const;

  bool ContentEquals(const Iovec& other) const;

  // Drops every part; a heap part array stays allocated for reuse.
  void Clear() {
    for (uint32_t i = 0; i < count_; i++) {
      parts_[i].~Bytes();
    }
    count_ = 0;
    total_ = 0;
  }

 private:
  Bytes* inline_parts() { return reinterpret_cast<Bytes*>(inline_); }
  void Grow(size_t want);
  // Takes other's parts: its heap array as is, or its inline parts moved
  // here; `other` is left empty and inline.  Requires this Iovec empty and
  // inline.
  void StealFrom(Iovec& other) {
    if (other.parts_ != other.inline_parts()) {
      parts_ = other.parts_;
      cap_ = other.cap_;
      other.parts_ = other.inline_parts();
      other.cap_ = kInlineParts;
    } else {
      for (uint32_t i = 0; i < other.count_; i++) {
        new (parts_ + i) Bytes(std::move(other.parts_[i]));
        other.parts_[i].~Bytes();
      }
    }
    count_ = other.count_;
    total_ = other.total_;
    other.count_ = 0;
    other.total_ = 0;
  }
  // Returns a heap part array (which must hold no live parts) and goes back
  // to inline storage.
  void FreeHeap() {
    if (parts_ != inline_parts()) {
      ::operator delete(parts_);
      parts_ = inline_parts();
      cap_ = kInlineParts;
    }
  }

  alignas(Bytes) unsigned char inline_[kInlineParts * sizeof(Bytes)];
  Bytes* parts_ = inline_parts();  // Live parts: [0, count_).
  uint32_t count_ = 0;
  uint32_t cap_ = kInlineParts;
  size_t total_ = 0;
};

// Small immutable byte strings — compressed headers, pack framing — written
// into shared chunks and handed out as refcounted slices, so emitting one
// costs a memcpy and a refcount instead of an allocation.  A chunk is
// rewritten only once every slice of it has been released (the slab then
// holds the only reference); until then the slab moves on to another chunk,
// allocating one when all are in use, so in steady state the chunk set is
// the in-flight working set.  Not thread-safe (one per route or transport);
// the slices may be released on any thread.
class HeaderSlab {
 public:
  static constexpr size_t kChunkBytes = 2048;

  HeaderSlab() = default;
  HeaderSlab(const HeaderSlab&) = delete;
  HeaderSlab& operator=(const HeaderSlab&) = delete;

  // Copies `len` bytes into the slab and returns the slice holding them.
  // Longer than a chunk: a plain heap copy.
  Bytes Copy(const void* data, size_t len);

  size_t chunk_count() const { return chunks_.size(); }

 private:
  void NextChunk();

  std::vector<Bytes> chunks_;  // Each spans a whole chunk: the slab's reference.
  size_t cur_ = 0;
  size_t used_ = 0;
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_UTIL_BYTES_H_
