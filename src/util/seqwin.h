// Sequence-number bookkeeping shared by the sliding-window layers (pt2pt,
// mnak).  SeqWindow tracks which sequence numbers at or above a low-water
// mark have been seen, slides the mark over contiguous runs, and reports
// holes (the NAK set for mnak).  SeqRing keeps one entry per sequence number
// over a contiguous run (the retransmission buffers).  Both are rings that
// only allocate when the window outgrows them, so an in-order steady state
// allocates nothing.

#ifndef ENSEMBLE_SRC_UTIL_SEQWIN_H_
#define ENSEMBLE_SRC_UTIL_SEQWIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/logging.h"

namespace ensemble {

using Seqno = uint64_t;

class SeqWindow {
 public:
  // How far past low() the window reaches.  A received header names a
  // seqno, and a seqno this far ahead of the first one still missing is out
  // of any sender's reach: it is corrupt or hostile, and Mark/ExtendTo
  // refuse it, so one datagram cannot make the window allocate more than
  // kMaxSpan bits (128 KiB).
  static constexpr uint64_t kMaxSpan = uint64_t{1} << 20;

  // `low` is the next expected in-order sequence number.
  explicit SeqWindow(Seqno low = 0) : low_(low) {}

  Seqno low() const { return low_; }

  // Highest seqno marked so far + 1, i.e. the exclusive upper bound of what
  // the peer has sent as far as we know.
  Seqno high() const { return low_ + size_; }

  bool Seen(Seqno s) const {
    if (s < low_) {
      return true;
    }
    return s - low_ < size_ && Bit(s);
  }

  // Ring capacity in seqnos (0 until the window first widens).
  uint64_t capacity() const { return cap_bits_; }

  // Marks `s` as received.  Returns false when `s` is a duplicate (already
  // seen or below the window) or at least kMaxSpan past low().
  bool Mark(Seqno s) {
    if (s < low_ || s - low_ >= kMaxSpan) {
      return false;
    }
    if (s - low_ >= size_) {
      Extend(s - low_ + 1);
    }
    if (Bit(s)) {
      return false;
    }
    words_[Word(s)] |= Mask(s);
    seen_++;
    return true;
  }

  // Advances the low-water mark over exactly one seen entry.  Returns false
  // when the entry at `low` has not been seen.
  bool SlideOne() {
    if (size_ == 0 || !Bit(low_)) {
      return false;
    }
    words_[Word(low_)] &= ~Mask(low_);
    low_++;
    size_--;
    seen_--;
    return true;
  }

  // Advances the low-water mark over any contiguous prefix of seen entries.
  // Returns how many entries were consumed.
  size_t Slide() {
    size_t n = 0;
    while (SlideOne()) {
      n++;
    }
    return n;
  }

  // Widens the window so that high() >= bound without marking anything:
  // the new entries become holes.  Used when a sender advertises its send
  // watermark — unreceived suffixes turn into NAKable holes.  A bound more
  // than kMaxSpan past low() is ignored.
  void ExtendTo(Seqno bound) {
    if (bound > high() && bound - low_ <= kMaxSpan) {
      Extend(bound - low_);
    }
  }

  // Sequence numbers in [low, high) that are missing — the NAK set.
  std::vector<Seqno> Holes() const {
    std::vector<Seqno> holes;
    for (Seqno s = low_; s < high(); s++) {
      if (!Bit(s)) {
        holes.push_back(s);
      }
    }
    return holes;
  }

  bool HasHoles() const { return seen_ < size_; }

 private:
  // Bit for seqno s lives at ring position s mod capacity; every bit outside
  // [low, high) is zero, so widening the window exposes only clear bits.
  size_t Word(Seqno s) const { return static_cast<size_t>(s & (cap_bits_ - 1)) / 64; }
  static uint64_t Mask(Seqno s) { return uint64_t{1} << (s % 64); }
  bool Bit(Seqno s) const { return (words_[Word(s)] & Mask(s)) != 0; }

  void Extend(uint64_t new_size) {
    if (new_size > cap_bits_) {
      uint64_t cap = cap_bits_ == 0 ? 64 : cap_bits_;
      while (cap < new_size) {
        cap *= 2;
      }
      std::vector<uint64_t> grown(static_cast<size_t>(cap / 64), 0);
      for (Seqno s = low_; s < high(); s++) {
        if (Bit(s)) {
          grown[static_cast<size_t>(s & (cap - 1)) / 64] |= Mask(s);
        }
      }
      words_ = std::move(grown);
      cap_bits_ = cap;
    }
    size_ = new_size;
  }

  Seqno low_;
  uint64_t size_ = 0;      // high - low.
  uint64_t seen_ = 0;      // Marked entries in [low, high).
  uint64_t cap_bits_ = 0;  // Ring capacity: 0 or a power of two >= 64.
  std::vector<uint64_t> words_;
};

// One entry per sequence number over a contiguous run [begin, end): entries
// are appended at end() and leave from the front (pruned as stable, or
// acknowledged).  Slots are reused in place, so T must offer Reset(), which
// drops what an entry holds while keeping its capacity.
template <typename T>
class SeqRing {
 public:
  Seqno begin() const { return begin_; }
  Seqno end() const { return begin_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // The slot for `s`, which must be end() unless the ring is empty.
  T& Push(Seqno s) {
    if (size_ == 0) {
      begin_ = s;
    }
    ENS_CHECK_MSG(s == end(), "SeqRing push of " << s << " at end " << end());
    if (size_ == slots_.size()) {
      Grow();
    }
    size_++;
    return slots_[Index(s)];
  }

  T* Find(Seqno s) { return s >= begin_ && s < end() ? &slots_[Index(s)] : nullptr; }
  const T* Find(Seqno s) const {
    return s >= begin_ && s < end() ? &slots_[Index(s)] : nullptr;
  }

  // Drops every entry below `bound`; returns how many left.
  size_t PopBelow(Seqno bound) {
    size_t n = 0;
    while (size_ > 0 && begin_ < bound) {
      slots_[Index(begin_)].Reset();
      begin_++;
      size_--;
      n++;
    }
    return n;
  }

  void Clear() { PopBelow(end()); }

  // Calls fn(seqno, entry) from begin() to end().
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Seqno s = begin_; s < end(); s++) {
      fn(s, slots_[Index(s)]);
    }
  }

 private:
  size_t Index(Seqno s) const { return static_cast<size_t>(s & (slots_.size() - 1)); }

  void Grow() {
    std::vector<T> grown(slots_.empty() ? 16 : slots_.size() * 2);
    for (Seqno s = begin_; s < end(); s++) {
      grown[static_cast<size_t>(s & (grown.size() - 1))] = std::move(slots_[Index(s)]);
    }
    slots_ = std::move(grown);
  }

  std::vector<T> slots_;  // Size 0 or a power of two.
  Seqno begin_ = 0;
  size_t size_ = 0;
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_UTIL_SEQWIN_H_
