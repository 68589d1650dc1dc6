// FlatMap — open-addressing hash map from a u32 id to a pointer.
//
// Built for one-lookup-per-datagram receive paths (the bypass connection
// table): one Fibonacci multiply picks the bucket
// and a linear probe over a contiguous array resolves it — typically zero
// probes past the home slot at our load factors, no pointer chasing, no
// allocation after the table settles.  Deletion uses backward-shift (no
// tombstones), so probe chains never grow stale; the table doubles at ~70%
// occupancy.  The map stores but never dereferences its values.

#ifndef ENSEMBLE_SRC_UTIL_FLAT_MAP_H_
#define ENSEMBLE_SRC_UTIL_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ensemble {

template <typename T>
class FlatMap {
 public:
  FlatMap() { Rehash(kInitialCap); }

  // Stores `value` under `key` unless the key is already present; returns
  // the value now stored under `key` (the existing one on a repeat insert).
  T* Insert(uint32_t key, T* value) {
    if ((size_ + 1) * 10 >= slots_.size() * 7) {
      Rehash(slots_.size() * 2);
    }
    size_t i = Home(key);
    for (;;) {
      Slot& s = slots_[i];
      if (!s.used) {
        s = Slot{key, true, value};
        size_++;
        return value;
      }
      if (s.key == key) {
        return s.value;
      }
      i = Next(i);
    }
  }

  T* Find(uint32_t key) const {
    size_t i = Home(key);
    for (;;) {
      const Slot& s = slots_[i];
      if (!s.used) {
        return nullptr;
      }
      if (s.key == key) {
        return s.value;
      }
      i = Next(i);
    }
  }

  void Erase(uint32_t key) {
    size_t i = Home(key);
    for (;;) {
      if (!slots_[i].used) {
        return;  // Not present.
      }
      if (slots_[i].key == key) {
        break;
      }
      i = Next(i);
    }
    // Backward-shift deletion: pull every displaced follower one slot up so
    // probe chains stay gap-free without tombstones.
    size_t hole = i;
    for (size_t j = Next(hole);; j = Next(j)) {
      Slot& s = slots_[j];
      if (!s.used) {
        break;
      }
      // A follower may move into the hole only if its home slot is not inside
      // (hole, j] — i.e. the hole does not cut its probe chain.
      size_t home = Home(s.key);
      bool movable =
          hole <= j ? (home <= hole || home > j) : (home <= hole && home > j);
      if (movable) {
        slots_[hole] = s;
        s.used = false;
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    size_--;
  }

  void Clear() {
    for (Slot& s : slots_) {
      s = Slot{};
    }
    size_ = 0;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

 private:
  static constexpr size_t kInitialCap = 16;  // Power of two, always.

  struct Slot {
    uint32_t key = 0;
    bool used = false;
    T* value = nullptr;
  };

  // Fibonacci hashing: the multiply spreads consecutive/structured ids across
  // the high bits; shifting down by (32 - log2(cap)) picks the bucket.
  size_t Home(uint32_t key) const {
    return static_cast<size_t>((key * UINT32_C(2654435769)) >> shift_) &
           (slots_.size() - 1);
  }
  size_t Next(size_t i) const { return (i + 1) & (slots_.size() - 1); }

  void Rehash(size_t cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    int log2 = 0;
    while ((size_t{1} << log2) < cap) {
      log2++;
    }
    shift_ = static_cast<uint32_t>(32 - log2);
    size_ = 0;
    for (const Slot& s : old) {
      if (s.used) {
        size_t i = Home(s.key);
        while (slots_[i].used) {
          i = Next(i);
        }
        slots_[i] = s;
        size_++;
      }
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  uint32_t shift_ = 28;  // 32 - log2(kInitialCap).
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_UTIL_FLAT_MAP_H_
