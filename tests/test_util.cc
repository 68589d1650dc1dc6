// Unit tests: RNG determinism, sequence windows, hashing, virtual time,
// the timer heap.

#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <vector>

#include "src/overload/watermark.h"
#include "src/util/counters.h"
#include "src/util/hash.h"
#include "src/util/pool.h"
#include "src/util/rng.h"
#include "src/util/seqwin.h"
#include "src/util/timer_heap.h"
#include "src/util/vtime.h"

namespace ensemble {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(rng.Below(17), 17u);
  }
  EXPECT_EQ(rng.Below(0), 0u);
}

TEST(RngTest, RangeIsInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; i++) {
    int64_t v = rng.Range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // All values hit.
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; i++) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; i++) {
    double d = rng.Double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(SeqWindowTest, StartsAtConfiguredLow) {
  SeqWindow w(5);
  EXPECT_EQ(w.low(), 5u);
  EXPECT_EQ(w.high(), 5u);
  EXPECT_TRUE(w.Seen(4));   // Below the window counts as seen (delivered).
  EXPECT_FALSE(w.Seen(5));
}

TEST(SeqWindowTest, MarkAndSlideInOrder) {
  SeqWindow w;
  EXPECT_TRUE(w.Mark(0));
  EXPECT_TRUE(w.SlideOne());
  EXPECT_EQ(w.low(), 1u);
  EXPECT_TRUE(w.Mark(1));
  EXPECT_TRUE(w.Mark(2));
  EXPECT_EQ(w.Slide(), 2u);
  EXPECT_EQ(w.low(), 3u);
}

TEST(SeqWindowTest, DuplicateMarkRejected) {
  SeqWindow w;
  EXPECT_TRUE(w.Mark(3));
  EXPECT_FALSE(w.Mark(3));
  EXPECT_FALSE(w.Mark(0) && w.Mark(0));
  w.Mark(0);
  w.SlideOne();
  EXPECT_FALSE(w.Mark(0));  // Below low.
}

TEST(SeqWindowTest, HolesReportsGaps) {
  SeqWindow w;
  w.Mark(1);
  w.Mark(4);
  EXPECT_EQ(w.Holes(), (std::vector<Seqno>{0, 2, 3}));
  EXPECT_TRUE(w.HasHoles());
  w.Mark(0);
  w.Mark(2);
  w.Mark(3);
  EXPECT_FALSE(w.HasHoles());
}

TEST(SeqWindowTest, SlideOneRefusesUnseenHead) {
  SeqWindow w;
  w.Mark(1);
  EXPECT_FALSE(w.SlideOne());
  EXPECT_EQ(w.low(), 0u);
}

TEST(SeqWindowTest, ExtendToCreatesNakableHoles) {
  SeqWindow w;
  w.ExtendTo(4);
  EXPECT_EQ(w.high(), 4u);
  EXPECT_EQ(w.Holes().size(), 4u);
  // Extending below the current high is a no-op.
  w.ExtendTo(2);
  EXPECT_EQ(w.high(), 4u);
}

// A header's seqno kMaxSpan or more past low() is refused without widening
// the window.  (Kept at kMaxSpan, not 2^31: were the bound lost, this test
// would allocate 128 KiB, not 256 MiB.)
TEST(SeqWindowTest, RefusesSeqnosBeyondMaxSpan) {
  constexpr Seqno kLow = 100;
  SeqWindow w(kLow);
  EXPECT_FALSE(w.Mark(kLow + SeqWindow::kMaxSpan));
  w.ExtendTo(kLow + SeqWindow::kMaxSpan + 1);
  EXPECT_EQ(w.high(), kLow);
  EXPECT_EQ(w.capacity(), 0u);
  EXPECT_FALSE(w.HasHoles());
  // The last seqno in reach is taken, at a capacity of kMaxSpan bits.
  EXPECT_TRUE(w.Mark(kLow + SeqWindow::kMaxSpan - 1));
  EXPECT_EQ(w.capacity(), SeqWindow::kMaxSpan);
  EXPECT_TRUE(w.Mark(kLow));
  EXPECT_EQ(w.Slide(), 1u);
}

TEST(SeqWindowTest, InterleavedMarkSlideStress) {
  SeqWindow w;
  // Mark evens then odds; window must deliver all 100 in order.
  for (Seqno s = 0; s < 100; s += 2) {
    w.Mark(s);
  }
  for (Seqno s = 1; s < 100; s += 2) {
    w.Mark(s);
  }
  EXPECT_EQ(w.Slide(), 100u);
  EXPECT_EQ(w.low(), 100u);
  EXPECT_FALSE(w.HasHoles());
}

// The window's reference semantics: a low-water mark plus one flag per
// seqno in [low, high), as a plain deque.
struct RefWindow {
  Seqno low = 0;
  std::deque<bool> seen;

  bool Mark(Seqno s) {
    if (s < low) {
      return false;
    }
    size_t idx = static_cast<size_t>(s - low);
    if (idx >= seen.size()) {
      seen.resize(idx + 1, false);
    }
    if (seen[idx]) {
      return false;
    }
    seen[idx] = true;
    return true;
  }
  bool SlideOne() {
    if (seen.empty() || !seen.front()) {
      return false;
    }
    seen.pop_front();
    low++;
    return true;
  }
  void ExtendTo(Seqno bound) {
    if (bound > low + seen.size()) {
      seen.resize(static_cast<size_t>(bound - low), false);
    }
  }
  std::vector<Seqno> Holes() const {
    std::vector<Seqno> holes;
    for (size_t i = 0; i < seen.size(); i++) {
      if (!seen[i]) {
        holes.push_back(low + i);
      }
    }
    return holes;
  }
};

void ExpectSameWindow(const SeqWindow& w, const RefWindow& ref, int step) {
  ASSERT_EQ(w.low(), ref.low) << "step " << step;
  ASSERT_EQ(w.high(), ref.low + ref.seen.size()) << "step " << step;
  ASSERT_EQ(w.Holes(), ref.Holes()) << "step " << step;
  ASSERT_EQ(w.HasHoles(), !ref.Holes().empty()) << "step " << step;
}

TEST(SeqWindowTest, RandomOperationsMatchReferenceModel) {
  // Marks land up to `reach` ahead of low; reach changes over the run, so
  // the ring wraps many times and grows while its live bits straddle the
  // wrap point.
  for (uint64_t seed = 1; seed <= 8; seed++) {
    Rng rng(seed);
    Seqno start = rng.Below(1000);
    SeqWindow w(start);
    RefWindow ref;
    ref.low = start;
    for (int step = 0; step < 20000; step++) {
      uint64_t reach = step % 5000 < 2500 ? 40 : 300;
      switch (rng.Below(6)) {
        case 0:
        case 1: {
          Seqno s = ref.low + rng.Below(reach) - (rng.Chance(0.05) ? ref.low / 2 : 0);
          ASSERT_EQ(w.Mark(s), ref.Mark(s)) << "seed " << seed << " step " << step;
          break;
        }
        case 2:
          ASSERT_EQ(w.SlideOne(), ref.SlideOne()) << "seed " << seed << " step " << step;
          break;
        case 3: {
          size_t n = 0;
          while (ref.SlideOne()) {
            n++;
          }
          ASSERT_EQ(w.Slide(), n) << "seed " << seed << " step " << step;
          break;
        }
        case 4: {
          Seqno bound = ref.low + rng.Below(reach);
          w.ExtendTo(bound);
          ref.ExtendTo(bound);
          break;
        }
        default: {
          Seqno s = ref.low + rng.Below(reach) - rng.Below(3);
          bool ref_seen = s < ref.low ||
                          (s - ref.low < ref.seen.size() && ref.seen[s - ref.low]);
          ASSERT_EQ(w.Seen(s), ref_seen) << "seed " << seed << " step " << step;
          break;
        }
      }
      if (step % 64 == 0) {
        ExpectSameWindow(w, ref, step);
      }
    }
    ExpectSameWindow(w, ref, -1);
  }
}

TEST(SeqWindowTest, GrowsWhileWrappedKeepingEveryMark) {
  // Start mid-ring (100 mod 64), fill the 64-bit ring past its wrap point,
  // then mark far ahead to force growth with the live bits straddling it.
  SeqWindow w(100);
  for (Seqno s = 100; s < 164; s += 3) {
    EXPECT_TRUE(w.Mark(s));
  }
  EXPECT_TRUE(w.Mark(400));
  for (Seqno s = 100; s < 164; s++) {
    EXPECT_EQ(w.Seen(s), (s - 100) % 3 == 0) << s;
  }
  EXPECT_TRUE(w.Seen(400));
  EXPECT_FALSE(w.Seen(399));
  EXPECT_EQ(w.high(), 401u);
  EXPECT_EQ(w.Holes().size(), 301u - 23u);
}

struct Slot {
  int value = -1;
  void Reset() { value = -1; }
};

TEST(SeqRingTest, PushFindPopAcrossGrowthAndWrap) {
  SeqRing<Slot> ring;
  Seqno next = 1000;
  Seqno front = 1000;
  Rng rng(7);
  for (int step = 0; step < 5000; step++) {
    if (rng.Chance(0.6) || ring.empty()) {
      ring.Push(next).value = static_cast<int>(next);
      next++;
    } else {
      Seqno bound = front + rng.Below(next - front + 1);
      EXPECT_EQ(ring.PopBelow(bound), bound - front);
      front = bound;
    }
    ASSERT_EQ(ring.size(), next - front);
    if (!ring.empty()) {
      ASSERT_EQ(ring.begin(), front);
      ASSERT_EQ(ring.end(), next);
    }
    EXPECT_EQ(ring.Find(front - 1), nullptr);
    EXPECT_EQ(ring.Find(next), nullptr);
    for (Seqno s = front; s < next; s += 7) {
      ASSERT_NE(ring.Find(s), nullptr);
      ASSERT_EQ(ring.Find(s)->value, static_cast<int>(s));
    }
  }
  Seqno expect = front;
  ring.ForEach([&](Seqno s, Slot& slot) {
    EXPECT_EQ(s, expect++);
    EXPECT_EQ(slot.value, static_cast<int>(s));
  });
  EXPECT_EQ(expect, next);
}

TEST(HashTest, FnvMatchesKnownVector) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(FnvHash(nullptr, 0), kFnvOffset);
  // Stability check (self-consistent regression value).
  EXPECT_EQ(FnvHash("a"), FnvMix(kFnvOffset, "a", 1));
  EXPECT_NE(FnvHash("ab"), FnvHash("ba"));
}

TEST(HashTest, MixU64OrderSensitive) {
  uint64_t a = FnvMixU64(FnvMixU64(kFnvOffset, 1), 2);
  uint64_t b = FnvMixU64(FnvMixU64(kFnvOffset, 2), 1);
  EXPECT_NE(a, b);
}

TEST(VTimeTest, UnitConversions) {
  EXPECT_EQ(Micros(1), 1000u);
  EXPECT_EQ(Millis(1), 1000u * 1000u);
  EXPECT_EQ(Seconds(1), 1000u * 1000u * 1000u);
  EXPECT_EQ(Millis(3) + Micros(500), 3500000u);
}

// Explicit `now` values: equal deadlines really are equal, so the FIFO
// tiebreak is exercised (a wall-clock schedule never produces exact ties).
TEST(TimerHeapTest, FiresByDeadlineThenFifoAmongEqualDeadlines) {
  TimerHeap heap;
  std::vector<int> order;
  heap.Schedule(90, [&] { order.push_back(9); });
  heap.Schedule(50, [&] { order.push_back(50); });
  heap.Schedule(10, [&] { order.push_back(1); });
  heap.Schedule(50, [&] { order.push_back(51); });
  heap.Schedule(50, [&] { order.push_back(52); });
  EXPECT_EQ(heap.NanosUntilNext(0), 10u);
  EXPECT_EQ(heap.RunDue(9), 0u);  // Nothing due yet.
  EXPECT_EQ(heap.RunDue(50), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 50, 51, 52}));
  EXPECT_EQ(heap.NanosUntilNext(60), 30u);
  EXPECT_EQ(heap.NanosUntilNext(100), 0u);  // Overdue.
  EXPECT_EQ(heap.RunDue(100), 1u);
  EXPECT_EQ(heap.NanosUntilNext(100), kVTimeNever);
}

TEST(TimerHeapTest, TimerScheduledByCallbackWaitsForNextRunDue) {
  TimerHeap heap;
  int fired = 0;
  heap.Schedule(5, [&] {
    fired++;
    heap.Schedule(5, [&] { fired += 10; });  // 0-delay: due at the same now.
  });
  EXPECT_EQ(heap.RunDue(5), 1u);
  EXPECT_EQ(fired, 1);  // The re-armed timer did not fire in the same pass.
  EXPECT_EQ(heap.size(), 1u);
  EXPECT_EQ(heap.RunDue(5), 1u);
  EXPECT_EQ(fired, 11);
}

TEST(TimerHeapTest, DepthMirrorFollowsSize) {
  TimerHeap heap;
  EXPECT_EQ(heap.depth(), 0u);
  for (VTime due = 1; due <= 3; due++) {
    heap.Schedule(due, [] {});
    EXPECT_EQ(heap.depth(), heap.size());
  }
  EXPECT_EQ(heap.depth(), 3u);
  heap.RunDue(2);
  EXPECT_EQ(heap.depth(), 1u);
  heap.RunDue(3);
  EXPECT_EQ(heap.depth(), 0u);
}

TEST(LiveCounterTest, TracksLiveAndPeakWithClampedSub) {
  LiveCounter c;
  c.Add(100);
  c.Add(50);
  EXPECT_EQ(c.live(), 150u);
  EXPECT_EQ(c.peak(), 150u);
  c.Sub(120);
  EXPECT_EQ(c.live(), 30u);
  EXPECT_EQ(c.peak(), 150u);  // Peak is monotonic.
  c.Sub(1000);                // Over-release clamps at zero, never wraps.
  EXPECT_EQ(c.live(), 0u);
  c.Add(10);
  EXPECT_EQ(c.live(), 10u);
  EXPECT_EQ(c.peak(), 150u);
}

TEST(BufferPoolTest, LiveBytesFollowAllocateAndRecycle) {
  BufferPool pool(4096);
  EXPECT_EQ(pool.stats().bytes.live(), 0u);
  {
    Bytes a = pool.Allocate(100);   // Chunk granularity, not request size.
    Bytes b = pool.Allocate(4096);
    EXPECT_EQ(pool.stats().bytes.live(), 2u * 4096u);
    EXPECT_EQ(pool.stats().bytes.peak(), 2u * 4096u);
  }
  // Both chunks recycled to the freelist: freelist chunks are not live.
  EXPECT_EQ(pool.stats().bytes.live(), 0u);
  EXPECT_EQ(pool.stats().bytes.peak(), 2u * 4096u);
  // Oversized requests go to the heap, not the pool's live accounting.
  uint64_t heap_before = GlobalHeapBufferStats().bytes.live();
  {
    Bytes big = pool.Allocate(100000);
    EXPECT_EQ(pool.stats().bytes.live(), 0u);
    EXPECT_GE(GlobalHeapBufferStats().bytes.live(), heap_before + 100000u);
  }
  EXPECT_EQ(GlobalHeapBufferStats().bytes.live(), heap_before);
}

// The overload manager's idiom end to end: pool occupancy driving a
// hysteretic watermark.  Crossing high engages once; draining through the
// band holds; only dropping below low disengages.
TEST(BufferPoolTest, LiveBytesDriveWatermarkWithHysteresis) {
  BufferPool pool(1024);
  overload::Watermark mark(/*high=*/4 * 1024, /*low=*/2 * 1024);
  std::vector<Bytes> held;
  int flips = 0;
  for (int i = 0; i < 6; i++) {  // 0 -> 6 KiB: one engage at 4 KiB.
    held.push_back(pool.Allocate(512));
    flips += mark.Update(pool.stats().bytes.live()) ? 1 : 0;
  }
  EXPECT_TRUE(mark.engaged());
  EXPECT_EQ(flips, 1);
  held.resize(3);  // 3 KiB: inside the band, still engaged.
  EXPECT_FALSE(mark.Update(pool.stats().bytes.live()));
  EXPECT_TRUE(mark.engaged());
  held.resize(1);  // 1 KiB: below low, disengages.
  EXPECT_TRUE(mark.Update(pool.stats().bytes.live()));
  EXPECT_FALSE(mark.engaged());
  EXPECT_EQ(mark.engages(), 1u);
  EXPECT_EQ(mark.disengages(), 1u);
  EXPECT_EQ(pool.stats().bytes.peak(), 6u * 1024u);  // Chunk granularity.
}

}  // namespace
}  // namespace ensemble
