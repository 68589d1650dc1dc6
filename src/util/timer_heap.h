// TimerHeap — the wall-clock timer queue behind every real-time network.
//
// A min-heap of (due, seq, fn): the earliest deadline fires first, and equal
// deadlines fire in scheduling order (`seq` is the FIFO tiebreak).  RunDue()
// pops every due entry before firing any of them, so a callback may schedule
// new timers — including 0-delay ones — without being re-entered or starving
// the caller: those wait for the next RunDue().
//
// The owner thread drives it (Schedule/RunDue/NanosUntilNext).  depth() is a
// relaxed mirror of size() that any thread may read — the overload manager
// folds it into its pressure gauge.
//
// Clock-agnostic on purpose: callers pass `now` explicitly, so tests can
// drive exact deadlines.  SimQueue keeps its own heap because it orders
// packets and timers together in virtual time.

#ifndef ENSEMBLE_SRC_UTIL_TIMER_HEAP_H_
#define ENSEMBLE_SRC_UTIL_TIMER_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "src/util/counters.h"
#include "src/util/vtime.h"

namespace ensemble {

class TimerHeap {
 public:
  using Fn = std::function<void()>;

  void Schedule(VTime due, Fn fn) {
    heap_.push(Entry{due, seq_++, std::move(fn)});
    depth_ = heap_.size();
  }

  // Fires every entry due at or before `now`, in (due, seq) order; returns
  // how many fired.
  size_t RunDue(VTime now) {
    std::vector<Fn> due;
    while (!heap_.empty() && heap_.top().due <= now) {
      due.push_back(std::move(const_cast<Entry&>(heap_.top()).fn));
      heap_.pop();
    }
    depth_ = heap_.size();
    for (Fn& fn : due) {
      fn();
    }
    return due.size();
  }

  // Nanoseconds from `now` to the earliest deadline: 0 when one is already
  // due, kVTimeNever when the heap is empty.
  VTime NanosUntilNext(VTime now) const {
    if (heap_.empty()) {
      return kVTimeNever;
    }
    return heap_.top().due > now ? heap_.top().due - now : 0;
  }

  size_t size() const { return heap_.size(); }
  uint64_t depth() const { return depth_.value(); }  // Any thread.

 private:
  struct Entry {
    VTime due;
    uint64_t seq;
    Fn fn;
    bool operator>(const Entry& o) const {
      return due != o.due ? due > o.due : seq > o.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  uint64_t seq_ = 0;
  RelaxedCounter depth_;
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_UTIL_TIMER_HEAP_H_
