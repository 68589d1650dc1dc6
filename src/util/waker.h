// Cross-thread wakeup primitive: a pollable fd another thread can poke.
//
// An idle shard worker blocks in poll(2) on its sockets; when another thread
// posts into its task queue it must break that sleep immediately.  The
// Waker is one non-blocking eventfd that joins the worker's poll set;
// Notify() is a single write(2) and is the only operation that may be called
// from foreign threads.

#ifndef ENSEMBLE_SRC_UTIL_WAKER_H_
#define ENSEMBLE_SRC_UTIL_WAKER_H_

#include <atomic>
#include <cstdint>

#include "src/util/counters.h"

namespace ensemble {

struct WakerStats {
  RelaxedCounter notifies;   // Real fd writes (Notify + first coalesced).
  RelaxedCounter coalesced;  // NotifyCoalesced calls that skipped the write.
};

class Waker {
 public:
  Waker();
  ~Waker();

  Waker(const Waker&) = delete;
  Waker& operator=(const Waker&) = delete;

  // Thread-safe: wakes the owner if it is (or is about to start) waiting.
  // Notifications are sticky until Drain(): a notify just before the owner
  // blocks makes the next wait return immediately — no lost wakeups.
  void Notify();

  // Thread-safe: like Notify(), but a burst of callers between two owner
  // Drain()s costs one fd write — the first caller arms the dirty flag and
  // pays the syscall; the rest see it armed and return.  Safe because
  // notifications are sticky: the armed flag is only true while an unconsumed
  // notification makes the fd readable, so skipping the write loses nothing.
  void NotifyCoalesced();

  // Owner thread: consumes pending notifications (and re-opens coalescing:
  // the next NotifyCoalesced after Drain() performs a real write).
  void Drain();

  // Owner thread: blocks until notified or `ns` nanoseconds pass (millisecond
  // granularity).  Returns true if a notification was consumed.
  bool WaitFor(uint64_t ns);

  // Pollable fd for embedding in a caller-owned poll(2) set, or -1 when
  // eventfd(2) failed (fd exhaustion): Notify is then a no-op.
  int fd() const { return fd_; }

  bool ok() const { return fd_ >= 0; }

  const WakerStats& stats() const { return stats_; }

 private:
  int fd_ = -1;
  // True between the first NotifyCoalesced of a burst and the next Drain().
  std::atomic<bool> armed_{false};
  WakerStats stats_;
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_UTIL_WAKER_H_
