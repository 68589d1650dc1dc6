#include "src/util/waker.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

namespace ensemble {

Waker::Waker() : fd_(eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}

Waker::~Waker() {
  if (fd_ >= 0) {
    close(fd_);
  }
}

void Waker::Notify() {
  if (fd_ < 0) {
    return;
  }
  uint64_t one = 1;
  // A saturated eventfd counter still means "pending": the owner has
  // unconsumed notifications, so a failed write loses nothing.
  stats_.notifies++;
  [[maybe_unused]] ssize_t n = write(fd_, &one, sizeof(one));
}

void Waker::NotifyCoalesced() {
  // acq_rel: the winning exchange orders this thread's prior writes (the task
  // push) before the owner's Drain-side load, matching Notify's semantics.
  if (armed_.exchange(true, std::memory_order_acq_rel)) {
    stats_.coalesced++;
    return;  // A write since the owner's last Drain() is still pending.
  }
  Notify();
}

void Waker::Drain() {
  if (fd_ < 0) {
    return;
  }
  // Disarm before consuming: a NotifyCoalesced that lands mid-drain re-arms
  // and performs a real write, which either this read or the owner's next
  // poll(2) observes — never lost.  One read resets the eventfd counter.
  armed_.store(false, std::memory_order_release);
  uint64_t count;
  [[maybe_unused]] ssize_t n = read(fd_, &count, sizeof(count));
}

bool Waker::WaitFor(uint64_t ns) {
  if (fd_ < 0) {
    return false;
  }
  pollfd pfd{fd_, POLLIN, 0};
  int timeout_ms = static_cast<int>((ns + 999'999) / 1'000'000);
  int r = ::poll(&pfd, 1, timeout_ms);
  if (r > 0) {
    Drain();
    return true;
  }
  return false;
}

}  // namespace ensemble
