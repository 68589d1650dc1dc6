// ChannelNetwork — the sharded runtime's in-process datapath.
//
// Every endpoint owns a Mailbox, the in-process analogue of its UDP socket: a
// mutex-guarded packet queue plus a pointer to the network (shard) that owns
// it.  A sender needs only the destination's id: Send looks the mailbox up in
// the runtime-wide MailboxTable, pushes (same shard included — nothing is
// ever delivered re-entrantly from inside Send), and wakes the owner read
// under the mailbox lock AFTER the push.  A group cast is one Send per member
// of the sender's view, so it reaches only that group's mailboxes.  Poll() on
// the owning shard swaps out each resident mailbox's contents and delivers
// them.
//
// An ownership handoff therefore moves nothing but the binding, exactly as a
// UDP socket moves with its kernel queue: Release() detaches the deliver
// function and clears the owner, Adopt() on the new shard installs both, and
// whatever was pushed meanwhile waits in the mailbox in push order.  Per-sender
// FIFO holds because one sender's pushes into one mailbox are serialized by
// the mailbox lock, and nothing is lost because a push either precedes the
// adopter's owner store (its first Poll sees the packet) or follows it (the
// push wakes the adopter).
//
// Timers are a wall-clock min-heap, as in UdpNetwork.  Lossless and FIFO per
// sender, including across migrations; under overload (pressure level 2) a
// push drops the mailbox's OLDEST packet once its depth exceeds the shed keep.

#ifndef ENSEMBLE_SRC_RUNTIME_CHANNEL_NETWORK_H_
#define ENSEMBLE_SRC_RUNTIME_CHANNEL_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/net/network.h"
#include "src/perf/timer.h"
#include "src/util/counters.h"
#include "src/util/flat_map.h"
#include "src/util/timer_heap.h"
#include "src/util/waker.h"

namespace ensemble {

class ChannelNetwork;

// One endpoint's inbox.  Any thread pushes; only the owning network drains.
struct Mailbox {
  explicit Mailbox(EndpointId endpoint) : id(endpoint) {}

  const EndpointId id;
  std::mutex mu;
  std::deque<Packet> queue;  // Guarded by mu.
  bool open = false;         // Guarded by mu; false before Attach, after Detach.
  // Written under mu (pushers read it there too); nullptr between Release and
  // Adopt.  Atomic so dispatch-depth sums can read it without the lock.
  std::atomic<ChannelNetwork*> owner{nullptr};
  std::atomic<uint64_t> depth{0};  // Mirror of queue.size().
};

// Every endpoint's mailbox by id: the address space one runtime's
// ChannelNetworks share.  Mailboxes are created by the first Attach of their
// id and live as long as the table.  Open() must not race Find() — the
// runtime attaches every endpoint in Build(), before any worker runs.
class MailboxTable {
 public:
  Mailbox* Open(EndpointId id);
  Mailbox* Find(EndpointId id) const {
    return id.id > UINT32_MAX ? nullptr : by_id_.Find(static_cast<uint32_t>(id.id));
  }
  // Every mailbox, in creation order (dispatch_depth() sums its owner's).
  const std::vector<std::unique_ptr<Mailbox>>& all() const { return boxes_; }

 private:
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  FlatMap<Mailbox> by_id_;
};

class ChannelNetwork : public Network {
 public:
  explicit ChannelNetwork(MailboxTable* table) : table_(table) {}

  void Attach(EndpointId ep, DeliverFn deliver) override;
  // Closes the mailbox: queued packets and later pushes count as dropped.
  void Detach(EndpointId ep) override;
  void Send(EndpointId src, EndpointId dst, const Iovec& gather) override;
  void ScheduleTimer(VTime delay, TimerFn fn) override;
  VTime Now() const override { return NowNanos(); }
  void SetDrainHook(EndpointId ep, std::function<void()> hook) override;
  // Overload backpressure: at level >= 2 (kill watermark) a push drops the
  // mailbox's OLDEST packet once its depth exceeds the shed keep — channel
  // traffic is datagram-semantics, so layers recover exactly as from a lossy
  // wire.
  void SetPressure(int level) override {
    pressure_.store(level, std::memory_order_relaxed);
  }
  void set_shed_keep(size_t keep) { shed_keep_ = keep; }

  // Ownership handoff (owning threads only, outside Poll).  The mailbox stays
  // where it is; only the binding travels.
  struct ReleasedEndpoint {
    DeliverFn deliver;
    std::function<void()> drain_hook;
    bool valid = false;
  };
  ReleasedEndpoint Release(EndpointId ep);
  void Adopt(EndpointId ep, ReleasedEndpoint state);

  // Owning thread: deliver what every resident mailbox holds now, run due
  // timers, then run the drain hooks.
  size_t Poll();
  // The mailbox/hook half of Poll() without firing timers: the post-Stop
  // sweep uses it so periodic timers can't regenerate traffic forever.
  size_t DrainQueues();
  // Owning thread: block until a push or another thread wakes us, the next
  // timer is due, or `max_wait` passes — whichever is first.
  void IdleWait(VTime max_wait);
  // Thread-safe wakeup source for this shard (pushes and task posts).
  Waker& waker() { return waker_; }

  const NetworkStats& stats() const { return stats_; }
  // Overload signals (read cross-thread by the manager's evaluating worker):
  // packets waiting in this shard's resident mailboxes, timer-heap depth, and
  // kill-shed drops by pushes from this shard.
  uint64_t dispatch_depth() const;
  uint64_t timer_depth() const { return timers_.depth(); }
  uint64_t overload_sheds() const { return overload_sheds_.value(); }

 private:
  // An endpoint bound to this shard.  `batch` is Poll's half of a double
  // buffer: it swaps with the mailbox queue, so neither reallocates.
  struct Resident {
    Mailbox* box = nullptr;
    DeliverFn deliver;
    std::function<void()> drain_hook;
    std::deque<Packet> batch;
    bool attached = true;  // Cleared by Detach; the entry is reaped by Poll.
  };

  void Push(Mailbox* box, EndpointId src, const Bytes& flat);
  Resident* FindResident(EndpointId ep);
  void Bind(Mailbox* box, ChannelNetwork* owner);

  MailboxTable* table_;
  // Owning thread only.  Never resized during delivery: entries detached
  // mid-Poll are only marked, and reaped at the top of the next drain.
  std::vector<Resident> resident_;
  TimerHeap timers_;
  Waker waker_;
  NetworkStats stats_;
  std::atomic<int> pressure_{0};
  size_t shed_keep_ = 4096;
  RelaxedCounter overload_sheds_;
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_RUNTIME_CHANNEL_NETWORK_H_
