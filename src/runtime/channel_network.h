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
// Timers, the idle sleep on the waker, the stats and the handoff contract are
// ShardNetwork's (src/net/shard_network.h), shared with UdpNetwork; this file
// adds only the mailbox datapath.  Lossless and FIFO per sender, including
// across migrations; under overload (pressure level 2) a push drops the
// mailbox's OLDEST packet once its depth exceeds the shed keep.

#ifndef ENSEMBLE_SRC_RUNTIME_CHANNEL_NETWORK_H_
#define ENSEMBLE_SRC_RUNTIME_CHANNEL_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/net/shard_network.h"
#include "src/util/counters.h"
#include "src/util/flat_map.h"

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

class ChannelNetwork final : public ShardNetwork {
 public:
  // `shed_keep`: the mailbox depth a push keeps under kill pressure.
  explicit ChannelNetwork(MailboxTable* table, size_t shed_keep = 4096)
      : table_(table), shed_keep_(shed_keep) {}

  void Attach(EndpointId ep, DeliverFn deliver) override;
  // Closes the mailbox: queued packets and later pushes count as dropped.
  void Detach(EndpointId ep) override;
  void Send(EndpointId src, EndpointId dst, const Iovec& gather) override;
  void SetDrainHook(EndpointId ep, std::function<void()> hook) override;
  // Overload backpressure: at level >= 2 (kill watermark) a push drops the
  // mailbox's OLDEST packet once its depth exceeds the shed keep — channel
  // traffic is datagram-semantics, so layers recover exactly as from a lossy
  // wire.
  void SetPressure(int level) override {
    pressure_.store(level, std::memory_order_relaxed);
  }

  // Ownership handoff (see ShardNetwork).  The mailbox stays where it is;
  // only the binding travels (ReleasedEndpoint::fd stays -1).
  ReleasedEndpoint Release(EndpointId ep) override;
  void Adopt(EndpointId ep, ReleasedEndpoint state) override;

  // Owning thread: deliver what every resident mailbox holds now, run the
  // drain hooks, then run due timers.
  size_t Poll() override;
  // The mailbox/hook half of Poll() without firing timers: the post-Stop
  // sweep uses it so periodic timers can't regenerate traffic forever.
  size_t DrainQueues();

  // Packets waiting in this shard's resident mailboxes, and kill-shed drops
  // by pushes from this shard.
  uint64_t dispatch_depth() const override;
  uint64_t overload_sheds() const override { return overload_sheds_.value(); }

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
  std::atomic<int> pressure_{0};
  const size_t shed_keep_;
  RelaxedCounter overload_sheds_;
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_RUNTIME_CHANNEL_NETWORK_H_
