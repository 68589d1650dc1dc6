// ShardNetwork — the one contract a shard worker drives, whichever datapath
// carries its packets.
//
// Two Networks run under ShardRuntime's workers: UdpNetwork (kernel sockets,
// src/net/udp.h) and ChannelNetwork (in-process mailboxes,
// src/runtime/channel_network.h).  They differ in how a datagram travels and
// agree on everything around it, which lives here once:
//   - wall-clock timers: one TimerHeap, ScheduleTimer/Now, and the due-timer
//     run (with its kTimerFire trace) that each Poll() ends with;
//   - the idle sleep's budget, min(max_wait, next timer), and the Waker that
//     other threads poke after posting a task or pushing a packet;
//   - the NetworkStats counters;
//   - the ownership handoff: Release() unbinds an endpoint and returns one
//     ReleasedEndpoint (the socket when there is one, the deliver callback
//     and the drain hook); Adopt() on another shard's network rebinds it.
//     The endpoint's queue (kernel socket or mailbox) stays put meanwhile.
// Whatever else the runtime asks a network (its metrics, overload signals)
// the network answers itself, so the runtime names a backend only to build
// one.
//
// Threading: a ShardNetwork belongs to its shard's worker thread.  waker(),
// SetPressure() and the overload readings are the only cross-thread entry
// points.

#ifndef ENSEMBLE_SRC_NET_SHARD_NETWORK_H_
#define ENSEMBLE_SRC_NET_SHARD_NETWORK_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>

#include "src/net/network.h"
#include "src/perf/timer.h"
#include "src/util/timer_heap.h"
#include "src/util/waker.h"

namespace ensemble {
namespace obs {
class MetricsRegistry;
}  // namespace obs

class ShardNetwork : public Network {
 public:
  // One endpoint's binding in transit between two shards' networks.
  struct ReleasedEndpoint {
    int fd = -1;  // The endpoint's UDP socket; -1 on the channel backend.
    DeliverFn deliver;
    std::function<void()> drain_hook;
    bool valid = false;  // False when the endpoint was not resident.
  };

  void ScheduleTimer(VTime delay, TimerFn fn) override {
    timers_.Schedule(NowNanos() + delay, std::move(fn));
  }
  VTime Now() const override { return NowNanos(); }

  // Owning thread: deliver what is queued, run due timers, leave nothing
  // staged; returns events processed.
  virtual size_t Poll() = 0;
  // Owning thread: block until a packet or a waker notification arrives, the
  // next timer is due, or `max_wait` passes — whichever is first.  The base
  // sleeps on the waker alone.
  virtual void IdleWait(VTime max_wait);

  // Ownership handoff (owning thread of each side, outside Poll; the runtime
  // orders the two halves through its task queues).
  virtual ReleasedEndpoint Release(EndpointId ep) = 0;
  virtual void Adopt(EndpointId ep, ReleasedEndpoint state) = 0;

  // Registers this network's counters under the registry's shared names and
  // its per-network gauges under `tag` (one call per shard).
  virtual void RegisterMetrics(obs::MetricsRegistry& reg, const std::string& tag);

  // Overload readings (any thread, relaxed): bytes this network holds in
  // receive buffers, packets waiting in its resident queues, and packets its
  // pushes shed under kill pressure.  Zero where the backend has none.
  virtual uint64_t buffered_bytes() const { return 0; }
  virtual uint64_t dispatch_depth() const { return 0; }
  virtual uint64_t overload_sheds() const { return 0; }
  uint64_t timer_depth() const { return timers_.depth(); }

  // Thread-safe wakeup source for this shard (task posts and packet pushes).
  Waker& waker() { return waker_; }
  const NetworkStats& stats() const { return stats_; }

 protected:
  // Fires every due timer; returns how many fired.
  size_t RunDueTimers();
  // How long an idle sleep may last: until the next timer, at most max_wait.
  VTime IdleBudget(VTime max_wait) const {
    return std::min(max_wait, timers_.NanosUntilNext(NowNanos()));
  }

  TimerHeap timers_;
  Waker waker_;
  NetworkStats stats_;
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_NET_SHARD_NETWORK_H_
