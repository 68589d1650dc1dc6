// UdpNetwork — real localhost sockets behind the Network interface.
//
// The paper's measurements ran over real UDP sockets; this implementation
// lets the same GroupEndpoint code run over the kernel's loopback instead of
// the simulator.  Scatter-gather sends use sendmsg(2) with one iovec entry
// per payload part — the actual "UNIX scatter-gather capability" the paper
// credits for its size-independent latencies — and receives are non-blocking
// and pumped by Poll().
//
// Datapath backends (NetBackendConfig::backend):
//   kEager — one sendmsg/recvfrom syscall per datagram (the latency benches
//     measure this path; it reproduces the seed behaviour exactly).
//   kMmsg — outgoing datagrams stage in a per-socket ring flushed with one
//     sendmmsg(2) when the ring fills or Flush() is called; sockets drain
//     with recvmmsg(2) straight into refcounted pool-backed buffers, so a
//     received payload is never copied after the kernel wrote it (the slices
//     handed to DeliverFn alias the pool chunk).
//   kUring — an io_uring submission/completion ring pair (UringEngine,
//     udp_uring.h) replaces the per-burst syscalls entirely: multishot
//     receives into registered pool chunks, batched send submission with UDP
//     GSO coalescing, GRO splitting on receive.  Unavailable kernels (or
//     seccomp, or the ENSEMBLE_URING=OFF build) fall back to kMmsg with one
//     LogUnsupportedOnce line.
//
// Endpoint identity ↔ address: every attached endpoint gets its own UDP
// socket bound to 127.0.0.1 with an ephemeral port, so the receiving socket
// names the destination endpoint and the registry maps source ports back to
// endpoint ids.  Endpoints owned by *another* UdpNetwork instance (another
// shard's, in the sharded runtime) are reachable after AddPeer() publishes
// their port here — the kernel is the cross-shard data plane, and a datagram
// always lands on the socket of the shard that owns its destination.
// Cross-process use would only need the same port exchange out of band.
//
// Threading: a UdpNetwork belongs to one thread (its shard's worker).  The
// only cross-thread entry point is Wakeup(), which pokes an eventfd so
// an owner blocked in PollWait()/PollFor() returns immediately — that is how
// the sharded runtime's rings get drained promptly while idle workers sleep
// in poll(2) instead of spinning.
//
// Platform: Linux only (the build refuses other systems), so sendmmsg,
// recvmmsg and eventfd are used directly.  Only io_uring keeps a runtime
// fallback, because kernels and seccomp policies may refuse it.

#ifndef ENSEMBLE_SRC_NET_UDP_H_
#define ENSEMBLE_SRC_NET_UDP_H_

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/net/network.h"
#include "src/perf/timer.h"
#include "src/util/pool.h"
#include "src/util/timer_heap.h"
#include "src/util/waker.h"

namespace ensemble {

class UringEngine;

// Which kernel datapath carries the datagrams (see the file comment).
enum class NetBackend { kEager, kMmsg, kUring };

const char* NetBackendName(NetBackend b);

// Who owns the kernel receive sockets: one socket per attached endpoint
// (see the file comment).  The enum has a single value only because the
// benchmark's workload setup still assigns NetBackendConfig::ingress.
enum class IngressMode { kPerEndpoint };

// The datapath choice every backend consumer (ShardRuntime, benches) passes
// around.  The uring ring geometry is fixed in udp_uring.cc.  Defaults
// reproduce the eager seed behaviour exactly (one syscall per datagram,
// heap-copied receives).
struct NetBackendConfig {
  NetBackend backend = NetBackend::kEager;
  // Datagrams per batch (mmsg/uring): the staging auto-flush threshold and
  // the recvmmsg vector length.
  size_t batch = 16;
  IngressMode ingress = IngressMode::kPerEndpoint;  // See IngressMode.

  static NetBackendConfig Eager() { return NetBackendConfig{}; }
  static NetBackendConfig Batched(size_t batch = 16) {
    NetBackendConfig c;
    c.backend = NetBackend::kMmsg;
    c.batch = batch;
    return c;
  }
  static NetBackendConfig Uring(size_t batch = 16) {
    NetBackendConfig c = Batched(batch);  // The batch doubles as the fallback's.
    c.backend = NetBackend::kUring;
    return c;
  }
};

class UdpNetwork : public Network {
 public:
  UdpNetwork();  // Out of line: UringEngine is incomplete here.
  ~UdpNetwork() override;

  UdpNetwork(const UdpNetwork&) = delete;
  UdpNetwork& operator=(const UdpNetwork&) = delete;

  void Attach(EndpointId ep, DeliverFn deliver) override;
  void Detach(EndpointId ep) override;
  void Send(EndpointId src, EndpointId dst, const Iovec& gather) override;

  // Publishes a remote endpoint (one attached to a different UdpNetwork,
  // typically another shard's) so local endpoints can Send to it
  // and received packets from its port are source-attributed.  Setup-time
  // only: call before the owning threads start polling.
  void AddPeer(EndpointId ep, uint16_t port);

  // Ownership handoff between shards (owning thread of each side only; the
  // sharded runtime sequences the two halves through its rings, which is the
  // happens-before edge).  Release() detaches `ep` WITHOUT closing its
  // socket: staged sends are flushed, the socket plus the registered deliver
  // callback and drain hook are returned, and the endpoint is re-registered
  // as a peer here (same port, so local endpoints keep reaching it — the
  // kernel keeps being the data plane).  Datagrams queued in the socket's
  // receive buffer travel with the fd: nothing in flight is lost or
  // reordered.  Adopt() installs a released endpoint on the thief's network
  // and drops any peer entry for it.
  struct ReleasedEndpoint {
    int fd = -1;
    uint16_t port = 0;
    DeliverFn deliver;
    std::function<void()> drain_hook;
    bool ok() const { return fd >= 0; }
  };
  ReleasedEndpoint Release(EndpointId ep);
  void Adopt(EndpointId ep, ReleasedEndpoint state);

  // Pushes every staged datagram to the wire (no-op when nothing is staged).
  void Flush() override;

  // Overload backpressure (thread-safe, see Network::SetPressure).  Level ≥ 1
  // tightens the staging auto-flush threshold to one datagram, so every
  // backend (mmsg ring, uring staged sends; eager is already per-datagram)
  // stops holding traffic while the system is shedding.  Level 2 has no
  // extra kernel-side effect here — the kernel socket buffers already drop
  // on overflow, which IS the drop-oldest policy for wire traffic.
  void SetPressure(int level) override {
    pressure_.store(level, std::memory_order_relaxed);
  }
  int pressure() const { return pressure_.load(std::memory_order_relaxed); }

  // Timer-heap depth, maintained as a relaxed atomic so the overload
  // manager's gauge can read it from any thread.
  uint64_t timer_depth() const { return timers_.depth(); }

  // See Network::SetDrainHook: hooks run after the last delivery of every
  // receive drain, before Poll() flushes the staging rings and returns.
  void SetDrainHook(EndpointId ep, std::function<void()> hook) override;

  // Timers fire from inside Poll()/PollFor().
  void ScheduleTimer(VTime delay, TimerFn fn) override;
  VTime Now() const override { return NowNanos(); }

  // Drains every socket once, runs drain hooks and due timers, and flushes
  // the staging rings; returns events processed.  Nothing staged during the
  // drain outlives the call — the wire is caught up when Poll() returns.
  size_t Poll();
  // Polls repeatedly for up to `duration` wall-clock nanoseconds, sleeping in
  // poll(2) between batches.  Returns events processed.
  size_t PollFor(VTime duration);
  // One blocking iteration: Poll(), and if that found nothing, sleep in
  // poll(2) — on the sockets, the wakeup fd, and the next timer deadline,
  // capped at `max_wait` — then Poll() again.  The shard worker's loop body.
  size_t PollWait(VTime max_wait);

  // The blocking half of PollWait alone: sleep in poll(2) on the sockets +
  // wakeup fd, bounded by the next timer deadline and `max_wait`, consuming
  // the wakeup.  Callers (the shard worker loop) Poll() themselves around it
  // so they can account busy time separately from idle time.
  void IdleWait(VTime max_wait);

  // The ONLY thread-safe methods: break the owner out of a PollWait/PollFor
  // sleep (e.g. after posting into the owner's task queue).  Wakeup
  // coalesces: a burst of cross-shard posts between two owner drains costs
  // one eventfd write.
  void Wakeup() { waker_.NotifyCoalesced(); }
  Waker& waker() { return waker_; }

  // Safe to change at any time; staged sends are flushed (and, when leaving
  // the uring backend, in-flight completions are drained) first.  Resolves
  // an unavailable kUring to the backend that will actually run — see
  // active_backend().
  void set_backend_config(NetBackendConfig config);
  const NetBackendConfig& backend_config() const { return cfg_; }
  // The backend datagrams actually flow through after fallback (kUring only
  // when the engine came up).
  NetBackend active_backend() const { return active_; }

  bool ok() const { return ok_; }
  uint16_t PortOf(EndpointId ep) const;
  const NetworkStats& stats() const { return stats_; }
  const PoolStats& recv_pool_stats() const { return recv_pool_.stats(); }
  const BufferPool& recv_pool() const { return recv_pool_; }

 private:
  // One staged outgoing datagram: destination port plus the scatter-gather
  // parts (refcounted Bytes — staging copies no payload bytes).
  struct Staged {
    uint16_t port;
    Iovec gather;
  };
  struct Endpoint {
    int fd = -1;
    uint16_t port = 0;
    DeliverFn deliver;
    std::vector<Staged> ring;  // Outgoing staging ring (batch_sends).
  };

  // Staging auto-flush threshold after backpressure: 1 under pressure.
  size_t EffectiveSendBatch() const {
    return pressure_.load(std::memory_order_relaxed) > 0 ? 1 : cfg_.batch;
  }

  void Enqueue(Endpoint& from, uint16_t port, const Iovec& gather);
  void FlushEndpoint(Endpoint& ep);
  // One scatter-gather sendmsg(2) on `fd` (the kEager datapath).
  void SendEager(int fd, uint16_t port, const Iovec& gather);
  size_t DrainSockets();
  size_t DrainOneEager(Endpoint& state, EndpointId ep);
  size_t DrainOneBatched(Endpoint& state, EndpointId ep);
  // Resolves cfg_.backend (uring setup, fallback) into
  // active_, creating or tearing down the engine as needed.
  void ResolveBackend();
  // Quiesces `fd` on the engine and delivers anything it had already pulled
  // off the wire (Detach/Release path; endpoint must still be attached).
  void UringQuiesce(int fd);
  // Full engine teardown: cancels every armed recv, delivers everything the
  // ring already pulled in, resets the engine, and strips GRO so the
  // mmsg/eager drains see plain datagrams again.  `to` is the backend taking
  // over (assigned to active_ so deliveries during the quiesce route sanely).
  void ShutdownUring(NetBackend to);

  bool ok_ = true;
  NetBackendConfig cfg_;
  NetBackend active_ = NetBackend::kEager;
  std::unique_ptr<UringEngine> engine_;  // Live iff active_ == kUring.
  std::map<EndpointId, Endpoint> endpoints_;
  std::map<EndpointId, uint16_t> peers_;  // Remote endpoints (other shards).
  std::map<uint16_t, EndpointId> by_port_;
  std::map<EndpointId, std::function<void()>> drain_hooks_;
  TimerHeap timers_;
  std::atomic<int> pressure_{0};   // Overload backpressure level.
  BufferPool recv_pool_{65536};  // One chunk holds any datagram.
  // Reusable recvmmsg targets and the syscall's arrays, sized once to the
  // batch.
  std::vector<Bytes> recv_bufs_;
  std::vector<sockaddr_in> recv_addrs_;
  std::vector<iovec> recv_iov_;
  std::vector<mmsghdr> recv_msgs_;
  Waker waker_;
  NetworkStats stats_;
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_NET_UDP_H_
