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
//   kMmsg — outgoing datagrams stage in the sending endpoint's ring, flushed
//     with one sendmmsg(2) when the ring fills or Flush() is called; sockets
//     drain with recvmmsg(2) straight into refcounted pool-backed buffers, so
//     a received payload is never copied after the kernel wrote it (the
//     slices handed to DeliverFn alias the pool chunk).
//   kUring — the same per-endpoint rings, submitted to an io_uring
//     submission/completion ring pair (UringEngine, udp_uring.h) instead of
//     per-burst syscalls: multishot receives into registered pool chunks,
//     batched send submission with one UDP GSO train per destination of a
//     stage, GRO splitting on receive.  Unavailable kernels (or seccomp, or the ENSEMBLE_URING=OFF
//     build) fall back to kMmsg with one LogUnsupportedOnce line.
// Below Send every backend shares one address table, one send stage (the
// endpoint's ring, whose slots and part arrays are reused in place), one
// msghdr builder (BuildSendMsg) and one receive-delivery step; a warm send
// path allocates nothing.
//
// Endpoint identity <-> address: every attached endpoint gets its own UDP
// socket bound to 127.0.0.1 with an ephemeral port.  One table maps each
// endpoint this network can reach to its port — its own endpoints and the
// ones AddPeer() published (another shard's, in the sharded runtime) alike —
// and its inverse attributes received datagrams to their source.  The
// kernel is the cross-shard data plane: a datagram always lands on the
// socket of whichever network owns its destination now, and an endpoint's
// port never changes when its socket moves between networks.
// Cross-process use would only need the same port exchange out of band.
//
// Timers, the idle budget, the waker, the stats and the handoff contract come
// from ShardNetwork (src/net/shard_network.h), shared with the runtime's
// in-process ChannelNetwork.  Threading: a UdpNetwork belongs to one thread
// (its shard's worker); other threads only poke waker(), whose eventfd sits
// in IdleWait's poll set, so an idle owner wakes as soon as work is posted.
//
// Platform: Linux only (the build refuses other systems), so sendmmsg,
// recvmmsg and eventfd are used directly.  Only io_uring keeps a runtime
// fallback, because kernels and seccomp policies may refuse it.

#ifndef ENSEMBLE_SRC_NET_UDP_H_
#define ENSEMBLE_SRC_NET_UDP_H_

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/net/shard_network.h"
#include "src/util/pool.h"

namespace ensemble {

class UringEngine;

// One datagram waiting in an endpoint's send stage: destination port plus
// the scatter-gather parts (refcounted Bytes — staging copies no payload).
struct StagedSend {
  uint16_t port = 0;
  Iovec gather;
};

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

class UdpNetwork final : public ShardNetwork {
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

  // Ownership handoff (see ShardNetwork).  Release() detaches `ep` WITHOUT
  // closing its socket: staged sends are flushed, and the socket plus the
  // registered deliver callback and drain hook are returned.  Adopt()
  // installs them on the thief's network.  Neither edits the address table:
  // the port goes with the socket, so every network that had it published
  // keeps reaching the endpoint (the kernel stays the data plane) and keeps
  // attributing its datagrams.  A network adopting an endpoint it never had published
  // receives for it but cannot address it.  Datagrams queued in the socket's
  // receive buffer travel with the fd: nothing in flight is lost or
  // reordered.
  ReleasedEndpoint Release(EndpointId ep) override;
  void Adopt(EndpointId ep, ReleasedEndpoint state) override;

  // Pushes every staged datagram to the wire (no-op when nothing is staged).
  void Flush() override;

  // Overload backpressure (thread-safe, see Network::SetPressure).  Level ≥ 1
  // tightens the staging auto-flush threshold to one datagram, so the staged
  // backends (mmsg, uring; eager is already per-datagram) stop holding
  // traffic while the system is shedding.  Level 2 has no
  // extra kernel-side effect here — the kernel socket buffers already drop
  // on overflow, which IS the drop-oldest policy for wire traffic.
  void SetPressure(int level) override {
    pressure_.store(level, std::memory_order_relaxed);
  }
  int pressure() const { return pressure_.load(std::memory_order_relaxed); }

  // See Network::SetDrainHook: hooks run after the last delivery of every
  // receive drain, before Poll() flushes the staging rings and returns.
  void SetDrainHook(EndpointId ep, std::function<void()> hook) override;

  // Drains every socket once, runs drain hooks and due timers, and flushes
  // the staging rings; returns events processed.  Nothing staged during the
  // drain outlives the call — the wire is caught up when Poll() returns.
  size_t Poll() override;
  // Polls repeatedly for up to `duration` wall-clock nanoseconds, sleeping in
  // poll(2) between batches.  Returns events processed.
  size_t PollFor(VTime duration);
  // One blocking iteration: Poll(), and if that found nothing, sleep in
  // poll(2) — on the sockets, the wakeup fd, and the next timer deadline,
  // capped at `max_wait` — then Poll() again.  The shard worker's loop body.
  size_t PollWait(VTime max_wait);

  // The blocking half of PollWait alone: sleep in poll(2) on the sockets +
  // wakeup fd (io_uring_enter on the uring backend), bounded by the idle
  // budget, consuming the wakeup.  Callers (the shard worker loop) Poll()
  // themselves around it so they can account busy time separately.
  void IdleWait(VTime max_wait) override;

  // Adds the receive pool's pool.* counters to the shared registration.
  void RegisterMetrics(obs::MetricsRegistry& reg, const std::string& tag) override;
  // Receive-pool bytes in flight (chunks delivered and not yet released).
  uint64_t buffered_bytes() const override { return recv_pool_.stats().bytes.live(); }

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
  // The port of a local or published endpoint; 0 when unknown.
  uint16_t PortOf(EndpointId ep) const;
  const PoolStats& recv_pool_stats() const { return recv_pool_.stats(); }
  const BufferPool& recv_pool() const { return recv_pool_; }

 private:
  struct Endpoint {
    int fd = -1;
    DeliverFn deliver;
    std::function<void()> drain_hook;  // See SetDrainHook.
    // The send stage (mmsg and uring): slots [0, staged) wait for a flush.
    // Slots stay constructed and keep their part arrays across flushes.
    std::vector<StagedSend> stage;
    size_t staged = 0;
  };

  // Staging auto-flush threshold after backpressure: 1 under pressure.  The
  // mmsg backend applies it to each endpoint's stage, uring to all of them.
  size_t EffectiveSendBatch() const {
    return pressure_.load(std::memory_order_relaxed) > 0 ? 1 : cfg_.batch;
  }

  void Stage(Endpoint& from, uint16_t port, const Iovec& gather);
  // Hands `ep`'s stage to the kernel (one sendmmsg loop) or to the engine
  // (queued ring sends, submitted by the caller) and empties it.
  void FlushEndpoint(Endpoint& ep);
  void FlushStages();
  // One scatter-gather sendmsg(2) on `fd` (the kEager datapath).
  void SendEager(int fd, uint16_t port, const Iovec& gather);
  // sendmmsg(2) of `n` staged datagrams on `fd`, resubmitting short counts.
  void SendBatch(int fd, const StagedSend* stage, size_t n);
  // The one receive-delivery step: attributes the source port, builds the
  // Packet and hands it to the destination's deliver callback.
  void DeliverDatagram(EndpointId dst, const DeliverFn& deliver, uint16_t src_port,
                       Bytes datagram);
  size_t DrainSockets();
  size_t DrainOneEager(Endpoint& state, EndpointId ep);
  size_t DrainOneBatched(Endpoint& state, EndpointId ep);
  // Re-lists the local sockets and the wakeup fd for IdleWait's poll(2).
  void RebuildPollFds();
  // Resolves cfg_.backend (uring setup, fallback) into
  // active_, creating or tearing down the engine as needed.
  void ResolveBackend();
  // Full engine teardown: cancels every armed recv, delivers everything the
  // ring already pulled in, resets the engine, and strips GRO so the
  // mmsg/eager drains see plain datagrams again.  `to` is the backend taking
  // over (assigned to active_ so deliveries during the quiesce route sanely).
  void ShutdownUring(NetBackend to);

  bool ok_ = true;
  NetBackendConfig cfg_;
  NetBackend active_ = NetBackend::kEager;
  std::unique_ptr<UringEngine> engine_;  // Live iff active_ == kUring.
  std::map<EndpointId, Endpoint> endpoints_;     // Local sockets.
  std::map<EndpointId, uint16_t> ports_;         // Local and published.
  std::map<uint16_t, EndpointId> by_port_;       // Inverse of ports_.
  size_t staged_total_ = 0;  // Datagrams waiting across every stage.
  std::atomic<int> pressure_{0};   // Overload backpressure level.
  BufferPool recv_pool_{65536};  // One chunk holds any datagram.
  // Reusable recvmmsg targets and the syscall's arrays, sized once to the
  // batch.
  std::vector<Bytes> recv_bufs_;
  std::vector<sockaddr_in> recv_addrs_;
  std::vector<iovec> recv_iov_;
  std::vector<mmsghdr> recv_msgs_;
  // The eager and mmsg send paths' msghdr storage; grows, never shrinks.
  std::vector<sockaddr_in> send_addrs_;
  std::vector<iovec> send_iov_;
  std::vector<mmsghdr> send_msgs_;
  std::vector<pollfd> poll_fds_;  // IdleWait's set; see RebuildPollFds.
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_NET_UDP_H_
