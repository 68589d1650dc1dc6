// Simulated datagram networks.
//
// The paper's specification section (Fig. 2) distinguishes a FIFO network
// from a network "that reorders, duplicates, and loses messages"; the
// protocol stacks are exactly the machinery that turns the latter into the
// former (and more).  SimNetwork implements the lossy model with seeded
// randomness; with all fault probabilities at zero and zero jitter it is the
// FIFO network.  Per-link partitions support the membership tests.

#ifndef ENSEMBLE_SRC_NET_NETWORK_H_
#define ENSEMBLE_SRC_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>

#include "src/event/types.h"
#include "src/marshal/wire_tags.h"
#include "src/net/sim_queue.h"
#include "src/util/bytes.h"
#include "src/util/counters.h"
#include "src/util/rng.h"
#include "src/util/vtime.h"

namespace ensemble {

// A datagram in flight, always addressed to one endpoint (a cast is one
// Packet per member of the sender's view).  `datagram` is contiguous: the
// sending NIC gathers the scatter-gather parts (see SimNetwork::Send), the
// receiver sees one buffer and slices it zero-copy.
struct Packet {
  EndpointId src;
  EndpointId dst;
  Bytes datagram;
};

// Counters are relaxed atomics (RelaxedCounter): each network instance is
// still written single-threaded (its owning shard), but the metrics registry
// merges per-shard instances from other threads, and benches snapshot them
// while workers run.
struct NetworkStats {
  RelaxedCounter sent = 0;
  RelaxedCounter delivered = 0;
  RelaxedCounter dropped = 0;
  RelaxedCounter duplicated = 0;
  RelaxedCounter delayed_extra = 0;  // Packets given reordering delay.
  RelaxedCounter bytes_sent = 0;
  // Batched-I/O observability (the throughput bench's raw material).  A
  // backend without a real syscall boundary (the simulator) leaves the
  // syscall counters at zero but still classifies packed datagrams.
  RelaxedCounter send_syscalls = 0;      // sendmsg/sendmmsg invocations.
  RelaxedCounter recv_syscalls = 0;      // recvfrom/recvmmsg invocations.
  RelaxedCounter send_batches = 0;       // Staged flushes covering >1 datagram.
  RelaxedCounter batched_datagrams = 0;  // Datagrams routed through a staging ring.
  RelaxedCounter max_send_batch = 0;     // Largest single flush (datagrams).
  RelaxedCounter packed_datagrams = 0;   // Datagrams carrying packed sub-messages.
  RelaxedCounter packed_submsgs = 0;     // Sub-messages inside those datagrams.
  // io_uring backend observability (zero on the eager/mmsg paths).  The
  // syscall story for uring is uring_enters: one enter can submit a whole
  // flush of SQEs and reap a burst of CQEs, so syscalls/msg compares
  // send_syscalls + recv_syscalls + uring_enters across backends.
  RelaxedCounter uring_enters = 0;       // io_uring_enter(2) invocations.
  RelaxedCounter uring_sqes = 0;         // Submission entries pushed.
  RelaxedCounter uring_sqe_batches = 0;  // Submissions covering >1 SQE.
  RelaxedCounter uring_cqes = 0;         // Completion entries reaped.
  RelaxedCounter uring_cqe_batches = 0;  // Reaps covering >1 CQE.
  RelaxedCounter gso_sends = 0;          // UDP_SEGMENT super-datagrams sent.
  RelaxedCounter gso_segments = 0;       // Wire datagrams inside them.
  RelaxedCounter gro_recvs = 0;          // Coalesced receives (UDP_GRO trains).
  RelaxedCounter gro_segments = 0;       // Logical datagrams split out of them.
  RelaxedCounter bufring_refills = 0;    // Registered buffer-ring re-provisions.
  // Gauge-like mode field (written with `=`, never incremented): the backend
  // the datapath actually resolved to after probing and fallback.  The obs
  // adapters export it as the net.backend_active gauge so BENCH/TRACE
  // artifacts record the configuration that ran, not the one requested.
  RelaxedCounter backend_active = 0;  // NetBackend: 0 eager, 1 mmsg, 2 uring.
};

// Classifies an outgoing datagram for the packing counters.  The packed
// header ([tag u8][count u8]) is always emitted as one leading part (or the
// datagram is already flat), so the first two logical bytes sit in part 0.
inline void CountIfPacked(NetworkStats* stats, const Iovec& gather) {
  if (gather.part_count() > 0 && gather.part(0).size() >= 2 &&
      gather.part(0)[0] == kWirePacked) {
    stats->packed_datagrams++;
    stats->packed_submsgs += gather.part(0)[1];
  }
}

// Abstract datagram network + timer facility: what a protocol endpoint needs
// from its environment.  Implemented by SimNetwork (deterministic discrete-
// event simulation) and, under the sharded runtime's ShardNetwork contract
// (src/net/shard_network.h), UdpNetwork (real localhost sockets) and
// ChannelNetwork (in-process mailboxes).
class Network {
 public:
  using DeliverFn = std::function<void(const Packet&)>;
  using TimerFn = std::function<void()>;

  virtual ~Network() = default;

  virtual void Attach(EndpointId ep, DeliverFn deliver) = 0;
  virtual void Detach(EndpointId ep) = 0;
  // The one send primitive: `dst` is a local endpoint or a published peer.
  // A group cast is one Send per member of the sender's view.
  virtual void Send(EndpointId src, EndpointId dst, const Iovec& gather) = 0;
  // No library code calls this, and it fails if called: a cast goes to the
  // view's members, not to everything the network reaches.  It remains
  // declared only because the perfbench tracing decorator overrides it.
  virtual void Broadcast(EndpointId src, const Iovec& gather);
  // One-shot timer `delay` from now; fires in the network's execution context
  // (the sim queue / the UDP poll loop).
  virtual void ScheduleTimer(VTime delay, TimerFn fn) = 0;
  virtual VTime Now() const = 0;
  // Batching boundary: a backend that stages outgoing datagrams (UdpNetwork's
  // sendmmsg ring) pushes everything staged to the wire here.  Backends that
  // transmit eagerly need no action.
  virtual void Flush() {}
  // Registers a per-endpoint hook that a polling backend runs after the last
  // delivery of each receive drain (and removes on Detach or an empty fn).
  // Endpoints use it to flush response traffic staged during the drain —
  // without it, a packed message staged by a deliver callback would sit until
  // the next periodic timer (or forever, with timers off).  Event-scheduled
  // backends (the simulator) have no drain boundary and may ignore it.
  virtual void SetDrainHook(EndpointId ep, std::function<void()> hook) {}
  // Backpressure signal from the overload manager.  Must be callable from any
  // thread (backends store it in an atomic read on their own thread).
  // Level 0 = normal; 1 = tighten batching (flush staged sends per message
  // instead of waiting for a full batch); 2 = additionally shed: drop-oldest
  // on unbounded non-reliable queues past the backend's keep depth.  Backends
  // without staging or queues (the simulator) may ignore it.
  virtual void SetPressure(int level) {}
};

// Fault and latency model.  All probabilities are per delivery attempt.
struct NetworkConfig {
  VTime latency = Micros(40);  // One-way link latency.
  VTime jitter = 0;            // Uniform extra delay in [0, jitter].
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  double reorder_prob = 0.0;    // Chance of an extra reorder_delay.
  VTime reorder_delay = Micros(200);
  uint64_t seed = 1;

  static NetworkConfig Perfect() { return NetworkConfig{}; }
  static NetworkConfig Lossy(double drop, double dup, double reorder, uint64_t seed) {
    NetworkConfig c;
    c.drop_prob = drop;
    c.dup_prob = dup;
    c.reorder_prob = reorder;
    c.jitter = Micros(20);
    c.seed = seed;
    return c;
  }
};

class SimNetwork : public Network {
 public:
  SimNetwork(SimQueue* queue, NetworkConfig config)
      : queue_(queue), config_(config), rng_(config.seed) {}

  // Registers an endpoint; `deliver` runs in simulation context when a packet
  // for it arrives.
  void Attach(EndpointId ep, DeliverFn deliver) override {
    endpoints_[ep] = std::move(deliver);
  }
  void Detach(EndpointId ep) override { endpoints_.erase(ep); }
  bool IsAttached(EndpointId ep) const { return endpoints_.count(ep) > 0; }

  // Sends a gathered datagram.  The flatten here models the NIC gather DMA
  // and is outside the measured protocol code latency.
  void Send(EndpointId src, EndpointId dst, const Iovec& gather) override;

  void ScheduleTimer(VTime delay, TimerFn fn) override {
    queue_->After(delay, std::move(fn));
  }
  VTime Now() const override { return queue_->now(); }

  // Observation tap: called for every packet accepted for delivery (after
  // loss) with the delivery time.  Drives the PacketTrace debugging tool.
  using TapFn = std::function<void(VTime deliver_at, const Packet&)>;
  void SetTap(TapFn tap) { tap_ = std::move(tap); }

  // Cuts / restores the (bidirectional) link between two endpoints.
  void SetLinkUp(EndpointId a, EndpointId b, bool up);
  // Cuts / restores all links of one endpoint (crash emulation).
  void SetNodeUp(EndpointId a, bool up);

  // Swaps the fault knobs mid-run (loss/reorder bursts in scenario
  // schedules).  Latency and seed are left alone — the RNG stream continues,
  // so a run stays reproducible from the construction seed plus the schedule
  // of SetFaults calls.  Packets already in flight keep their old fate.
  void SetFaults(double drop_prob, double dup_prob, double reorder_prob) {
    config_.drop_prob = drop_prob;
    config_.dup_prob = dup_prob;
    config_.reorder_prob = reorder_prob;
  }
  const NetworkConfig& config() const { return config_; }

  const NetworkStats& stats() const { return stats_; }
  SimQueue* queue() { return queue_; }

 private:
  void DeliverOne(const Packet& packet);
  bool LinkUp(EndpointId a, EndpointId b) const;

  SimQueue* queue_;
  NetworkConfig config_;
  Rng rng_;
  std::map<EndpointId, DeliverFn> endpoints_;
  std::set<std::pair<uint64_t, uint64_t>> cut_links_;
  std::set<uint64_t> down_nodes_;
  TapFn tap_;
  NetworkStats stats_;
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_NET_NETWORK_H_
