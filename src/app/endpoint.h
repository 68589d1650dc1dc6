// GroupEndpoint — the public API of the library.
//
// One endpoint is one group member: a protocol stack (built from micro-
// protocol components), a transport, and — depending on the execution mode —
// compiled bypass routes, wired to a (simulated) network.  The four modes
// are the paper's four measured configurations:
//
//   kImperative (IMP)   central event scheduler
//   kFunctional (FUNC)  recursive functional composition
//   kMachine    (MACH)  compiled common-case bypass + header compression,
//                       normal FUNC stack for everything else (Fig. 4)
//   kHand       (HAND)  hand-fused 4-layer bypass, transport integrated
//
// Typical use:
//   GroupEndpoint ep(EndpointId{1}, &net, config);
//   ep.OnDeliver([](const Event& ev) { ... });
//   ep.Start(initial_view);
//   ep.Cast(Iovec(Bytes::CopyString("hello")));

#ifndef ENSEMBLE_SRC_APP_ENDPOINT_H_
#define ENSEMBLE_SRC_APP_ENDPOINT_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/bypass/conn_table.h"
#include "src/bypass/hand.h"
#include "src/net/network.h"
#include "src/overload/send_window.h"
#include "src/stack/engine.h"
#include "src/trans/transport.h"

namespace ensemble {

class CollectLayer;

enum class StackMode { kImperative, kFunctional, kMachine, kHand };
const char* StackModeName(StackMode m);

struct EndpointConfig {
  StackMode mode = StackMode::kFunctional;
  std::vector<LayerId> layers = TenLayerStack();
  LayerParams params;
  // Periodic kTimer injection (retransmission, heartbeats, acks).  0 = off.
  VTime timer_interval = Millis(1);
  // Transport-level message packing: outgoing wire datagrams for the same
  // destination coalesce into one packed datagram, flushed when pack_window
  // messages or Transport::EnablePacking's byte budget are staged, on every
  // periodic timer tick, and on explicit Flush().  Both the normal marshal
  // path and the compiled bypass send path emit into the pack.
  bool pack_messages = false;
  size_t pack_window = 16;
};

class GroupEndpoint {
 public:
  // RelaxedCounter: written only by the owning shard's thread, but metrics
  // snapshots read them live from other threads.
  struct Stats {
    RelaxedCounter casts = 0;
    RelaxedCounter sends = 0;
    RelaxedCounter delivered = 0;
    RelaxedCounter bypass_down = 0;       // Fast-path sends.
    RelaxedCounter bypass_down_miss = 0;  // CCP said no: normal path used.
    RelaxedCounter bypass_up = 0;  // Fast-path receives: deliveries and consumed gossip.
    RelaxedCounter bypass_up_fallback = 0;
    RelaxedCounter packets_in = 0;
    RelaxedCounter packed_in = 0;  // Sub-messages split out of packed datagrams.
    RelaxedCounter window_shed = 0;  // Casts/Sends refused by the send window.
  };

  using DeliverFn = std::function<void(const Event&)>;
  using ViewFn = std::function<void(const ViewRef&)>;

  GroupEndpoint(EndpointId self, Network* net, EndpointConfig config);
  ~GroupEndpoint();

  GroupEndpoint(const GroupEndpoint&) = delete;
  GroupEndpoint& operator=(const GroupEndpoint&) = delete;

  // Installs the initial view, compiles bypass routes (MACH/HAND), and arms
  // the periodic timer.
  void Start(ViewRef initial_view);

  // Switches to a different protocol stack on the fly (paper §4.1.3 / [25]:
  // "Ensemble's support for dynamically loading layers and switching
  // protocol stacks").  The switch happens at a view boundary: `new_view`
  // must carry a higher view counter and the same composition must be
  // installed by every member (the harness's SwitchAll coordinates this);
  // traffic still in flight from the old view is discarded by the new
  // bottom layer's view stamp.
  void SwitchStack(std::vector<LayerId> layers, ViewRef new_view);

  // Multicast to the whole group / point-to-point to a rank.
  void Cast(Iovec payload);
  void Send(Rank dest, Iovec payload);

  // Overload gate (optional; default none).  When set, Cast/Send reserve
  // payload bytes × fan-out against the group's send window at entry and
  // shed the message (counted in stats().window_shed, trace-ringed) when the
  // window is exhausted.  Only NEW application traffic is gated — protocol
  // traffic emitted by the layers never consults the window.  The runtime's
  // delivery tap credits the window back per delivery.
  void SetSendWindow(overload::SendWindow* w) { send_window_ = w; }
  overload::SendWindow* send_window() const { return send_window_; }

  // Batching boundary: emits every staged packed datagram and pushes the
  // network's own staging rings to the wire.  Cheap no-op when nothing is
  // staged; the periodic timer also flushes, so unflushed traffic is only
  // delayed, never stuck.
  void Flush();

  // Migration support (the sharded runtime's work stealing): an endpoint can
  // be rebound to a different Network — another shard's backend — without its
  // stack, transport, or bypass routes ever seeing a second thread.  The
  // caller (ShardRuntime) sequences the two halves through its cross-shard
  // rings: BeginRebind runs on the CURRENT owning thread (flushes staged
  // traffic and invalidates timers still queued on the old network's heap —
  // they fire there, observe a stale epoch, and return without touching the
  // stack); FinishRebind runs on the NEW owning thread after the backend
  // state moved, repointing the endpoint and re-arming its periodic timer.
  void BeginRebind();
  void FinishRebind(Network* net);

  // Leaves the group: the endpoint goes silent and detaches from the
  // network.  Remaining members' failure detectors observe the silence and
  // vote the leaver out (membership stacks), exactly like a crash — Ensemble
  // distinguishes graceful leaves only as an optimization.
  void Leave();

  void OnDeliver(DeliverFn fn) { on_deliver_ = std::move(fn); }
  void OnView(ViewFn fn) { on_view_ = std::move(fn); }
  void OnExit(std::function<void()> fn) { on_exit_ = std::move(fn); }

  EndpointId id() const { return self_; }
  Rank rank() const { return view_ ? view_->RankOf(self_) : kNoRank; }
  const ViewRef& view() const { return view_; }
  ProtocolStack* stack() { return stack_.get(); }
  const Stats& stats() const { return stats_; }
  const EndpointConfig& config() const { return config_; }

  // The composed optimization theorems of the compiled routes (MACH/HAND).
  std::string DescribeBypass() const;

  // Exposed for the latency benches, which drive the phases by hand.
  RoutePair* cast_route() { return cast_route_.get(); }
  // Collect's stability gossip route (MACH stacks whose rules compose it).
  RoutePair* gossip_route() { return gossip_route_.get(); }
  Transport& transport() { return transport_; }
  void InjectDatagram(const Bytes& datagram);  // As if received from the net.

 private:
  void HandleStackDnOut(Event ev);
  void HandleStackUpOut(Event ev);
  void HandlePacket(const Packet& packet);
  void EmitCastWire(const Iovec& wire);
  void SendToView(const Iovec& wire);
  void EmitSendWire(Rank dest, const Iovec& wire);
  void InstallView(ViewRef v);
  void CompileBypass();
  // Casts a gossip round through gossip_route_ (the normal path below
  // collect on a CCP miss); EmitDueGossip does so when a bypassed delivery
  // completed an interval.
  void EmitGossip();
  void EmitDueGossip();
  void ArmTimer();

  EndpointId self_;
  Network* net_;
  EndpointConfig config_;
  std::unique_ptr<ProtocolStack> stack_;
  ConnTable conns_;
  Transport transport_;
  std::unique_ptr<RoutePair> cast_route_;
  std::unique_ptr<RoutePair> send_route_;
  std::unique_ptr<RoutePair> gossip_route_;
  CollectLayer* gossip_origin_ = nullptr;  // Set while gossip_route_ is.
  std::unique_ptr<Hand4Bypass> hand_;
  ViewRef view_;
  DeliverFn on_deliver_;
  ViewFn on_view_;
  std::function<void()> on_exit_;
  overload::SendWindow* send_window_ = nullptr;
  Stats stats_;
  bool started_ = false;
  bool alive_ = true;  // Cleared on kExit (excluded from a view).
  std::shared_ptr<bool> alive_token_;  // Guards timer callbacks after dtor.
  // Bumped by BeginRebind: a timer armed before a migration carries the old
  // value and bails out (the ONLY field it may read — everything else still
  // belongs to the new owning thread).
  std::atomic<uint64_t> net_epoch_{0};
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_APP_ENDPOINT_H_
