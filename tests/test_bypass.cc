// Unit tests: bypass rules, the route compiler, connection table, header
// compression, fallback reconstruction, and the hand-written bypass.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "src/app/harness.h"
#include "src/bypass/compiler.h"
#include "src/bypass/conn_table.h"
#include "src/bypass/hand.h"
#include "src/layers/collect.h"
#include "src/layers/mnak.h"
#include "src/layers/total.h"
#include "src/marshal/generic_codec.h"
#include "src/trans/transport.h"

namespace ensemble {
namespace {

struct BypassFixture {
  std::unique_ptr<ProtocolStack> tx;
  std::unique_ptr<ProtocolStack> rx;
  std::unique_ptr<RoutePair> tx_route;
  std::unique_ptr<RoutePair> rx_route;
  std::vector<Event> rx_dn_out;

  BypassFixture(const std::vector<LayerId>& layers, LayerParams params = Quiet()) {
    tx = BuildStack(EngineKind::kFunctional, layers, params, EndpointId{1});
    rx = BuildStack(EngineKind::kFunctional, layers, params, EndpointId{2});
    tx->set_dn_out([](Event) {});
    tx->set_up_out([](Event) {});
    rx->set_dn_out([this](Event ev) { rx_dn_out.push_back(std::move(ev)); });
    rx->set_up_out([this](Event ev) {
      if (ev.type == EventType::kDeliverCast || ev.type == EventType::kDeliverSend) {
        rx_deliveries.push_back(std::move(ev));
      }
    });
    auto view = std::make_shared<View>();
    view->vid = ViewId{0, 1};
    view->members = {EndpointId{1}, EndpointId{2}};
    tx->Init(view);
    rx->Init(view);
    std::string error;
    tx_route = CompileRoutePair(tx.get(), true, &error);
    EXPECT_NE(tx_route, nullptr) << error;
    rx_route = CompileRoutePair(rx.get(), true, &error);
    EXPECT_NE(rx_route, nullptr) << error;
  }

  static LayerParams Quiet() {
    LayerParams p;
    p.local_loopback = false;
    p.stable_interval = 1u << 30;
    p.mflow_window = 1u << 30;
    return p;
  }

  std::vector<Event> rx_deliveries;
};

TEST(CompilerTest, TenLayerCastRouteCompiles) {
  BypassFixture f(TenLayerStack());
  EXPECT_EQ(f.tx_route->var_count(), 2u);  // mnak seqno + total gseq.
  // Header compression: "typically just 16 bytes".
  EXPECT_LE(f.tx_route->wire_header_bytes(), 16u);
}

TEST(CompilerTest, ConnIdsAgreeAcrossEndpoints) {
  BypassFixture f(TenLayerStack());
  EXPECT_EQ(f.tx_route->conn_id(), f.rx_route->conn_id());
}

TEST(CompilerTest, ConnIdsDifferAcrossStacksAndKinds) {
  BypassFixture ten(TenLayerStack());
  BypassFixture four(FourLayerStack());
  EXPECT_NE(ten.tx_route->conn_id(), four.tx_route->conn_id());
  std::string error;
  auto send_route = CompileRoutePair(ten.tx.get(), false, &error);
  ASSERT_NE(send_route, nullptr) << error;
  EXPECT_NE(send_route->conn_id(), ten.tx_route->conn_id());
}

TEST(CompilerTest, ConnIdChangesWithView) {
  // The bottom layer's view counter is a compile-time constant of the route:
  // a different view produces a different id (stale traffic cannot alias).
  BypassFixture f(TenLayerStack());
  uint32_t before = f.tx_route->conn_id();
  Event nv = Event::OfType(EventType::kView);
  auto view = std::make_shared<View>();
  view->vid = ViewId{0, 2};
  view->members = {EndpointId{1}, EndpointId{2}};
  nv.view = view;
  f.tx->Down(std::move(nv));  // Reset lower layers into the new view.
  std::string error;
  auto recompiled = CompileRoutePair(f.tx.get(), true, &error);
  ASSERT_NE(recompiled, nullptr) << error;
  EXPECT_NE(recompiled->conn_id(), before);
}

TEST(CompilerTest, MissingRuleBlocksCompilation) {
  // The membership stack includes layers without a-priori optimizations.
  LayerParams params;
  auto stack = BuildStack(EngineKind::kFunctional,
                          {LayerId::kTop, LayerId::kSuspect, LayerId::kPt2pt, LayerId::kMnak,
                           LayerId::kBottom},
                          params, EndpointId{1});
  auto view = std::make_shared<View>();
  view->vid = ViewId{0, 1};
  view->members = {EndpointId{1}};
  stack->Init(view);
  std::string error;
  EXPECT_EQ(CompileRoutePair(stack.get(), true, &error), nullptr);
  EXPECT_NE(error.find("suspect"), std::string::npos);
}

TEST(CompilerTest, DescribeRendersComposedTheorem) {
  BypassFixture f(TenLayerStack());
  std::string text = f.tx_route->Describe();
  EXPECT_NE(text.find("OPTIMIZING LAYER mnak"), std::string::npos);
  EXPECT_NE(text.find("seqno var"), std::string::npos);
  EXPECT_NE(text.find("s_bottom.enabled"), std::string::npos);
  EXPECT_NE(text.find("YIELDS header {kind=0 const} UPDATING data_since_gossip = 1"),
            std::string::npos);
}

TEST(CompilerTest, BypassedCastArmsStabilityGossip) {
  // The compiled Dn/Cast route must do what CollectLayer::Dn does: mark that
  // this member cast data, so its timer reports acks even if it never
  // delivers data itself.
  BypassFixture f(TenLayerStack());
  auto* collect = f.tx->FindLayer(LayerId::kCollect);
  const auto* fast = static_cast<const CollectFast*>(collect->FastState());
  EXPECT_EQ(fast->data_since_gossip, 0);
  Event ev = Event::Cast(Iovec(Bytes::CopyString("x")));
  Iovec wire;
  ASSERT_TRUE(f.tx_route->TryDown(ev, &wire, nullptr));
  EXPECT_EQ(fast->data_since_gossip, 1);
}

TEST(RoundTripTest, BypassToBypassDelivers) {
  BypassFixture f(TenLayerStack());
  for (int i = 0; i < 5; i++) {
    Event ev = Event::Cast(Iovec(Bytes::CopyString("msg" + std::to_string(i))));
    Iovec wire;
    ASSERT_TRUE(f.tx_route->TryDown(ev, &wire, nullptr));
    Bytes datagram = wire.Flatten();
    Event out;
    ASSERT_EQ(f.rx_route->TryUp(datagram, 6, 0, &out), RoutePair::UpResult::kDelivered);
    EXPECT_EQ(out.type, EventType::kDeliverCast);
    EXPECT_EQ(out.origin, 0);
    EXPECT_EQ(out.payload.Flatten().view(), "msg" + std::to_string(i));
  }
}

TEST(RoundTripTest, CcpMissFallsBackWithReconstructedHeaders) {
  BypassFixture f(TenLayerStack());
  // Send seqno 0 and 1, but deliver 1 first: the receive CCP fails and the
  // reconstructed event must flow through the normal stack, which buffers it
  // and delivers both once 0 arrives — protocol state shared between paths.
  Event ev0 = Event::Cast(Iovec(Bytes::CopyString("first")));
  Event ev1 = Event::Cast(Iovec(Bytes::CopyString("second")));
  Iovec w0, w1;
  ASSERT_TRUE(f.tx_route->TryDown(ev0, &w0, nullptr));
  ASSERT_TRUE(f.tx_route->TryDown(ev1, &w1, nullptr));
  Bytes d0 = w0.Flatten();
  Bytes d1 = w1.Flatten();

  Event out;
  ASSERT_EQ(f.rx_route->TryUp(d1, 6, 0, &out), RoutePair::UpResult::kFallback);
  f.rx->Up(std::move(out));  // Normal path: buffers out-of-order arrival.
  EXPECT_TRUE(f.rx_deliveries.empty());

  ASSERT_EQ(f.rx_route->TryUp(d0, 6, 0, &out), RoutePair::UpResult::kFallback)
      << "mnak backlog non-empty: the fast path must refuse and let the "
         "normal path flush";
  f.rx->Up(std::move(out));
  ASSERT_EQ(f.rx_deliveries.size(), 2u);
  EXPECT_EQ(f.rx_deliveries[0].payload.Flatten().view(), "first");
  EXPECT_EQ(f.rx_deliveries[1].payload.Flatten().view(), "second");
}

TEST(RoundTripTest, MixedPathsShareState) {
  // Alternate bypass and normal path on the sender; the receiver must see a
  // gap-free sequence either way.
  BypassFixture f(TenLayerStack());
  Transport transport;
  ConnTable conns;
  conns.Register(f.rx_route.get());
  transport.set_conn_table(&conns);

  std::vector<Bytes> wire_msgs;
  std::vector<Event> tx_bottom;
  f.tx->set_dn_out([&](Event ev) { tx_bottom.push_back(std::move(ev)); });

  for (int i = 0; i < 6; i++) {
    if (i % 2 == 0) {
      Event ev = Event::Cast(Iovec(Bytes::CopyString("m" + std::to_string(i))));
      Iovec wire;
      ASSERT_TRUE(f.tx_route->TryDown(ev, &wire, nullptr));
      wire_msgs.push_back(wire.Flatten());
    } else {
      f.tx->Down(Event::Cast(Iovec(Bytes::CopyString("m" + std::to_string(i)))));
      ASSERT_FALSE(tx_bottom.empty());
      wire_msgs.push_back(GenericMarshal(tx_bottom.back(), 0).Flatten());
      tx_bottom.clear();
    }
  }
  for (const Bytes& datagram : wire_msgs) {
    Transport::UpResult up = transport.DispatchUp(datagram);
    if (up.kind == Transport::UpKind::kDelivered) {
      f.rx_deliveries.push_back(std::move(up.ev));
    } else if (up.kind == Transport::UpKind::kStackEvent) {
      f.rx->Up(std::move(up.ev));
    }
  }
  ASSERT_EQ(f.rx_deliveries.size(), 6u);
  for (int i = 0; i < 6; i++) {
    EXPECT_EQ(f.rx_deliveries[static_cast<size_t>(i)].payload.Flatten().view(),
              "m" + std::to_string(i));
  }
}

TEST(RoundTripTest, DownCcpMissLeavesStateUntouched) {
  BypassFixture f(TenLayerStack());
  // Make the total layer's CCP fail: move the token away.
  auto* total = static_cast<TotalLayer*>(f.tx->FindLayer(LayerId::kTotal));
  total->fast().token_holder = 1;
  uint64_t digest_before = total->StateDigest();
  auto* mnak = static_cast<MnakLayer*>(f.tx->FindLayer(LayerId::kMnak));
  uint64_t mnak_before = mnak->StateDigest();

  Event ev = Event::Cast(Iovec(Bytes::CopyString("refused")));
  Iovec wire;
  EXPECT_FALSE(f.tx_route->TryDown(ev, &wire, nullptr));
  EXPECT_EQ(total->StateDigest(), digest_before);
  EXPECT_EQ(mnak->StateDigest(), mnak_before);  // No half-applied updates.
}

TEST(RoundTripTest, BypassRetransmissionsCarryUpperHeaders) {
  // The needs_upper_headers machinery: a cast sent via bypass and then
  // NAK-retransmitted through the normal path must reach the receiver with
  // poppable headers for every layer above mnak.
  BypassFixture f(TenLayerStack());
  Event ev = Event::Cast(Iovec(Bytes::CopyString("keep-me")));
  Iovec wire;
  ASSERT_TRUE(f.tx_route->TryDown(ev, &wire, nullptr));
  // Receiver never got it; a NAK arrives at the sender's normal stack.
  std::vector<Event> tx_bottom;
  f.tx->set_dn_out([&](Event e) { tx_bottom.push_back(std::move(e)); });
  Event nak = Event::DeliverSend(1, Iovec());
  nak.hdrs.Push(LayerId::kMnak, MnakHeader{kMnakNak, 0, 0, 1});
  nak.hdrs.Push(LayerId::kBottom, BottomHeader{0, 1});
  f.tx->Up(std::move(nak));
  ASSERT_EQ(tx_bottom.size(), 1u);
  // Marshal the retransmission and deliver it at the receiver.
  Bytes datagram = GenericMarshal(tx_bottom[0], 0).Flatten();
  Event up;
  ASSERT_TRUE(GenericUnmarshal(datagram, &up));
  f.rx->Up(std::move(up));
  ASSERT_EQ(f.rx_deliveries.size(), 1u);
  EXPECT_EQ(f.rx_deliveries[0].payload.Flatten().view(), "keep-me");
}

// ---------------------------------------------------------------------------
// Retransmissions of bypassed messages: the saved message keeps the route's
// vars, and the header stack it builds on a retransmission must give the
// same generic wire as the FUNC stack's retransmission of the same message.
// ---------------------------------------------------------------------------

// The generic wires `stack` emits while `fn` runs.
std::vector<std::string> EmittedWires(ProtocolStack* stack, const std::function<void()>& fn) {
  std::vector<std::string> wires;
  stack->set_dn_out(
      [&](Event ev) { wires.push_back(GenericMarshal(ev, 0).Flatten().ToString()); });
  fn();
  stack->set_dn_out([](Event) {});
  return wires;
}

// A NAK for my casts [0, hi) from rank 1, as it reaches the bottom layer.
Event NakFromPeer(uint32_t hi) {
  Event nak = Event::DeliverSend(1, Iovec());
  nak.hdrs.Push(LayerId::kMnak, MnakHeader{kMnakNak, 0, 0, hi});
  nak.hdrs.Push(LayerId::kBottom, BottomHeader{0, 1});
  return nak;
}

// Sends three casts (or sends to rank 1) down `bypassed` through `down`
// and down `func`'s normal stack, then runs `trigger` on both: the
// retransmissions must be byte-identical.
void ExpectSameRetransmissions(bool cast, BypassFixture& bypassed, BypassFixture& func,
                               const std::function<bool(Event&)>& down,
                               const std::function<void(ProtocolStack*)>& trigger) {
  for (int i = 0; i < 3; i++) {
    Iovec payload(Bytes::CopyString("saved-" + std::to_string(i)));
    Event ev = cast ? Event::Cast(payload) : Event::Send(1, payload);
    ASSERT_TRUE(down(ev)) << i;
    func.tx->Down(cast ? Event::Cast(payload) : Event::Send(1, payload));
  }
  auto want = EmittedWires(func.tx.get(), [&] { trigger(func.tx.get()); });
  auto got = EmittedWires(bypassed.tx.get(), [&] { trigger(bypassed.tx.get()); });
  ASSERT_GE(want.size(), 3u);
  EXPECT_EQ(got, want);
}

// First tick arms pt2pt's timeout; a tick past it retransmits.
void TimeoutTicks(ProtocolStack* stack) {
  stack->Down(Event::Timer(Millis(1)));
  stack->Down(Event::Timer(Millis(1) + BypassFixture::Quiet().retrans_timeout + 1));
}

TEST(RetransmissionTest, NakedBypassedCastMatchesFuncRetransmission) {
  BypassFixture bypassed(TenLayerStack());
  BypassFixture func(TenLayerStack());
  ExpectSameRetransmissions(
      /*cast=*/true, bypassed, func,
      [&](Event& ev) {
        Iovec wire;
        return bypassed.tx_route->TryDown(ev, &wire, nullptr);
      },
      [](ProtocolStack* stack) { stack->Up(NakFromPeer(3)); });
}

TEST(RetransmissionTest, TimedOutBypassedSendMatchesFuncRetransmission) {
  BypassFixture bypassed(TenLayerStack());
  BypassFixture func(TenLayerStack());
  std::string error;
  auto send_route = CompileRoutePair(bypassed.tx.get(), /*cast=*/false, &error);
  ASSERT_NE(send_route, nullptr) << error;
  ExpectSameRetransmissions(
      /*cast=*/false, bypassed, func,
      [&](Event& ev) {
        Iovec wire;
        return send_route->TryDown(ev, &wire, nullptr);
      },
      TimeoutTicks);
}

TEST(RetransmissionTest, HandBypassSavesLikeTheCompiledRoutes) {
  for (bool cast : {true, false}) {
    BypassFixture bypassed(FourLayerStack());
    BypassFixture func(FourLayerStack());
    std::string error;
    auto hand = Hand4Bypass::Create(bypassed.tx.get(), &error);
    ASSERT_NE(hand, nullptr) << error;
    ExpectSameRetransmissions(
        cast, bypassed, func,
        [&](Event& ev) {
          Iovec wire;
          return cast ? hand->TryDownCast(ev, &wire) : hand->TryDownSend(ev, &wire);
        },
        [cast](ProtocolStack* stack) {
          if (cast) {
            stack->Up(NakFromPeer(3));
          } else {
            TimeoutTicks(stack);
          }
        });
  }
}

// ---------------------------------------------------------------------------
// Golden wire bytes: the compressed layout and the pack framing are a wire
// format; these bytes must not move.
// ---------------------------------------------------------------------------

std::string Hex(const Bytes& b) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < b.size(); i++) {
    out += kDigits[b[i] >> 4];
    out += kDigits[b[i] & 15];
  }
  return out;
}

TEST(GoldenWireTest, CompressedCastSendAndPackBytesAreFixed) {
  BypassFixture f(TenLayerStack());
  std::string error;
  auto send_route = CompileRoutePair(f.tx.get(), /*cast=*/false, &error);
  ASSERT_NE(send_route, nullptr) << error;

  Event cast = Event::Cast(Iovec(Bytes::CopyString("golden")));
  Iovec cast_wire;
  ASSERT_TRUE(f.tx_route->TryDown(cast, &cast_wire, nullptr));
  // [tag 0x43][conn u32][origin u8][total gseq u32][mnak seqno u32] "golden".
  EXPECT_EQ(Hex(cast_wire.Flatten()), "437bfe6b6700" "00000000" "00000000" "676f6c64656e");

  Event send = Event::Send(1, Iovec(Bytes::CopyString("golden")));
  Iovec send_wire;
  ASSERT_TRUE(send_route->TryDown(send, &send_wire, nullptr));
  // [tag 0x43][conn u32][origin u8][pt2pt seqno u32] "golden".
  EXPECT_EQ(Hex(send_wire.Flatten()), "437479146700" "00000000" "676f6c64656e");

  Transport packer;
  std::vector<std::string> emitted;
  packer.EnablePacking([&](const Transport::PackDest&, const Iovec& wire) {
    emitted.push_back(Hex(wire.Flatten()));
  });
  for (int i = 0; i < 3; i++) {
    Event ev = Event::Cast(Iovec(Bytes::CopyString("p" + std::to_string(i))));
    Iovec wire;
    ASSERT_TRUE(f.tx_route->TryDown(ev, &wire, nullptr));
    packer.PackCast(wire);
  }
  packer.FlushPacked();
  ASSERT_EQ(emitted.size(), 1u);
  // [tag 0x50][count 3], then [u32 len] + sub-message three times.
  EXPECT_EQ(emitted[0],
            "5003"
            "10000000437bfe6b67000100000001000000" "7030"
            "10000000437bfe6b67000200000002000000" "7031"
            "10000000437bfe6b67000300000003000000" "7032");
}

TEST(SplitRouteTest, NoSinkStillRunsTheSelfDeliveryArm) {
  // A split route called without a sink still runs the self-delivery arm's
  // updates: total's expected_gseq keeps pace with next_gseq, so the next
  // cast hits the CCP instead of missing it for the rest of the view.
  HarnessConfig config;
  config.n = 3;
  config.ep.mode = StackMode::kMachine;
  config.ep.layers = TenLayerStack();
  ASSERT_TRUE(config.ep.params.local_loopback);
  GroupHarness g(config);
  g.StartAll();
  RoutePair* route = g.member(0).cast_route();
  for (int i = 0; i < 2; i++) {
    Event ev = Event::Cast(Iovec(Bytes::CopyString("no-sink")));
    Iovec wire;
    EXPECT_TRUE(route->TryDown(ev, &wire, nullptr)) << "cast " << i;
  }
  auto* total = static_cast<TotalLayer*>(g.member(0).stack()->FindLayer(LayerId::kTotal));
  EXPECT_EQ(total->fast().expected_gseq, 2u);
}

TEST(SplitRouteTest, SelfDeliveryThroughUpperUpRules) {
  LayerParams params = BypassFixture::Quiet();
  params.local_loopback = true;
  BypassFixture f(TenLayerStack(), params);
  std::string error;
  auto route = CompileRoutePair(f.tx.get(), true, &error);
  ASSERT_NE(route, nullptr) << error;

  Event ev = Event::Cast(Iovec(Bytes::CopyString("to-self")));
  Iovec wire;
  Event self;
  ASSERT_TRUE(route->TryDown(ev, &wire, &self));
  EXPECT_EQ(self.type, EventType::kDeliverCast);
  EXPECT_EQ(self.origin, 0);
  EXPECT_EQ(self.payload.Flatten().view(), "to-self");
  // total's expected_gseq advanced through the self-delivery arm.
  auto* total = static_cast<TotalLayer*>(f.tx->FindLayer(LayerId::kTotal));
  EXPECT_EQ(total->fast().expected_gseq, 1u);
}

// ---------------------------------------------------------------------------
// The protocol-cast route: collect's stability gossip.
// ---------------------------------------------------------------------------

CollectLayer* CollectOf(ProtocolStack* stack) {
  return static_cast<CollectLayer*>(stack->FindLayer(LayerId::kCollect));
}

TEST(GossipRouteTest, CompilesFromCollectDownWithItsOwnTheorems) {
  BypassFixture f(TenLayerStack());
  std::string error;
  auto gossip = CompileProtoCastRoute(f.tx.get(), LayerId::kCollect, &error);
  ASSERT_NE(gossip, nullptr) << error;
  EXPECT_TRUE(gossip->is_proto_cast());
  EXPECT_EQ(gossip->origin_layer_index(), 3u);  // partial_appl, total, local above.
  EXPECT_EQ(gossip->var_count(), 1u);           // mnak seqno only.
  EXPECT_NE(gossip->conn_id(), f.tx_route->conn_id());
  auto rx_gossip = CompileProtoCastRoute(f.rx.get(), LayerId::kCollect, &error);
  ASSERT_NE(rx_gossip, nullptr) << error;
  EXPECT_EQ(gossip->conn_id(), rx_gossip->conn_id());
  std::string text = gossip->Describe();
  EXPECT_NE(text.find("STACK BYPASS for ProtoCast"), std::string::npos) << text;
  EXPECT_NE(text.find("OPTIMIZING LAYER collect FOR EVENT Up/ProtoCast"), std::string::npos);
  EXPECT_NE(text.find("AND ANNOUNCES Stable"), std::string::npos);
  EXPECT_NE(text.find("OPTIMIZING LAYER mflow FOR EVENT Dn/ProtoCast ASSUMING true "
                      "(pass-through header only) YIELDS header {kind=1 const"),
            std::string::npos);
  EXPECT_NE(text.find("OPTIMIZING LAYER mnak FOR EVENT Stable ASSUMING true YIELDS no header "
                      "UPDATING sent.erase(seqno < stable[rank])"),
            std::string::npos);
  EXPECT_EQ(text.find("OPTIMIZING LAYER total"), std::string::npos);  // Above collect.
}

TEST(GossipRouteTest, LayerWithoutStableRuleBlocksRoute) {
  // The stable layer consolidates kStable events: it has no kStable rule, so
  // gossip keeps the normal path on a stack that includes it.
  LayerParams params;
  auto stack = BuildStack(EngineKind::kFunctional,
                          {LayerId::kStable, LayerId::kCollect, LayerId::kFrag, LayerId::kMflow,
                           LayerId::kMnak, LayerId::kBottom},
                          params, EndpointId{1});
  auto view = std::make_shared<View>();
  view->vid = ViewId{0, 1};
  view->members = {EndpointId{1}, EndpointId{2}};
  stack->Init(view);
  std::string error;
  EXPECT_EQ(CompileProtoCastRoute(stack.get(), LayerId::kCollect, &error), nullptr);
  EXPECT_NE(error.find("stable has no a-priori optimization for Stable"), std::string::npos)
      << error;
}

TEST(GossipRouteTest, ConsumedGossipPrunesTheSendersBuffer) {
  // rx delivers three bypassed casts, then reports them in a gossip round
  // cast through its gossip route; tx's route consumes it and composes the
  // kStable effect: mnak prunes the three casts it kept for retransmission.
  BypassFixture f(TenLayerStack());
  std::string error;
  auto tx_gossip = CompileProtoCastRoute(f.tx.get(), LayerId::kCollect, &error);
  auto rx_gossip = CompileProtoCastRoute(f.rx.get(), LayerId::kCollect, &error);
  ASSERT_NE(tx_gossip, nullptr) << error;
  ASSERT_NE(rx_gossip, nullptr) << error;
  for (int i = 0; i < 3; i++) {
    Event ev = Event::Cast(Iovec(Bytes::CopyString("d")));
    Iovec wire;
    ASSERT_TRUE(f.tx_route->TryDown(ev, &wire, nullptr));
    Event out;
    ASSERT_EQ(f.rx_route->TryUp(wire.Flatten(), 6, 0, &out), RoutePair::UpResult::kDelivered);
  }
  auto* tx_mnak = static_cast<MnakLayer*>(f.tx->FindLayer(LayerId::kMnak));
  EXPECT_EQ(tx_mnak->retrans_buffer_size(), 3u);

  Event round = CollectOf(f.rx.get())->TakeGossip();
  Iovec wire;
  ASSERT_TRUE(rx_gossip->TryDown(round, &wire, nullptr));
  Event out;
  out.type = EventType::kNone;
  ASSERT_EQ(tx_gossip->TryUp(wire.Flatten(), 6, 1, &out), RoutePair::UpResult::kConsumed);
  EXPECT_EQ(out.type, EventType::kNone);  // Nothing for the application.
  EXPECT_EQ(tx_mnak->retrans_buffer_size(), 0u);
  EXPECT_EQ(CollectOf(f.tx.get())->last_stable(), (std::vector<uint64_t>{3, 0}));
  // The gossip itself sits in rx's buffer until someone reports it.
  auto* rx_mnak = static_cast<MnakLayer*>(f.rx->FindLayer(LayerId::kMnak));
  EXPECT_EQ(rx_mnak->retrans_buffer_size(), 1u);
}

TEST(GossipRouteTest, CcpMissReconstructsTheGenericEvent) {
  // Two gossip rounds from the same sender state, once through the compiled
  // route and once through the normal path below collect (a twin stack).
  // Delivering the second compiled round first misses mnak's in-order CCP;
  // the reconstructed event must equal what generic unmarshal makes of the
  // normal path's datagram — type, origin, payload and every header.
  BypassFixture f(TenLayerStack());
  auto twin = BuildStack(EngineKind::kFunctional, TenLayerStack(), BypassFixture::Quiet(),
                         EndpointId{1});
  std::vector<Event> twin_out;
  twin->set_dn_out([&](Event ev) { twin_out.push_back(std::move(ev)); });
  twin->set_up_out([](Event) {});
  twin->Init(f.tx->layer(0)->view());
  std::string error;
  auto tx_gossip = CompileProtoCastRoute(f.tx.get(), LayerId::kCollect, &error);
  auto rx_gossip = CompileProtoCastRoute(f.rx.get(), LayerId::kCollect, &error);
  ASSERT_NE(tx_gossip, nullptr) << error;
  ASSERT_NE(rx_gossip, nullptr) << error;

  std::vector<Bytes> compiled;
  for (int i = 0; i < 2; i++) {
    Event round = CollectOf(f.tx.get())->TakeGossip();
    Iovec wire;
    ASSERT_TRUE(tx_gossip->TryDown(round, &wire, nullptr));
    compiled.push_back(wire.Flatten());
    twin->DownFrom(tx_gossip->origin_layer_index() + 1, CollectOf(twin.get())->TakeGossip());
  }
  ASSERT_EQ(twin_out.size(), 2u);
  Event generic;
  ASSERT_TRUE(GenericUnmarshal(GenericMarshal(twin_out[1], 0).Flatten(), &generic));

  Event reconstructed;
  ASSERT_EQ(rx_gossip->TryUp(compiled[1], 6, 0, &reconstructed),
            RoutePair::UpResult::kFallback);
  EXPECT_EQ(reconstructed.type, generic.type);
  EXPECT_EQ(reconstructed.origin, generic.origin);
  EXPECT_TRUE(reconstructed.payload.ContentEquals(generic.payload));
  EXPECT_TRUE(reconstructed.hdrs == generic.hdrs);
  EXPECT_EQ(rx_gossip->ccp_stats().up_fallbacks, 1u);

  // Both arrive through the normal path: the first in order, then mnak
  // releases the buffered second, and both are consumed by collect.
  Event first;
  ASSERT_EQ(rx_gossip->TryUp(compiled[0], 6, 0, &first), RoutePair::UpResult::kConsumed);
  f.rx->Up(std::move(reconstructed));
  auto* rx_mnak = static_cast<MnakLayer*>(f.rx->FindLayer(LayerId::kMnak));
  EXPECT_EQ(rx_mnak->Expected(0), 2u);
  EXPECT_TRUE(f.rx_deliveries.empty());
}

TEST(GossipRouteTest, DueRoundStaysOnTheDataRouteWhenGossipIsRouted) {
  // Interval 2: the second bypassed delivery completes a round.  Without a
  // gossip route the data route's CCP refuses it (collect gossips on the
  // normal path); with one, it delivers and marks the round due.
  LayerParams params = BypassFixture::Quiet();
  params.stable_interval = 2;
  BypassFixture f(TenLayerStack(), params);
  CollectFast& fast = CollectOf(f.rx.get())->fast();
  std::vector<Bytes> wires;
  for (int i = 0; i < 3; i++) {
    Event ev = Event::Cast(Iovec(Bytes::CopyString("d")));
    Iovec wire;
    ASSERT_TRUE(f.tx_route->TryDown(ev, &wire, nullptr));
    wires.push_back(wire.Flatten());
  }
  Event out;
  ASSERT_EQ(f.rx_route->TryUp(wires[0], 6, 0, &out), RoutePair::UpResult::kDelivered);
  ASSERT_EQ(f.rx_route->TryUp(wires[1], 6, 0, &out), RoutePair::UpResult::kFallback);
  f.rx->Up(std::move(out));
  EXPECT_EQ(f.rx_dn_out.size(), 1u);  // The round, cast by the normal path.
  EXPECT_EQ(fast.gossip_due, 0);

  fast.gossip_routed = 1;
  ASSERT_EQ(f.rx_route->TryUp(wires[2], 6, 0, &out), RoutePair::UpResult::kDelivered);
  EXPECT_EQ(fast.gossip_due, 0);  // One delivery into the new interval.
  Event ev = Event::Cast(Iovec(Bytes::CopyString("d")));
  Iovec wire;
  ASSERT_TRUE(f.tx_route->TryDown(ev, &wire, nullptr));
  ASSERT_EQ(f.rx_route->TryUp(wire.Flatten(), 6, 0, &out), RoutePair::UpResult::kDelivered);
  EXPECT_EQ(fast.gossip_due, 1);
  EXPECT_EQ(f.rx_dn_out.size(), 1u);  // Nothing more left the normal path.
  CollectOf(f.rx.get())->TakeGossip();
  EXPECT_EQ(fast.gossip_due, 0);
}

TEST(ConnTableTest, RegisterFindUnregister) {
  BypassFixture f(TenLayerStack());
  ConnTable table;
  EXPECT_TRUE(table.Register(f.tx_route.get()));
  EXPECT_TRUE(table.Register(f.tx_route.get()));  // Idempotent.
  EXPECT_EQ(table.Find(f.tx_route->conn_id()), f.tx_route.get());
  EXPECT_EQ(table.Find(0xDEAD), nullptr);
  table.Unregister(f.tx_route->conn_id());
  EXPECT_EQ(table.Find(f.tx_route->conn_id()), nullptr);
}

TEST(ConnTableTest, GrowsPastInitialCapacityAndKeepsEveryEntry) {
  ConnTable table;
  size_t cap0 = table.capacity();
  // Synthetic ids via RegisterId (the table never dereferences the routes);
  // distinct fake pointers let Find() results be checked exactly.
  std::vector<char> arena(300);
  for (uint32_t i = 0; i < 300; i++) {
    ASSERT_TRUE(table.RegisterId(i * 7 + 1, reinterpret_cast<RoutePair*>(arena.data() + i)));
  }
  EXPECT_EQ(table.size(), 300u);
  EXPECT_GT(table.capacity(), cap0);  // Rehashed at least once.
  for (uint32_t i = 0; i < 300; i++) {
    EXPECT_EQ(table.Find(i * 7 + 1), reinterpret_cast<RoutePair*>(arena.data() + i));
  }
  EXPECT_EQ(table.Find(0), nullptr);
  EXPECT_EQ(table.RegisterId(8, reinterpret_cast<RoutePair*>(arena.data() + 299)),
            false);  // id 8 = 1*7+1, bound to a different route: collision is fatal.
}

TEST(ConnTableTest, BackwardShiftDeletionKeepsProbeChainsIntact) {
  ConnTable table;
  std::vector<char> arena(200);
  // Dense sequential ids cluster under any hash at this load factor, so the
  // deletions below exercise chains that actually wrap displaced entries.
  for (uint32_t i = 0; i < 200; i++) {
    ASSERT_TRUE(table.RegisterId(1000 + i, reinterpret_cast<RoutePair*>(arena.data() + i)));
  }
  for (uint32_t i = 0; i < 200; i += 2) {
    table.Unregister(1000 + i);
  }
  EXPECT_EQ(table.size(), 100u);
  for (uint32_t i = 0; i < 200; i++) {
    if (i % 2 == 0) {
      EXPECT_EQ(table.Find(1000 + i), nullptr) << "id " << 1000 + i;
    } else {
      // Survivors must stay reachable: a deletion that left a hole inside a
      // probe chain would make these lookups stop early at the gap.
      EXPECT_EQ(table.Find(1000 + i), reinterpret_cast<RoutePair*>(arena.data() + i))
          << "id " << 1000 + i;
    }
  }
  // Deleted slots are reusable and chains re-form.
  for (uint32_t i = 0; i < 200; i += 2) {
    ASSERT_TRUE(table.RegisterId(1000 + i, reinterpret_cast<RoutePair*>(arena.data() + i)));
  }
  for (uint32_t i = 0; i < 200; i++) {
    EXPECT_EQ(table.Find(1000 + i), reinterpret_cast<RoutePair*>(arena.data() + i));
  }
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(1001), nullptr);
}

TEST(HandTest, RequiresExactStackShape) {
  LayerParams params;
  auto wrong = BuildStack(EngineKind::kFunctional, TenLayerStack(), params, EndpointId{1});
  std::string error;
  EXPECT_EQ(Hand4Bypass::Create(wrong.get(), &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(HandTest, WireCompatibleWithMachineRoutes) {
  // HAND sender, MACH-compiled receiver: the datagrams must be identical in
  // format and the receiver must deliver them.
  BypassFixture f(FourLayerStack());
  std::string error;
  auto hand = Hand4Bypass::Create(f.tx.get(), &error);
  ASSERT_NE(hand, nullptr) << error;
  EXPECT_EQ(hand->cast_conn_id(), f.rx_route->conn_id());

  Event ev = Event::Cast(Iovec(Bytes::CopyString("by-hand")));
  Iovec wire;
  ASSERT_TRUE(hand->TryDownCast(ev, &wire));
  Event out;
  ASSERT_EQ(f.rx_route->TryUp(wire.Flatten(), 6, 0, &out), RoutePair::UpResult::kDelivered);
  EXPECT_EQ(out.payload.Flatten().view(), "by-hand");
}

TEST(HandTest, SendAfterDeliverSkipsCcp) {
  BypassFixture f(FourLayerStack());
  std::string error;
  auto hand = Hand4Bypass::Create(f.rx.get(), &error);
  ASSERT_NE(hand, nullptr) << error;

  // Deliver one message through the hand bypass...
  Event ev = Event::Cast(Iovec(Bytes::CopyString("ping")));
  Iovec wire;
  ASSERT_TRUE(f.tx_route->TryDown(ev, &wire, nullptr));
  Event out;
  ASSERT_EQ(hand->TryUpCast(wire.Flatten(), 6, 0, &out), RoutePair::UpResult::kDelivered);

  // ...then disable the stack: the next down cast must still go through
  // (the send-after-deliver optimization skips the CCP, exactly the paper's
  // "it may not be a correct assumption" caveat).
  auto* bottom = static_cast<BottomFast*>(f.rx->FindLayer(LayerId::kBottom)->FastState());
  bottom->enabled = 0;
  Event pong = Event::Cast(Iovec(Bytes::CopyString("pong")));
  Iovec wire2;
  EXPECT_TRUE(hand->TryDownCast(pong, &wire2));
  // Without the skip flag the CCP refuses.
  Event pong2 = Event::Cast(Iovec(Bytes::CopyString("pong2")));
  EXPECT_FALSE(hand->TryDownCast(pong2, &wire2));
}

TEST(CcpStatsTest, HitAndMissRatesTracked) {
  BypassFixture f(TenLayerStack());
  // Two fast-path sends, then move the token away for two misses.
  for (int i = 0; i < 2; i++) {
    Event ev = Event::Cast(Iovec(Bytes::CopyString("ok")));
    Iovec wire;
    ASSERT_TRUE(f.tx_route->TryDown(ev, &wire, nullptr));
  }
  auto* total = static_cast<TotalLayer*>(f.tx->FindLayer(LayerId::kTotal));
  total->fast().token_holder = 1;
  for (int i = 0; i < 2; i++) {
    Event ev = Event::Cast(Iovec(Bytes::CopyString("no")));
    Iovec wire;
    EXPECT_FALSE(f.tx_route->TryDown(ev, &wire, nullptr));
  }
  const RoutePair::CcpStats& stats = f.tx_route->ccp_stats();
  EXPECT_EQ(stats.down_hits, 2u);
  EXPECT_EQ(stats.down_misses, 2u);
  EXPECT_DOUBLE_EQ(stats.DownHitRate(), 0.5);
  // The hit rate shows up in the rendered theorem.
  EXPECT_NE(f.tx_route->Describe().find("ccp(down 50% hit"), std::string::npos);
}

TEST(TheoremTest, RulesRegisteredForAllBenchedLayers) {
  std::vector<LayerId> ten = TenLayerStack();
  for (LayerId id : ten) {
    for (FCase c : {FCase::kDnCast, FCase::kDnSend, FCase::kUpCast, FCase::kUpSend}) {
      EXPECT_NE(FindBypassRule(id, c), nullptr)
          << LayerIdName(id) << " " << FCaseName(c);
    }
    if (id != LayerId::kCollect) {
      EXPECT_NE(FindBypassRule(id, FCase::kStable), nullptr) << LayerIdName(id);
    }
  }
  // The gossip route: collect and every layer below it.
  for (auto it = std::find(ten.begin(), ten.end(), LayerId::kCollect); it != ten.end(); ++it) {
    for (FCase c : {FCase::kDnProtoCast, FCase::kUpProtoCast}) {
      EXPECT_NE(FindBypassRule(*it, c), nullptr) << LayerIdName(*it) << " " << FCaseName(c);
    }
  }
  EXPECT_EQ(FindBypassRule(LayerId::kSuspect, FCase::kDnCast), nullptr);
}

TEST(TheoremTest, FieldPlansMatchDescriptors) {
  // Every registered rule with a header plan must match its layer's
  // descriptor field-for-field (the compiler checks this lazily; the test
  // checks it exhaustively).
  for (size_t i = 1; i < kLayerIdCount; i++) {
    LayerId id = static_cast<LayerId>(i);
    for (FCase c : {FCase::kDnCast, FCase::kDnSend, FCase::kUpCast, FCase::kUpSend,
                    FCase::kDnProtoCast, FCase::kUpProtoCast}) {
      const BypassRule* rule = FindBypassRule(id, c);
      if (rule == nullptr || rule->fields.empty()) {
        continue;
      }
      const HeaderDescriptor& desc = HeaderDescriptorFor(id);
      EXPECT_EQ(rule->fields.size(), desc.fields.size())
          << LayerIdName(id) << " " << FCaseName(c);
    }
  }
}

}  // namespace
}  // namespace ensemble
