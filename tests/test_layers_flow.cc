// Unit tests: flow control (mflow, pt2ptw) and fragmentation (frag).

#include <gtest/gtest.h>

#include <algorithm>

#include "src/app/harness.h"
#include "src/layers/frag.h"
#include "src/layers/mflow.h"
#include "src/layers/mnak.h"
#include "src/layers/pt2ptw.h"
#include "src/util/rng.h"
#include "tests/layer_tester.h"

namespace ensemble {
namespace {

LayerParams SmallWindow() {
  LayerParams p;
  p.mflow_window = 8;
  p.pt2pt_window = 8;
  return p;
}

// --------------------------------------------------------------------------
// mflow
// --------------------------------------------------------------------------

TEST(MflowTest, PassesCastsWhileCreditLasts) {
  LayerTester t(LayerId::kMflow, 2, 0, SmallWindow());
  for (int i = 0; i < 8; i++) {
    EXPECT_EQ(t.Dn(Event::Cast(LayerTester::Payload("m"))).dn.size(), 1u) << i;
  }
  // Window exhausted: the ninth cast queues.
  EXPECT_TRUE(t.Dn(Event::Cast(LayerTester::Payload("m"))).dn.empty());
  EXPECT_EQ(t.As<MflowLayer>().QueuedCasts(), 1u);
}

TEST(MflowTest, CreditGrantReleasesQueuedCasts) {
  LayerTester t(LayerId::kMflow, 2, 0, SmallWindow());
  for (int i = 0; i < 10; i++) {
    t.Dn(Event::Cast(LayerTester::Payload("m" + std::to_string(i))));
  }
  EXPECT_EQ(t.As<MflowLayer>().QueuedCasts(), 2u);
  Event grant = Event::DeliverSend(1, Iovec());
  grant.hdrs.Push(LayerId::kMflow, MflowHeader{kMflowCredit, 12});
  auto& out = t.Up(std::move(grant));
  ASSERT_EQ(out.dn.size(), 2u);
  EXPECT_EQ(out.dn[0].payload.Flatten().view(), "m8");
  EXPECT_EQ(t.As<MflowLayer>().QueuedCasts(), 0u);
}

TEST(MflowTest, ReceiverGrantsAfterHalfWindow) {
  LayerTester t(LayerId::kMflow, 2, 1, SmallWindow());
  // Consume 4 casts (window/2) from rank 0: the 4th triggers a grant.
  for (uint32_t i = 0; i < 3; i++) {
    Event data = Event::DeliverCast(0, LayerTester::Payload("d"));
    data.hdrs.Push(LayerId::kMflow, MflowHeader{kMflowData, 0});
    EXPECT_TRUE(t.Up(std::move(data)).dn.empty());
  }
  Event data = Event::DeliverCast(0, LayerTester::Payload("d"));
  data.hdrs.Push(LayerId::kMflow, MflowHeader{kMflowData, 0});
  auto& out = t.Up(std::move(data));
  ASSERT_EQ(out.dn.size(), 1u);
  EXPECT_EQ(out.dn[0].dest, 0);
  MflowHeader hdr = out.dn[0].hdrs.Pop<MflowHeader>(LayerId::kMflow);
  EXPECT_EQ(hdr.kind, kMflowCredit);
  EXPECT_EQ(hdr.credits, 12u);  // consumed(4) + window(8).
}

TEST(MflowTest, MinOverPeersGoverns) {
  LayerTester t(LayerId::kMflow, 3, 0, SmallWindow());
  // Peer 1 grants more; peer 2 stays at the initial window: min rules.
  Event grant = Event::DeliverSend(1, Iovec());
  grant.hdrs.Push(LayerId::kMflow, MflowHeader{kMflowCredit, 100});
  t.Up(std::move(grant));
  int sent = 0;
  for (int i = 0; i < 20; i++) {
    sent += t.Dn(Event::Cast(LayerTester::Payload("m"))).dn.empty() ? 0 : 1;
  }
  EXPECT_EQ(sent, 8);  // Still limited by peer 2's initial window.
}

TEST(MflowTest, SingletonGroupIsUnthrottled) {
  LayerTester t(LayerId::kMflow, 1, 0, SmallWindow());
  for (int i = 0; i < 50; i++) {
    EXPECT_EQ(t.Dn(Event::Cast(LayerTester::Payload("m"))).dn.size(), 1u);
  }
}

TEST(MflowTest, ProtocolCastPassesWithoutCredit) {
  LayerTester t(LayerId::kMflow, 2, 0, SmallWindow());
  for (int i = 0; i < 8; i++) {
    t.Dn(Event::Cast(LayerTester::Payload("m")));
  }
  ASSERT_FALSE(t.As<MflowLayer>().fast().HasCredit());
  Event gossip = Event::Cast(LayerTester::Payload("g"));
  gossip.protocol_cast = true;
  auto& out = t.Dn(std::move(gossip));
  ASSERT_EQ(out.dn.size(), 1u);
  EXPECT_EQ(out.dn[0].hdrs.Pop<MflowHeader>(LayerId::kMflow).kind, kMflowPass);
  EXPECT_EQ(t.As<MflowLayer>().fast().sent, 8u);
  EXPECT_EQ(t.As<MflowLayer>().QueuedCasts(), 0u);
}

TEST(MflowTest, ReceiverDoesNotCountProtocolCasts) {
  LayerTester t(LayerId::kMflow, 2, 1, SmallWindow());
  auto deliver = [&](MflowKind kind) -> CollectSink& {
    Event ev = Event::DeliverCast(0, LayerTester::Payload("d"));
    ev.hdrs.Push(LayerId::kMflow, MflowHeader{kind, 0});
    return t.Up(std::move(ev));
  };
  for (int i = 0; i < 3; i++) {
    EXPECT_TRUE(deliver(kMflowData).dn.empty());
  }
  // Protocol casts go up untouched and move no grant closer.
  for (int i = 0; i < 5; i++) {
    auto& out = deliver(kMflowPass);
    EXPECT_EQ(out.up.size(), 1u);
    EXPECT_TRUE(out.dn.empty());
  }
  auto& out = deliver(kMflowData);
  ASSERT_EQ(out.dn.size(), 1u);
  EXPECT_EQ(out.dn[0].hdrs.Pop<MflowHeader>(LayerId::kMflow).credits, 12u);  // 4 + window.
}

// The perfbench `bulk` shape: 8 casts of 16 KiB (128 fragments, half the
// default window) kept outstanding.  Stability gossip from the caster must
// not push it over the credit edge, and neither member's retransmission
// buffer may grow with the traffic.
TEST(MflowTest, BulkShapedLoopNeverQueuesForCredit) {
  HarnessConfig config;
  config.n = 2;
  config.ep.mode = StackMode::kMachine;
  config.ep.layers = TenLayerStack();
  GroupHarness g(config);
  g.StartAll();
  auto mnak = [&](int m) {
    return static_cast<MnakLayer*>(g.member(m).stack()->FindLayer(LayerId::kMnak));
  };
  auto* mflow0 = static_cast<MflowLayer*>(g.member(0).stack()->FindLayer(LayerId::kMflow));
  const std::string payload(16 * 1024, 'b');
  constexpr size_t kCasts = 2000;
  size_t issued = 0;
  size_t max_queued = 0;
  size_t max_buffer = 0;
  while (g.deliveries(1).size() < kCasts) {
    while (issued < kCasts && issued - g.deliveries(1).size() < 8) {
      g.CastFrom(0, payload);
      issued++;
      max_queued = std::max(max_queued, mflow0->QueuedCasts());
    }
    g.Run(Micros(50));
    max_queued = std::max(max_queued, mflow0->QueuedCasts());
    max_buffer = std::max({max_buffer, mnak(0)->retrans_buffer_size(),
                           mnak(1)->retrans_buffer_size()});
    ASSERT_LT(g.queue().now(), Seconds(10)) << "stalled at " << g.deliveries(1).size();
  }
  EXPECT_EQ(max_queued, 0u);
  // Unstable casts: at most a credit window of data plus what one gossip
  // interval has not yet reported.
  EXPECT_LE(max_buffer,
            size_t{config.ep.params.mflow_window} + config.ep.params.stable_interval);
  g.Run(Millis(300));
  for (int m = 0; m < 2; m++) {
    EXPECT_LE(mnak(m)->retrans_buffer_size(), config.ep.params.stable_interval) << "member " << m;
  }
}

// --------------------------------------------------------------------------
// pt2ptw
// --------------------------------------------------------------------------

TEST(Pt2ptwTest, WindowPerDestination) {
  LayerTester t(LayerId::kPt2ptw, 3, 0, SmallWindow());
  for (int i = 0; i < 8; i++) {
    EXPECT_EQ(t.Dn(Event::Send(1, LayerTester::Payload("m"))).dn.size(), 1u);
  }
  EXPECT_TRUE(t.Dn(Event::Send(1, LayerTester::Payload("m"))).dn.empty());
  // Destination 2 has its own window.
  EXPECT_EQ(t.Dn(Event::Send(2, LayerTester::Payload("m"))).dn.size(), 1u);
  EXPECT_EQ(t.As<Pt2ptwLayer>().QueuedSends(), 1u);
}

TEST(Pt2ptwTest, CreditReleasesQueuedSends) {
  LayerTester t(LayerId::kPt2ptw, 2, 0, SmallWindow());
  for (int i = 0; i < 9; i++) {
    t.Dn(Event::Send(1, LayerTester::Payload("m" + std::to_string(i))));
  }
  Event grant = Event::DeliverSend(1, Iovec());
  grant.hdrs.Push(LayerId::kPt2ptw, Pt2ptwHeader{kPt2ptwCredit, 16});
  auto& out = t.Up(std::move(grant));
  ASSERT_EQ(out.dn.size(), 1u);
  EXPECT_EQ(out.dn[0].payload.Flatten().view(), "m8");
}

TEST(Pt2ptwTest, ReceiverGrantsAfterHalfWindow) {
  LayerTester t(LayerId::kPt2ptw, 2, 1, SmallWindow());
  CollectSink* last = nullptr;
  for (uint32_t i = 0; i < 4; i++) {
    Event data = Event::DeliverSend(0, LayerTester::Payload("d"));
    data.hdrs.Push(LayerId::kPt2ptw, Pt2ptwHeader{kPt2ptwData, 0});
    last = &t.Up(std::move(data));
    EXPECT_EQ(last->up.size(), 1u);
  }
  ASSERT_EQ(last->dn.size(), 1u);
  Pt2ptwHeader hdr = last->dn[0].hdrs.Pop<Pt2ptwHeader>(LayerId::kPt2ptw);
  EXPECT_EQ(hdr.kind, kPt2ptwCredit);
  EXPECT_EQ(hdr.credits, 12u);
}

TEST(Pt2ptwTest, CastsUntouched) {
  LayerTester t(LayerId::kPt2ptw, 2, 0, SmallWindow());
  auto& out = t.Dn(Event::Cast(LayerTester::Payload("c")));
  ASSERT_EQ(out.dn.size(), 1u);
  EXPECT_TRUE(out.dn[0].hdrs.empty());
}

// --------------------------------------------------------------------------
// frag
// --------------------------------------------------------------------------

LayerParams SmallMtu() {
  LayerParams p;
  p.frag_max = 10;
  return p;
}

TEST(FragTest, SmallPayloadPassesWhole) {
  LayerTester t(LayerId::kFrag, 2, 0, SmallMtu());
  auto& out = t.Dn(Event::Cast(LayerTester::Payload("tiny")));
  ASSERT_EQ(out.dn.size(), 1u);
  FragHeader hdr = out.dn[0].hdrs.Pop<FragHeader>(LayerId::kFrag);
  EXPECT_EQ(hdr.kind, kFragWhole);
}

TEST(FragTest, LargePayloadSplitsAtMtu) {
  LayerTester t(LayerId::kFrag, 2, 0, SmallMtu());
  auto& out = t.Dn(Event::Cast(LayerTester::Payload("0123456789abcdefghijKLM")));
  ASSERT_EQ(out.dn.size(), 3u);  // 23 bytes at mtu 10 -> 10+10+3.
  for (uint16_t i = 0; i < 3; i++) {
    FragHeader hdr = out.dn[i].hdrs.Pop<FragHeader>(LayerId::kFrag);
    EXPECT_EQ(hdr.kind, kFragPiece);
    EXPECT_EQ(hdr.frag_index, i);
    EXPECT_EQ(hdr.frag_count, 3);
  }
  EXPECT_EQ(out.dn[0].payload.Flatten().view(), "0123456789");
  EXPECT_EQ(out.dn[2].payload.Flatten().view(), "KLM");
}

TEST(FragTest, ProtocolCastPiecesStayProtocolCasts) {
  // A large group's gossip may fragment; mflow must still carry every piece
  // uncharged.
  LayerTester t(LayerId::kFrag, 2, 0, SmallMtu());
  Event gossip = Event::Cast(LayerTester::Payload("0123456789abcdefghijKLM"));
  gossip.protocol_cast = true;
  auto& out = t.Dn(std::move(gossip));
  ASSERT_EQ(out.dn.size(), 3u);
  for (const Event& piece : out.dn) {
    EXPECT_TRUE(piece.protocol_cast);
  }
}

TEST(FragTest, ReassemblesInOrder) {
  LayerTester tx(LayerId::kFrag, 2, 0, SmallMtu());
  LayerTester rx(LayerId::kFrag, 2, 1, SmallMtu());
  auto& pieces = tx.Dn(Event::Cast(LayerTester::Payload("the quick brown fox jumps")));
  std::vector<Event> deliveries;
  for (const Event& piece : pieces.dn) {
    Event up;
    up.type = EventType::kDeliverCast;
    up.origin = 0;
    up.payload = piece.payload;
    up.hdrs = piece.hdrs;
    auto& out = rx.Up(std::move(up));
    for (Event& d : out.up) {
      deliveries.push_back(std::move(d));
    }
  }
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].payload.Flatten().view(), "the quick brown fox jumps");
}

TEST(FragTest, ReassemblesOutOfOrderPieces) {
  LayerTester tx(LayerId::kFrag, 2, 0, SmallMtu());
  LayerTester rx(LayerId::kFrag, 2, 1, SmallMtu());
  auto pieces = tx.Dn(Event::Cast(LayerTester::Payload("abcdefghijklmnopqrstuv"))).dn;
  std::swap(pieces[0], pieces[2]);
  std::vector<std::string> got;
  for (const Event& piece : pieces) {
    Event up;
    up.type = EventType::kDeliverCast;
    up.origin = 0;
    up.payload = piece.payload;
    up.hdrs = piece.hdrs;
    for (Event& d : rx.Up(std::move(up)).up) {
      got.push_back(d.payload.Flatten().ToString());
    }
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "abcdefghijklmnopqrstuv");
}

TEST(FragTest, InterleavedMessagesFromDifferentSenders) {
  LayerTester tx0(LayerId::kFrag, 3, 0, SmallMtu());
  LayerTester tx1(LayerId::kFrag, 3, 1, SmallMtu());
  LayerTester rx(LayerId::kFrag, 3, 2, SmallMtu());
  auto p0 = tx0.Dn(Event::Cast(LayerTester::Payload("sender zero's text"))).dn;
  auto p1 = tx1.Dn(Event::Cast(LayerTester::Payload("sender one's message"))).dn;
  std::vector<std::pair<Rank, Event>> wire;
  for (auto& p : p0) {
    wire.push_back({0, std::move(p)});
  }
  for (auto& p : p1) {
    wire.push_back({1, std::move(p)});
  }
  std::swap(wire[0], wire[2]);  // Interleave.
  std::vector<std::string> got;
  for (auto& [origin, piece] : wire) {
    Event up;
    up.type = EventType::kDeliverCast;
    up.origin = origin;
    up.payload = piece.payload;
    up.hdrs = piece.hdrs;
    for (Event& d : rx.Up(std::move(up)).up) {
      got.push_back(d.payload.Flatten().ToString());
    }
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(rx.As<FragLayer>().PartialCount(), 0u);
}

TEST(FragTest, FragmentsAreZeroCopySlices) {
  LayerTester t(LayerId::kFrag, 2, 0, SmallMtu());
  Iovec payload(Bytes::CopyString("0123456789abcdefghij"));
  const uint8_t* base = payload.part(0).data();
  auto& out = t.Dn(Event::Cast(payload));
  ASSERT_EQ(out.dn.size(), 2u);
  EXPECT_EQ(out.dn[0].payload.part(0).data(), base);
  EXPECT_EQ(out.dn[1].payload.part(0).data(), base + 10);
}

}  // namespace
}  // namespace ensemble
