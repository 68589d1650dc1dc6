// Unit tests: the reliability layers (mnak, pt2pt) driven in isolation.

#include <gtest/gtest.h>

#include "src/layers/mnak.h"
#include "src/layers/pt2pt.h"
#include "tests/layer_tester.h"

namespace ensemble {
namespace {

// --------------------------------------------------------------------------
// mnak
// --------------------------------------------------------------------------

Event MnakData(Rank origin, uint32_t seqno, std::string_view payload) {
  Event ev = Event::DeliverCast(origin, LayerTester::Payload(payload));
  ev.hdrs.Push(LayerId::kMnak, MnakHeader{kMnakData, seqno, 0, 0});
  return ev;
}

TEST(MnakTest, NumbersOutgoingCasts) {
  LayerTester t(LayerId::kMnak, 2, 0);
  for (uint32_t i = 0; i < 3; i++) {
    auto& out = t.Dn(Event::Cast(LayerTester::Payload("m")));
    ASSERT_EQ(out.dn.size(), 1u);
    MnakHeader hdr = out.dn[0].hdrs.Pop<MnakHeader>(LayerId::kMnak);
    EXPECT_EQ(hdr.kind, kMnakData);
    EXPECT_EQ(hdr.seqno, i);
  }
  EXPECT_EQ(t.As<MnakLayer>().retrans_buffer_size(), 3u);
}

TEST(MnakTest, DeliversInOrderImmediately) {
  LayerTester t(LayerId::kMnak, 2, 0);
  auto& out = t.Up(MnakData(1, 0, "a"));
  ASSERT_EQ(out.up.size(), 1u);
  EXPECT_EQ(out.up[0].payload.Flatten().view(), "a");
  EXPECT_EQ(t.As<MnakLayer>().Expected(1), 1u);
}

TEST(MnakTest, BuffersOutOfOrderAndFlushesOnGapFill) {
  LayerTester t(LayerId::kMnak, 2, 0);
  EXPECT_TRUE(t.Up(MnakData(1, 2, "c")).up.empty());
  EXPECT_TRUE(t.Up(MnakData(1, 1, "b")).up.empty());
  auto& out = t.Up(MnakData(1, 0, "a"));
  ASSERT_EQ(out.up.size(), 3u);
  EXPECT_EQ(out.up[0].payload.Flatten().view(), "a");
  EXPECT_EQ(out.up[1].payload.Flatten().view(), "b");
  EXPECT_EQ(out.up[2].payload.Flatten().view(), "c");
}

TEST(MnakTest, DropsDuplicates) {
  LayerTester t(LayerId::kMnak, 2, 0);
  EXPECT_EQ(t.Up(MnakData(1, 0, "a")).up.size(), 1u);
  EXPECT_TRUE(t.Up(MnakData(1, 0, "a")).up.empty());
  EXPECT_TRUE(t.Up(MnakData(1, 0, "a")).dn.empty());
}

TEST(MnakTest, TimerNaksHoles) {
  LayerTester t(LayerId::kMnak, 2, 0);
  t.Up(MnakData(1, 0, "a"));
  t.Up(MnakData(1, 3, "d"));  // Holes: 1, 2.
  auto& out = t.Dn(Event::Timer(Millis(1)));
  // One NAK send covering the contiguous range [1,3), plus the timer itself.
  ASSERT_GE(out.dn.size(), 2u);
  Event* nak = nullptr;
  for (Event& ev : out.dn) {
    if (ev.type == EventType::kSend) {
      nak = &ev;
    }
  }
  ASSERT_NE(nak, nullptr);
  EXPECT_EQ(nak->dest, 1);
  MnakHeader hdr = nak->hdrs.Pop<MnakHeader>(LayerId::kMnak);
  EXPECT_EQ(hdr.kind, kMnakNak);
  EXPECT_EQ(hdr.lo, 1u);
  EXPECT_EQ(hdr.hi, 3u);
}

TEST(MnakTest, RetransmitsOnNak) {
  LayerTester t(LayerId::kMnak, 2, 0);
  t.Dn(Event::Cast(LayerTester::Payload("m0")));
  t.Dn(Event::Cast(LayerTester::Payload("m1")));
  Event nak = Event::DeliverSend(1, Iovec());
  nak.hdrs.Push(LayerId::kMnak, MnakHeader{kMnakNak, 0, 0, 2});
  auto& out = t.Up(std::move(nak));
  ASSERT_EQ(out.dn.size(), 2u);
  for (uint32_t i = 0; i < 2; i++) {
    EXPECT_EQ(out.dn[i].type, EventType::kSend);
    EXPECT_EQ(out.dn[i].dest, 1);
    MnakHeader hdr = out.dn[i].hdrs.Pop<MnakHeader>(LayerId::kMnak);
    EXPECT_EQ(hdr.kind, kMnakRetrans);
    EXPECT_EQ(hdr.seqno, i);
    EXPECT_EQ(out.dn[i].payload.Flatten().view(), "m" + std::to_string(i));
  }
}

TEST(MnakTest, RetransmissionDeliversAsCast) {
  LayerTester t(LayerId::kMnak, 2, 0);
  Event re = Event::DeliverSend(1, LayerTester::Payload("lost"));
  re.hdrs.Push(LayerId::kMnak, MnakHeader{kMnakRetrans, 0, 0, 0});
  auto& out = t.Up(std::move(re));
  ASSERT_EQ(out.up.size(), 1u);
  EXPECT_EQ(out.up[0].type, EventType::kDeliverCast);
  EXPECT_EQ(out.up[0].origin, 1);
  EXPECT_EQ(out.up[0].payload.Flatten().view(), "lost");
}

TEST(MnakTest, StableEventPrunesRetransBuffer) {
  LayerTester t(LayerId::kMnak, 2, 0);
  for (int i = 0; i < 5; i++) {
    t.Dn(Event::Cast(LayerTester::Payload("m")));
  }
  Event stable = Event::OfType(EventType::kStable);
  stable.vec = {3, 0};  // My casts below 3 are stable everywhere.
  t.Dn(std::move(stable));
  EXPECT_EQ(t.As<MnakLayer>().retrans_buffer_size(), 2u);
}

TEST(MnakTest, WatermarkAdvertisementCreatesHoles) {
  LayerTester t(LayerId::kMnak, 2, 0);
  // Peer 1 says it has cast [0, 4); we have received nothing.
  Event hi = Event::DeliverCast(1, Iovec());
  hi.hdrs.Push(LayerId::kMnak, MnakHeader{kMnakHi, 4, 0, 0});
  EXPECT_TRUE(t.Up(std::move(hi)).up.empty());
  // The next timer NAKs the whole range.
  auto& out = t.Dn(Event::Timer(Millis(1)));
  Event* nak = nullptr;
  for (Event& ev : out.dn) {
    if (ev.type == EventType::kSend) {
      nak = &ev;
    }
  }
  ASSERT_NE(nak, nullptr);
  MnakHeader hdr = nak->hdrs.Pop<MnakHeader>(LayerId::kMnak);
  EXPECT_EQ(hdr.lo, 0u);
  EXPECT_EQ(hdr.hi, 4u);
}

// Data, retransmission and watermark headers kMaxSpan past the window are
// dropped: nothing buffered, no holes, so the next timer NAKs nothing.
TEST(MnakTest, DropsHeadersBeyondTheWindowSpan) {
  LayerTester t(LayerId::kMnak, 2, 0);
  uint32_t far = static_cast<uint32_t>(SeqWindow::kMaxSpan);
  EXPECT_TRUE(t.Up(MnakData(1, far, "far")).up.empty());
  Event re = Event::DeliverSend(1, LayerTester::Payload("far"));
  re.hdrs.Push(LayerId::kMnak, MnakHeader{kMnakRetrans, far, 0, 0});
  EXPECT_TRUE(t.Up(std::move(re)).up.empty());
  Event hi = Event::DeliverCast(1, Iovec());
  hi.hdrs.Push(LayerId::kMnak, MnakHeader{kMnakHi, far + 1, 0, 0});
  EXPECT_TRUE(t.Up(std::move(hi)).up.empty());
  EXPECT_TRUE(t.As<MnakLayer>().NoBacklog(1));
  for (Event& ev : t.Dn(Event::Timer(Millis(1))).dn) {
    EXPECT_NE(ev.type, EventType::kSend);
  }
  EXPECT_EQ(t.Up(MnakData(1, 0, "a")).up.size(), 1u);  // In reach: delivered.
}

TEST(MnakTest, AdvertisesWatermarkAfterSending) {
  LayerTester t(LayerId::kMnak, 2, 0);
  t.Dn(Event::Cast(LayerTester::Payload("m")));
  auto& out = t.Dn(Event::Timer(Millis(1)));
  Event* hi = nullptr;
  for (Event& ev : out.dn) {
    if (ev.type == EventType::kCast && ev.payload.empty()) {
      hi = &ev;
    }
  }
  ASSERT_NE(hi, nullptr);
  MnakHeader hdr = hi->hdrs.Pop<MnakHeader>(LayerId::kMnak);
  EXPECT_EQ(hdr.kind, kMnakHi);
  EXPECT_EQ(hdr.seqno, 1u);
}

TEST(MnakTest, PassesUpperSendsWithPassHeader) {
  LayerTester t(LayerId::kMnak, 2, 0);
  auto& out = t.Dn(Event::Send(1, LayerTester::Payload("ack")));
  ASSERT_EQ(out.dn.size(), 1u);
  MnakHeader hdr = out.dn[0].hdrs.Pop<MnakHeader>(LayerId::kMnak);
  EXPECT_EQ(hdr.kind, kMnakPass);

  Event up = Event::DeliverSend(1, LayerTester::Payload("ack"));
  up.hdrs.Push(LayerId::kMnak, MnakHeader{kMnakPass, 0, 0, 0});
  EXPECT_EQ(t.Up(std::move(up)).up.size(), 1u);
}

TEST(MnakTest, PerSenderWindowsAreIndependent) {
  LayerTester t(LayerId::kMnak, 3, 0);
  EXPECT_EQ(t.Up(MnakData(1, 0, "from1")).up.size(), 1u);
  EXPECT_TRUE(t.Up(MnakData(2, 1, "from2-late")).up.empty());  // 2's seq 0 missing.
  EXPECT_EQ(t.Up(MnakData(1, 1, "from1-next")).up.size(), 1u);
  EXPECT_EQ(t.Up(MnakData(2, 0, "from2-first")).up.size(), 2u);
}

// --------------------------------------------------------------------------
// pt2pt
// --------------------------------------------------------------------------

Event Pt2ptData(Rank origin, uint32_t seqno, std::string_view payload) {
  Event ev = Event::DeliverSend(origin, LayerTester::Payload(payload));
  ev.hdrs.Push(LayerId::kPt2pt, Pt2ptHeader{kPt2ptData, seqno, 0});
  return ev;
}

TEST(Pt2ptTest, NumbersSendsPerDestination) {
  LayerTester t(LayerId::kPt2pt, 3, 0);
  auto check = [&](Rank dest, uint32_t want_seqno) {
    auto& out = t.Dn(Event::Send(dest, LayerTester::Payload("x")));
    ASSERT_EQ(out.dn.size(), 1u);
    Pt2ptHeader hdr = out.dn[0].hdrs.Pop<Pt2ptHeader>(LayerId::kPt2pt);
    EXPECT_EQ(hdr.seqno, want_seqno);
  };
  check(1, 0);
  check(1, 1);
  check(2, 0);  // Independent counter per destination.
  check(1, 2);
}

TEST(Pt2ptTest, InOrderDelivery) {
  LayerTester t(LayerId::kPt2pt, 2, 0);
  EXPECT_EQ(t.Up(Pt2ptData(1, 0, "a")).up.size(), 1u);
  EXPECT_EQ(t.Up(Pt2ptData(1, 1, "b")).up.size(), 1u);
}

TEST(Pt2ptTest, OutOfOrderBufferedThenFlushed) {
  LayerTester t(LayerId::kPt2pt, 2, 0);
  EXPECT_TRUE(t.Up(Pt2ptData(1, 1, "b")).up.empty());
  auto& out = t.Up(Pt2ptData(1, 0, "a"));
  ASSERT_EQ(out.up.size(), 2u);
  EXPECT_EQ(out.up[0].payload.Flatten().view(), "a");
  EXPECT_EQ(out.up[1].payload.Flatten().view(), "b");
}

TEST(Pt2ptTest, DropsHeadersBeyondTheWindowSpan) {
  LayerTester t(LayerId::kPt2pt, 2, 0);
  EXPECT_TRUE(t.Up(Pt2ptData(1, static_cast<uint32_t>(SeqWindow::kMaxSpan), "far")).up.empty());
  EXPECT_TRUE(t.As<Pt2ptLayer>().NoBacklog(1));
  EXPECT_EQ(t.Up(Pt2ptData(1, 0, "a")).up.size(), 1u);  // In reach: delivered.
}

TEST(Pt2ptTest, TimerSendsCumulativeAck) {
  LayerTester t(LayerId::kPt2pt, 2, 0);
  t.Up(Pt2ptData(1, 0, "a"));
  t.Up(Pt2ptData(1, 1, "b"));
  auto& out = t.Dn(Event::Timer(Millis(1)));
  Event* ack = nullptr;
  for (Event& ev : out.dn) {
    if (ev.type == EventType::kSend) {
      ack = &ev;
    }
  }
  ASSERT_NE(ack, nullptr);
  Pt2ptHeader hdr = ack->hdrs.Pop<Pt2ptHeader>(LayerId::kPt2pt);
  EXPECT_EQ(hdr.kind, kPt2ptAck);
  EXPECT_EQ(hdr.ackno, 2u);
  // No progress since: the next timer sends no ack.
  auto& out2 = t.Dn(Event::Timer(Millis(2)));
  for (Event& ev : out2.dn) {
    EXPECT_NE(ev.type, EventType::kSend);
  }
}

TEST(Pt2ptTest, AckPrunesUnackedBuffer) {
  LayerTester t(LayerId::kPt2pt, 2, 0);
  for (int i = 0; i < 4; i++) {
    t.Dn(Event::Send(1, LayerTester::Payload("m")));
  }
  EXPECT_EQ(t.As<Pt2ptLayer>().UnackedCount(1), 4u);
  Event ack = Event::DeliverSend(1, Iovec());
  ack.hdrs.Push(LayerId::kPt2pt, Pt2ptHeader{kPt2ptAck, 0, 3});
  t.Up(std::move(ack));
  EXPECT_EQ(t.As<Pt2ptLayer>().UnackedCount(1), 1u);
}

TEST(Pt2ptTest, RetransmitsAfterTimeout) {
  LayerParams params;
  params.retrans_timeout = Millis(5);
  LayerTester t(LayerId::kPt2pt, 2, 0, params);
  t.Dn(Event::Send(1, LayerTester::Payload("lost")));
  // First tick arms; second tick past the timeout resends.
  t.Dn(Event::Timer(Millis(1)));
  auto& out = t.Dn(Event::Timer(Millis(7)));
  Event* re = nullptr;
  for (Event& ev : out.dn) {
    if (ev.type == EventType::kSend) {
      re = &ev;
    }
  }
  ASSERT_NE(re, nullptr);
  Pt2ptHeader hdr = re->hdrs.Pop<Pt2ptHeader>(LayerId::kPt2pt);
  EXPECT_EQ(hdr.kind, kPt2ptData);
  EXPECT_EQ(hdr.seqno, 0u);
  EXPECT_EQ(re->payload.Flatten().view(), "lost");
}

TEST(Pt2ptTest, DuplicateDataReAcked) {
  LayerTester t(LayerId::kPt2pt, 2, 0);
  t.Up(Pt2ptData(1, 0, "a"));
  t.Dn(Event::Timer(Millis(1)));  // Ack sent; ack_due cleared.
  EXPECT_TRUE(t.Up(Pt2ptData(1, 0, "a")).up.empty());  // Duplicate dropped...
  auto& out = t.Dn(Event::Timer(Millis(2)));
  Event* ack = nullptr;
  for (Event& ev : out.dn) {
    if (ev.type == EventType::kSend) {
      ack = &ev;
    }
  }
  EXPECT_NE(ack, nullptr);  // ...but re-acked so the sender stops.
}

TEST(Pt2ptTest, CastsPassThroughUntouched) {
  LayerTester t(LayerId::kPt2pt, 2, 0);
  auto& dn = t.Dn(Event::Cast(LayerTester::Payload("c")));
  ASSERT_EQ(dn.dn.size(), 1u);
  EXPECT_TRUE(dn.dn[0].hdrs.empty());
  auto& up = t.Up(Event::DeliverCast(1, LayerTester::Payload("c")));
  ASSERT_EQ(up.up.size(), 1u);
}

}  // namespace
}  // namespace ensemble
