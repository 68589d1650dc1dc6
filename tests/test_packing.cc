// Transport-level message packing: framing round-trips, auto-flush
// boundaries, and end-to-end delivery through the normal and bypass paths.

#include <gtest/gtest.h>

#include "src/app/harness.h"
#include "src/trans/transport.h"

namespace ensemble {
namespace {

struct Emitted {
  Transport::PackDest dest;
  Bytes datagram;
};

// A transport whose emit hook records every outgoing datagram.
struct PackFixture {
  Transport transport;
  std::vector<Emitted> out;

  explicit PackFixture(size_t max_msgs = 16, size_t max_bytes = 60000) {
    transport.EnablePacking(
        [this](const Transport::PackDest& d, const Iovec& wire) {
          out.push_back({d, wire.Flatten()});
        },
        max_msgs, max_bytes);
  }
};

TEST(PackingTest, ManySmallSendsBecomeOneOrderPreservingDatagram) {
  PackFixture f;
  std::vector<std::string> payloads;
  for (int i = 0; i < 10; i++) {
    payloads.push_back("msg-" + std::to_string(i));
    f.transport.PackSend(EndpointId{7}, Iovec(Bytes::CopyString(payloads.back())));
  }
  EXPECT_TRUE(f.out.empty());  // Below the window: still staged.
  f.transport.FlushPacked();
  ASSERT_EQ(f.out.size(), 1u);
  EXPECT_FALSE(f.out[0].dest.cast);
  EXPECT_EQ(f.out[0].dest.dst, EndpointId{7});

  ASSERT_TRUE(Transport::IsPacked(f.out[0].datagram));
  std::vector<Bytes> subs;
  ASSERT_TRUE(f.transport.Unpack(f.out[0].datagram, &subs));
  ASSERT_EQ(subs.size(), payloads.size());
  for (size_t i = 0; i < subs.size(); i++) {
    EXPECT_EQ(subs[i].ToString(), payloads[i]);  // Order and content survive.
  }
  EXPECT_EQ(f.transport.pack_stats().packed_datagrams, 1u);
  EXPECT_EQ(f.transport.pack_stats().staged, 10u);
}

TEST(PackingTest, LoneMessageGoesOutUnwrapped) {
  PackFixture f;
  f.transport.PackCast(Iovec(Bytes::CopyString("solo")));
  f.transport.FlushPacked();
  ASSERT_EQ(f.out.size(), 1u);
  EXPECT_TRUE(f.out[0].dest.cast);
  EXPECT_FALSE(Transport::IsPacked(f.out[0].datagram));
  EXPECT_EQ(f.out[0].datagram.ToString(), "solo");
  EXPECT_EQ(f.transport.pack_stats().single_flushes, 1u);
}

TEST(PackingTest, WindowAutoFlushes) {
  PackFixture f(/*max_msgs=*/4);
  for (int i = 0; i < 4; i++) {
    f.transport.PackCast(Iovec(Bytes::CopyString("x")));
  }
  ASSERT_EQ(f.out.size(), 1u);  // Emitted without an explicit flush.
  std::vector<Bytes> subs;
  ASSERT_TRUE(f.transport.Unpack(f.out[0].datagram, &subs));
  EXPECT_EQ(subs.size(), 4u);
}

TEST(PackingTest, ByteBudgetClosesPackBeforeOverflow) {
  PackFixture f(/*max_msgs=*/100, /*max_bytes=*/64);
  std::string big(40, 'a');
  f.transport.PackCast(Iovec(Bytes::CopyString(big)));
  f.transport.PackCast(Iovec(Bytes::CopyString(big)));  // Would blow 64 bytes.
  ASSERT_GE(f.out.size(), 1u);
  for (const Emitted& e : f.out) {
    EXPECT_LE(e.datagram.size(), 64u + big.size());  // Never two bigs in one.
  }
  f.transport.FlushPacked();
  size_t total = 0;
  std::vector<Bytes> subs;
  for (const Emitted& e : f.out) {
    if (Transport::IsPacked(e.datagram)) {
      ASSERT_TRUE(f.transport.Unpack(e.datagram, &subs));
    } else {
      total++;
    }
  }
  total += subs.size();
  EXPECT_EQ(total, 2u);  // Nothing lost to the split.
}

TEST(PackingTest, DestinationsDoNotMix) {
  PackFixture f;
  f.transport.PackSend(EndpointId{1}, Iovec(Bytes::CopyString("to-1")));
  f.transport.PackSend(EndpointId{2}, Iovec(Bytes::CopyString("to-2")));
  f.transport.PackCast(Iovec(Bytes::CopyString("to-all")));
  f.transport.FlushPacked();
  ASSERT_EQ(f.out.size(), 3u);  // One (lone, unwrapped) datagram per queue.
  for (const Emitted& e : f.out) {
    EXPECT_FALSE(Transport::IsPacked(e.datagram));
  }
}

TEST(PackingTest, MalformedPackedDatagramsAreRejected) {
  Transport t;
  std::vector<Bytes> subs;
  // Truncated length prefix.
  uint8_t bad1[] = {kWirePacked, 2, 0xFF};
  EXPECT_FALSE(t.Unpack(Bytes::Copy(bad1, sizeof(bad1)), &subs));
  // Length running past the end.
  uint8_t bad2[] = {kWirePacked, 1, 50, 0, 0, 0, 'x'};
  EXPECT_FALSE(t.Unpack(Bytes::Copy(bad2, sizeof(bad2)), &subs));
  // Trailing garbage after the last sub-message.
  uint8_t bad3[] = {kWirePacked, 1, 1, 0, 0, 0, 'x', 'y'};
  EXPECT_FALSE(t.Unpack(Bytes::Copy(bad3, sizeof(bad3)), &subs));
  EXPECT_TRUE(subs.empty());
  // And a well-formed one for contrast.
  uint8_t good[] = {kWirePacked, 1, 1, 0, 0, 0, 'x'};
  EXPECT_TRUE(t.Unpack(Bytes::Copy(good, sizeof(good)), &subs));
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].ToString(), "x");
}

// End-to-end through the full marshal path: packed datagrams cross the
// simulated network and unpack into ordered deliveries.
TEST(PackingGroupTest, PackedCastsDeliverInOrderOverSim) {
  HarnessConfig hc;
  hc.n = 2;
  hc.ep.mode = StackMode::kFunctional;
  hc.ep.pack_messages = true;
  hc.ep.pack_window = 8;
  GroupHarness g(hc);
  g.StartAll();
  for (int i = 0; i < 20; i++) {
    g.CastFrom(0, "pack-" + std::to_string(i));
  }
  g.FlushAll();
  g.Run(Millis(50));
  auto got = g.CastPayloads(1);
  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; i++) {
    EXPECT_EQ(got[static_cast<size_t>(i)], "pack-" + std::to_string(i));
  }
  // The wire actually carried packed datagrams.
  EXPECT_GT(g.network().stats().packed_datagrams, 0u);
  EXPECT_GT(g.member(1).stats().packed_in, 0u);
}

// The bypass path stays CCP-compatible: compressed datagrams packed together
// still route through the compiled fast path on the receiver.
TEST(PackingGroupTest, PackedBypassDatagramsTakeCompressedPath) {
  HarnessConfig hc;
  hc.n = 2;
  hc.ep.mode = StackMode::kMachine;
  hc.ep.pack_messages = true;
  hc.ep.pack_window = 4;
  GroupHarness g(hc);
  g.StartAll();
  for (int i = 0; i < 12; i++) {
    g.CastFrom(0, "byp-" + std::to_string(i));
  }
  g.FlushAll();
  g.Run(Millis(50));
  auto got = g.CastPayloads(1);
  ASSERT_EQ(got.size(), 12u);
  EXPECT_EQ(got.front(), "byp-0");
  EXPECT_EQ(got.back(), "byp-11");
  EXPECT_GT(g.member(0).stats().bypass_down, 0u);
  EXPECT_GT(g.member(1).stats().bypass_up, 0u);  // Compressed subs fast-pathed.
  EXPECT_GT(g.member(1).stats().packed_in, 0u);  // ... from packed datagrams.
  EXPECT_GT(g.network().stats().packed_datagrams, 0u);
}

// Unflushed packs drain on the periodic timer: no message is ever stuck.
TEST(PackingGroupTest, TimerFlushesWithoutExplicitBoundary) {
  HarnessConfig hc;
  hc.n = 2;
  hc.ep.mode = StackMode::kFunctional;
  hc.ep.pack_messages = true;
  hc.ep.pack_window = 64;  // Far above what we send.
  GroupHarness g(hc);
  g.StartAll();
  g.CastFrom(0, "eventually");
  g.Run(Millis(20));  // No FlushAll: the 1ms endpoint timer must flush.
  auto got = g.CastPayloads(1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "eventually");
}

}  // namespace
}  // namespace ensemble
