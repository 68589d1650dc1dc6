// End-to-end smoke tests: whole groups exchanging multicast and
// point-to-point traffic in every execution mode, over perfect and lossy
// networks.

#include <gtest/gtest.h>

#include "src/app/harness.h"

namespace ensemble {
namespace {

HarnessConfig BaseConfig(StackMode mode, std::vector<LayerId> layers) {
  HarnessConfig c;
  c.n = 2;
  c.net = NetworkConfig::Perfect();
  c.ep.mode = mode;
  c.ep.layers = std::move(layers);
  c.ep.params.local_loopback = false;
  return c;
}

class GroupSmokeTest : public ::testing::TestWithParam<StackMode> {};

TEST_P(GroupSmokeTest, TenLayerCastDelivers) {
  GroupHarness g(BaseConfig(GetParam(), TenLayerStack()));
  g.StartAll();
  g.CastFrom(0, "hello");
  g.CastFrom(0, "world");
  g.Run(Millis(50));
  EXPECT_EQ(g.CastPayloads(1), (std::vector<std::string>{"hello", "world"}));
  EXPECT_TRUE(g.CastPayloads(0).empty());  // Loopback off.
}

TEST_P(GroupSmokeTest, FourLayerCastDelivers) {
  GroupHarness g(BaseConfig(GetParam(), FourLayerStack()));
  g.StartAll();
  for (int i = 0; i < 10; i++) {
    g.CastFrom(0, "m" + std::to_string(i));
  }
  g.Run(Millis(50));
  ASSERT_EQ(g.CastPayloads(1).size(), 10u);
  EXPECT_EQ(g.CastPayloads(1)[0], "m0");
  EXPECT_EQ(g.CastPayloads(1)[9], "m9");
}

TEST_P(GroupSmokeTest, FourLayerSendDelivers) {
  GroupHarness g(BaseConfig(GetParam(), FourLayerStack()));
  g.StartAll();
  g.SendFrom(0, 1, "p2p-a");
  g.SendFrom(1, 0, "p2p-b");
  g.Run(Millis(50));
  ASSERT_EQ(g.deliveries(1).size(), 1u);
  EXPECT_EQ(g.deliveries(1)[0].payload, "p2p-a");
  EXPECT_EQ(g.deliveries(1)[0].type, EventType::kDeliverSend);
  ASSERT_EQ(g.deliveries(0).size(), 1u);
  EXPECT_EQ(g.deliveries(0)[0].payload, "p2p-b");
}

TEST_P(GroupSmokeTest, TenLayerSendDelivers) {
  GroupHarness g(BaseConfig(GetParam(), TenLayerStack()));
  g.StartAll();
  g.SendFrom(0, 1, "x");
  g.Run(Millis(50));
  ASSERT_EQ(g.deliveries(1).size(), 1u);
  EXPECT_EQ(g.deliveries(1)[0].payload, "x");
}

TEST_P(GroupSmokeTest, BidirectionalTraffic) {
  // Two senders share the total-order token, so members must deliver their
  // own casts (local loopback) for the global sequence to advance — the
  // 10-layer stack's `local` layer provides exactly that.
  HarnessConfig c = BaseConfig(GetParam(), TenLayerStack());
  c.ep.params.local_loopback = true;
  GroupHarness g(c);
  g.StartAll();
  for (int i = 0; i < 20; i++) {
    g.CastFrom(0, "a" + std::to_string(i));
    g.Run(Micros(300));
    g.CastFrom(1, "b" + std::to_string(i));
    g.Run(Micros(300));
  }
  g.Run(Millis(100));
  EXPECT_EQ(g.CastPayloadsFrom(1, 0).size(), 20u);
  EXPECT_EQ(g.CastPayloadsFrom(0, 1).size(), 20u);
}

INSTANTIATE_TEST_SUITE_P(AllModes, GroupSmokeTest,
                         ::testing::Values(StackMode::kImperative, StackMode::kFunctional,
                                           StackMode::kMachine),
                         [](const auto& info) { return StackModeName(info.param); });

TEST(HandModeTest, FourLayerCastAndSend) {
  GroupHarness g(BaseConfig(StackMode::kHand, FourLayerStack()));
  g.StartAll();
  for (int i = 0; i < 10; i++) {
    g.CastFrom(0, "m" + std::to_string(i));
  }
  g.SendFrom(1, 0, "reply");
  g.Run(Millis(50));
  EXPECT_EQ(g.CastPayloads(1).size(), 10u);
  ASSERT_EQ(g.deliveries(0).size(), 1u);
  EXPECT_EQ(g.deliveries(0)[0].payload, "reply");
  // The fast path actually ran.
  EXPECT_GT(g.member(0).stats().bypass_down, 0u);
  EXPECT_GT(g.member(1).stats().bypass_up, 0u);
}

TEST(MachSmokeTest, BypassHitsOnCommonCase) {
  GroupHarness g(BaseConfig(StackMode::kMachine, TenLayerStack()));
  g.StartAll();
  for (int i = 0; i < 8; i++) {
    g.CastFrom(0, "m");
    g.Run(Millis(1));
  }
  g.Run(Millis(20));
  const auto& tx = g.member(0).stats();
  const auto& rx = g.member(1).stats();
  EXPECT_EQ(tx.bypass_down, 8u);
  EXPECT_EQ(tx.bypass_down_miss, 0u);
  // Every data cast and every stability gossip cast took a compiled route.
  ASSERT_NE(g.member(1).gossip_route(), nullptr);
  EXPECT_EQ(rx.bypass_up, 8u + g.member(1).gossip_route()->ccp_stats().up_hits);
  EXPECT_EQ(rx.bypass_up_fallback, 0u);
  EXPECT_EQ(rx.delivered, 8u);
}

TEST(MachSmokeTest, LoopbackSplitDeliversOwnCasts) {
  HarnessConfig c = BaseConfig(StackMode::kMachine, TenLayerStack());
  c.ep.params.local_loopback = true;
  GroupHarness g(c);
  g.StartAll();
  g.CastFrom(0, "self");
  g.Run(Millis(20));
  EXPECT_EQ(g.CastPayloads(0), (std::vector<std::string>{"self"}));
  EXPECT_EQ(g.CastPayloads(1), (std::vector<std::string>{"self"}));
}

TEST(MixedModeTest, MachTalksToFunc) {
  // Interop: compressed datagrams are understood by a FUNC receiver through
  // the conn-table reconstruction path only if it also compiled routes; a
  // FUNC endpoint has none, so the MACH sender's normal-path traffic must
  // still get through.  Here the MACH sender's CCP always holds, so we give
  // the receiver MACH mode too but drive deliveries through its fallback by
  // sending from FUNC.
  HarnessConfig c = BaseConfig(StackMode::kMachine, TenLayerStack());
  GroupHarness g(c);
  g.StartAll();
  // Make member 1 send generically by forcing its normal path: FUNC mode is
  // per-endpoint config, so emulate by casting through the stack directly.
  g.member(1).stack()->Down(Event::Cast(Iovec(Bytes::CopyString("generic"))));
  g.Run(Millis(20));
  EXPECT_EQ(g.CastPayloads(0), (std::vector<std::string>{"generic"}));
}

TEST(LossyNetworkTest, TenLayerRecoversFifoUnderLossDupReorder) {
  HarnessConfig c = BaseConfig(StackMode::kFunctional, TenLayerStack());
  c.net = NetworkConfig::Lossy(0.15, 0.10, 0.20, /*seed=*/42);
  GroupHarness g(c);
  g.StartAll();
  std::vector<std::string> sent;
  for (int i = 0; i < 50; i++) {
    std::string m = "m" + std::to_string(i);
    sent.push_back(m);
    g.CastFrom(0, m);
    g.Run(Micros(500));
  }
  g.Run(Millis(500));
  EXPECT_EQ(g.CastPayloadsFrom(1, 0), sent);
}

TEST(LossyNetworkTest, MachRecoversViaFallbackPath) {
  HarnessConfig c = BaseConfig(StackMode::kMachine, TenLayerStack());
  c.net = NetworkConfig::Lossy(0.15, 0.05, 0.15, /*seed=*/7);
  GroupHarness g(c);
  g.StartAll();
  std::vector<std::string> sent;
  for (int i = 0; i < 50; i++) {
    std::string m = "m" + std::to_string(i);
    sent.push_back(m);
    g.CastFrom(0, m);
    g.Run(Micros(500));
  }
  g.Run(Millis(500));
  EXPECT_EQ(g.CastPayloadsFrom(1, 0), sent);
  // Loss must have pushed some deliveries off the fast path.
  EXPECT_GT(g.member(1).stats().bypass_up_fallback, 0u);
}

}  // namespace
}  // namespace ensemble
