// Whole-system integration and property tests: large groups, long runs,
// fault sweeps, view changes with virtual synchrony, stability pruning, and
// the spec monitors as oracles.

#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "src/layers/mnak.h"
#include "src/spec/monitors.h"
#include "src/util/rng.h"

namespace ensemble {
namespace {

// ---------------------------------------------------------------------------
// Fault sweep: reliable FIFO totally-ordered delivery must survive any mix
// of loss / duplication / reordering, in every execution mode.
// ---------------------------------------------------------------------------

struct SweepCase {
  StackMode mode;
  double drop;
  double dup;
  double reorder;
  uint64_t seed;
};

void PrintTo(const SweepCase& sc, std::ostream* os) {
  *os << StackModeName(sc.mode) << " drop=" << sc.drop << " dup=" << sc.dup
      << " reorder=" << sc.reorder << " seed=" << sc.seed;
}

class FaultSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(FaultSweepTest, ReliableTotalOrderSurvives) {
  const SweepCase& sc = GetParam();
  HarnessConfig config;
  config.n = 3;
  config.net = NetworkConfig::Lossy(sc.drop, sc.dup, sc.reorder, sc.seed);
  config.ep.mode = sc.mode;
  config.ep.layers = TenLayerStack();
  config.ep.params.local_loopback = true;
  GroupHarness g(config);
  g.StartAll();

  std::vector<std::vector<std::string>> sent(3);
  Rng rng(sc.seed);
  for (int i = 0; i < 40; i++) {
    int from = static_cast<int>(rng.Below(3));
    sent[static_cast<size_t>(from)].push_back("m" + std::to_string(i));
    g.CastFrom(from, sent[static_cast<size_t>(from)].back());
    g.Run(Micros(400));
  }
  g.Run(Millis(1500));

  MonitorResult fifo = CheckReliableFifo(g, sent, /*include_self=*/true);
  EXPECT_TRUE(fifo.ok) << fifo.ToString();
  EXPECT_TRUE(CheckNoDuplicates(g).ok);
  MonitorResult agreement = CheckTotalOrderAgreement(g);
  EXPECT_TRUE(agreement.ok) << agreement.ToString();
}

std::string SweepName(const ::testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& sc = info.param;
  return std::string(StackModeName(sc.mode)) + "_d" +
         std::to_string(static_cast<int>(sc.drop * 100)) + "_s" + std::to_string(sc.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Faults, FaultSweepTest,
    ::testing::Values(SweepCase{StackMode::kFunctional, 0.0, 0.0, 0.0, 1},
                      SweepCase{StackMode::kFunctional, 0.2, 0.1, 0.2, 2},
                      SweepCase{StackMode::kFunctional, 0.3, 0.0, 0.0, 3},
                      SweepCase{StackMode::kImperative, 0.2, 0.1, 0.2, 4},
                      SweepCase{StackMode::kImperative, 0.1, 0.2, 0.1, 5},
                      SweepCase{StackMode::kMachine, 0.2, 0.1, 0.2, 6},
                      SweepCase{StackMode::kMachine, 0.3, 0.1, 0.3, 7},
                      SweepCase{StackMode::kMachine, 0.0, 0.3, 0.0, 8}),
    SweepName);

// ---------------------------------------------------------------------------
// Bigger groups.
// ---------------------------------------------------------------------------

TEST(ScaleTest, EightMemberGroupTotalOrder) {
  HarnessConfig config;
  config.n = 8;
  config.net = NetworkConfig::Lossy(0.05, 0.02, 0.05, 99);
  config.ep.layers = TenLayerStack();
  config.ep.params.local_loopback = true;
  GroupHarness g(config);
  g.StartAll();
  for (int i = 0; i < 24; i++) {
    g.CastFrom(i % 8, "m" + std::to_string(i));
    g.Run(Millis(1));
  }
  g.Run(Millis(1500));
  // All 8 transcripts identical and complete.
  auto reference = g.CastPayloads(0);
  EXPECT_EQ(reference.size(), 24u);
  for (int m = 1; m < 8; m++) {
    EXPECT_EQ(g.CastPayloads(m), reference) << "member " << m;
  }
}

TEST(ScaleTest, SoloGroupWorks) {
  HarnessConfig config;
  config.n = 1;
  config.ep.layers = TenLayerStack();
  config.ep.params.local_loopback = true;
  GroupHarness g(config);
  g.StartAll();
  g.CastFrom(0, "alone");
  g.Run(Millis(20));
  EXPECT_EQ(g.CastPayloads(0), (std::vector<std::string>{"alone"}));
}

// ---------------------------------------------------------------------------
// Stability actually prunes retransmission buffers.
// ---------------------------------------------------------------------------

struct StabilityCase {
  int n;
  bool local_loopback;
};

std::string StabilityCaseName(const StabilityCase& sc) {
  return "n" + std::to_string(sc.n) + (sc.local_loopback ? "_loopback" : "_noloopback");
}

void PrintTo(const StabilityCase& sc, std::ostream* os) { *os << StabilityCaseName(sc); }

class StabilityTest : public ::testing::TestWithParam<StabilityCase> {};

// Member 0 casts, everyone else only gossips.  Every member's buffer — the
// gossip casts of members 1..n-1 included — must shrink to the unstable
// tail, and once idle the group must go quiet rather than re-advertise its
// send watermarks every tick.
TEST_P(StabilityTest, GossipPrunesMnakBuffers) {
  const StabilityCase& sc = GetParam();
  HarnessConfig config;
  config.n = sc.n;
  config.ep.layers = TenLayerStack();
  config.ep.params.local_loopback = sc.local_loopback;
  config.ep.params.stable_interval = 4;  // Gossip often.
  GroupHarness g(config);
  g.StartAll();
  for (int i = 0; i < 32; i++) {
    g.CastFrom(0, "m" + std::to_string(i));
    g.Run(Millis(1));
  }
  g.Run(Millis(200));
  uint64_t sent_before = g.network().stats().sent;
  g.Run(Millis(100));  // The third 100 ms of idle time.
  uint64_t idle_sent = g.network().stats().sent - sent_before;
  // At most one watermark re-advertisement per member (backed off to 64+
  // ticks by now), each reaching n-1 peers.
  EXPECT_LE(idle_sent, static_cast<uint64_t>(sc.n * (sc.n - 1)));
  for (int m = 0; m < sc.n; m++) {
    auto* mnak = static_cast<MnakLayer*>(g.member(m).stack()->FindLayer(LayerId::kMnak));
    EXPECT_LE(mnak->retrans_buffer_size(), config.ep.params.stable_interval) << "member " << m;
  }
  for (int m = 1; m < sc.n; m++) {
    EXPECT_EQ(g.CastPayloadsFrom(m, 0).size(), 32u) << "member " << m;
  }
}

std::string StabilityName(const ::testing::TestParamInfo<StabilityCase>& info) {
  return StabilityCaseName(info.param);
}

INSTANTIATE_TEST_SUITE_P(Groups, StabilityTest,
                         ::testing::Values(StabilityCase{2, false}, StabilityCase{4, true}),
                         StabilityName);

// ---------------------------------------------------------------------------
// View change + virtual synchrony.
// ---------------------------------------------------------------------------

TEST(VsyncTest, SurvivorsAgreeOnPerViewMessageSets) {
  HarnessConfig config;
  config.n = 3;
  config.ep.layers = {LayerId::kPartialAppl, LayerId::kIntra, LayerId::kElect,
                      LayerId::kSync,        LayerId::kSuspect, LayerId::kPt2pt,
                      LayerId::kMnak,        LayerId::kBottom};
  config.ep.params.suspect_max_idle = 4;
  config.ep.timer_interval = Millis(2);
  GroupHarness g(config);
  g.StartAll();

  // Traffic in view 1.
  std::vector<std::vector<std::string>> sent(2);
  for (int i = 0; i < 6; i++) {
    sent[static_cast<size_t>(i % 2)].push_back("v1-" + std::to_string(i));
    g.CastFrom(i % 2, sent[static_cast<size_t>(i % 2)].back());
    g.Run(Millis(2));
  }
  g.Run(Millis(20));
  g.Crash(2);
  g.Run(Millis(400));  // Flush + view change.

  // Survivors 0 and 1 have the same view-1 message set.  The membership
  // stack has no `local` layer, so a member's own casts count as possessed
  // without a delivery event.
  auto view1_set = [&](int m) {
    std::vector<std::string> msgs = sent[static_cast<size_t>(m)];
    for (const auto& d : g.deliveries(m)) {
      if (d.type == EventType::kDeliverCast && d.payload.rfind("v1-", 0) == 0) {
        msgs.push_back(d.payload);
      }
    }
    return msgs;
  };
  MonitorResult vsync = CheckVirtualSynchrony({view1_set(0), view1_set(1)});
  EXPECT_TRUE(vsync.ok) << vsync.ToString();

  // And both installed the same 2-member view.
  ASSERT_FALSE(g.views(0).empty());
  ASSERT_FALSE(g.views(1).empty());
  EXPECT_EQ(g.views(0).back()->vid, g.views(1).back()->vid);
  EXPECT_EQ(g.views(0).back()->nmembers(), 2);
}

// ---------------------------------------------------------------------------
// Long-run soak: sustained bidirectional traffic through MACH with realistic
// windows — fast path and normal path continuously interleaved.
// ---------------------------------------------------------------------------

TEST(SoakTest, MachSustainedTrafficWithRealWindows) {
  HarnessConfig config;
  config.n = 2;
  config.net = NetworkConfig::Lossy(0.05, 0.02, 0.05, 2718);
  config.ep.mode = StackMode::kMachine;
  config.ep.layers = TenLayerStack();
  config.ep.params.local_loopback = true;
  config.ep.params.mflow_window = 16;
  config.ep.params.stable_interval = 8;
  GroupHarness g(config);
  g.StartAll();

  std::vector<std::vector<std::string>> sent(2);
  for (int i = 0; i < 200; i++) {
    int from = i % 2;
    sent[static_cast<size_t>(from)].push_back("s" + std::to_string(i));
    g.CastFrom(from, sent[static_cast<size_t>(from)].back());
    g.Run(Micros(700));
  }
  g.Run(Millis(2000));

  MonitorResult fifo = CheckReliableFifo(g, sent, true);
  EXPECT_TRUE(fifo.ok) << fifo.ToString();
  MonitorResult agreement = CheckTotalOrderAgreement(g);
  EXPECT_TRUE(agreement.ok) << agreement.ToString();
  // Both paths genuinely exercised.
  const auto& stats = g.member(0).stats();
  EXPECT_GT(stats.bypass_down, 0u);
  EXPECT_GT(stats.bypass_down_miss, 0u);
}

// ---------------------------------------------------------------------------
// Buggy total order loses messages under reordering (the §3 bug end-to-end,
// deterministic seed).
// ---------------------------------------------------------------------------

TEST(BugReproTest, TotalBuggyViolatesReliabilityUnderReorder) {
  HarnessConfig config;
  config.n = 3;
  config.net = NetworkConfig::Perfect();
  config.net.jitter = Micros(300);
  config.net.seed = 13;
  config.ep.layers = {LayerId::kPartialAppl, LayerId::kTotalBuggy, LayerId::kLocal,
                      LayerId::kCollect,     LayerId::kFrag,       LayerId::kPt2ptw,
                      LayerId::kMflow,       LayerId::kPt2pt,      LayerId::kMnak,
                      LayerId::kBottom};
  config.ep.params.local_loopback = true;
  GroupHarness g(config);
  g.StartAll();
  std::vector<std::vector<std::string>> sent(3);
  for (int i = 0; i < 30; i++) {
    sent[0].push_back("x" + std::to_string(i));
    sent[1].push_back("y" + std::to_string(i));
    g.CastFrom(0, sent[0].back());
    g.CastFrom(1, sent[1].back());
    g.Run(Micros(150));
  }
  g.Run(Millis(300));
  EXPECT_FALSE(CheckReliableFifo(g, sent, true).ok)
      << "the buggy layer should have silently skipped messages";

  // The correct layer under identical conditions does not.
  HarnessConfig good = config;
  good.ep.layers = TenLayerStack();
  GroupHarness g2(good);
  g2.StartAll();
  for (int i = 0; i < 30; i++) {
    g2.CastFrom(0, sent[0][static_cast<size_t>(i)]);
    g2.CastFrom(1, sent[1][static_cast<size_t>(i)]);
    g2.Run(Micros(150));
  }
  g2.Run(Millis(500));
  MonitorResult fifo = CheckReliableFifo(g2, sent, true);
  EXPECT_TRUE(fifo.ok) << fifo.ToString();
}

// ---------------------------------------------------------------------------
// Endpoint statistics are coherent.
// ---------------------------------------------------------------------------

TEST(StatsTest, CountersAddUp) {
  HarnessConfig config;
  config.n = 2;
  config.ep.mode = StackMode::kMachine;
  config.ep.layers = TenLayerStack();
  config.ep.params.local_loopback = false;
  GroupHarness g(config);
  g.StartAll();
  for (int i = 0; i < 10; i++) {
    g.CastFrom(0, "m");
    g.Run(Millis(1));
  }
  g.Run(Millis(50));
  const auto& tx = g.member(0).stats();
  const auto& rx = g.member(1).stats();
  EXPECT_EQ(tx.casts, 10u);
  EXPECT_EQ(tx.bypass_down + tx.bypass_down_miss, 10u);
  EXPECT_EQ(rx.delivered, 10u);
  EXPECT_GT(rx.packets_in, 0u);
}

}  // namespace
}  // namespace ensemble
