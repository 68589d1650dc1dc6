// Scenario engine tests: span-shape checker units over synthetic event
// streams, seeded adversarial scenarios under the spec oracles, oracle
// self-tests via injected bugs, SimQueue deterministic replay, and the
// overload ladder under partition-heal pressure bursts.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "src/net/network.h"
#include "src/overload/manager.h"
#include "src/scenario/scenario.h"
#include "src/scenario/span_check.h"

namespace ensemble {
namespace {

using obs::TraceEvent;
using obs::TraceKind;
using scenario::RunScenario;
using scenario::RunSeedSweep;
using scenario::ScenarioClass;
using scenario::ScenarioConfig;
using scenario::ScenarioResult;

TraceEvent Ev(TraceKind kind, uint64_t ts, int32_t member, uint16_t shard,
              uint64_t a, uint64_t b = 0) {
  TraceEvent e;
  e.ts_ns = ts;
  e.kind = static_cast<uint16_t>(kind);
  e.member = member;
  e.shard = shard;
  e.a = a;
  e.b = b;
  return e;
}

// --------------------------------------------------------------------------
// Span-shape checker: migrations
// --------------------------------------------------------------------------

TEST(SpanCheckTest, BalancedMigrationsPass) {
  // m7: shard 0 → 1; m9: shard 2 → 0; m7 again: 1 → 2.
  std::vector<TraceEvent> ev = {
      Ev(TraceKind::kHandoffStart, 10, 7, 0, 1),
      Ev(TraceKind::kHandoffStart, 13, 9, 2, 0),
      Ev(TraceKind::kAdopt, 15, 7, 1, 1),
      Ev(TraceKind::kAdopt, 16, 9, 0, 0),
      Ev(TraceKind::kHandoffStart, 20, 7, 1, 2),
      Ev(TraceKind::kAdopt, 25, 7, 2, 2),
  };
  SpanCheckResult r = CheckSpanShapes(ev);
  EXPECT_TRUE(r.ok) << r.ToString();
  EXPECT_EQ(r.migrations_completed, 3u);
  EXPECT_EQ(r.migrations_open, 0u);
}

TEST(SpanCheckTest, OverlappingMigrationForOneMemberFlagged) {
  std::vector<TraceEvent> ev = {
      Ev(TraceKind::kHandoffStart, 10, 7, 0, 1),
      Ev(TraceKind::kHandoffStart, 11, 7, 0, 2),  // Second open for m7.
      Ev(TraceKind::kAdopt, 15, 7, 2, 2),
  };
  SpanCheckResult r = CheckSpanShapes(ev);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.ToString().find("overlapping"), std::string::npos) << r.ToString();
}

TEST(SpanCheckTest, OrphanAdoptAndUnmatchedStartFlagged) {
  std::vector<TraceEvent> ev = {
      Ev(TraceKind::kAdopt, 5, 3, 1, 1),           // Never started.
      Ev(TraceKind::kHandoffStart, 10, 4, 0, 1),   // Never adopted.
  };
  SpanCheckResult r = CheckSpanShapes(ev);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.ToString().find("orphan adopt"), std::string::npos) << r.ToString();
  EXPECT_NE(r.ToString().find("without adopt"), std::string::npos) << r.ToString();
  EXPECT_EQ(r.migrations_open, 1u);

  // A live snapshot may legitimately have open handoffs.
  SpanCheckOptions opts;
  opts.require_migrations_closed = false;
  SpanCheckResult live = CheckSpanShapes({ev[1]}, opts);
  EXPECT_TRUE(live.ok) << live.ToString();
  EXPECT_EQ(live.migrations_open, 1u);
}

TEST(SpanCheckTest, AdoptOnWrongShardFlagged) {
  std::vector<TraceEvent> ev = {
      Ev(TraceKind::kHandoffStart, 10, 7, 0, 1),  // Aimed at shard 1...
      Ev(TraceKind::kAdopt, 15, 7, 2, 2),         // ...adopted on shard 2.
  };
  SpanCheckResult r = CheckSpanShapes(ev);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.ToString().find("wrong shard"), std::string::npos) << r.ToString();
}

// --------------------------------------------------------------------------
// Span-shape checker: overload ladder nesting
// --------------------------------------------------------------------------

TEST(SpanCheckTest, ProperlyNestedOverloadLadderPasses) {
  // One poll engages rungs 0-2 at pressure 800; a later poll drops to 450,
  // disengaging rungs 1-2 (ladder suffix); a final poll at 100 releases 0.
  std::vector<TraceEvent> ev = {
      Ev(TraceKind::kOverloadEngage, 10, -1, 0, 0, 800),
      Ev(TraceKind::kOverloadEngage, 11, -1, 0, 1, 800),
      Ev(TraceKind::kOverloadEngage, 12, -1, 0, 2, 800),
      Ev(TraceKind::kOverloadDisengage, 20, -1, 0, 1, 450),
      Ev(TraceKind::kOverloadDisengage, 21, -1, 0, 2, 450),
      Ev(TraceKind::kOverloadDisengage, 30, -1, 0, 0, 100),
  };
  SpanCheckResult r = CheckSpanShapes(ev);
  EXPECT_TRUE(r.ok) << r.ToString();
  EXPECT_EQ(r.overload_engages, 3u);
  EXPECT_EQ(r.overload_open, 0u);
}

TEST(SpanCheckTest, StuckHighRungFlagged) {
  // pause_group (rung 2) stays engaged while tighten_flush (rung 0) and
  // shrink_window (rung 1) release — the "stuck pause_group" failure.
  std::vector<TraceEvent> ev = {
      Ev(TraceKind::kOverloadEngage, 10, -1, 0, 0, 800),
      Ev(TraceKind::kOverloadEngage, 11, -1, 0, 1, 800),
      Ev(TraceKind::kOverloadEngage, 12, -1, 0, 2, 800),
      Ev(TraceKind::kOverloadDisengage, 20, -1, 0, 0, 300),
      Ev(TraceKind::kOverloadDisengage, 21, -1, 0, 1, 300),
  };
  SpanCheckResult r = CheckSpanShapes(ev);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.ToString().find("stuck"), std::string::npos) << r.ToString();
}

TEST(SpanCheckTest, DoubleEngageAndStrayDisengageFlagged) {
  std::vector<TraceEvent> bad1 = {
      Ev(TraceKind::kOverloadEngage, 10, -1, 0, 0, 600),
      Ev(TraceKind::kOverloadEngage, 11, -1, 0, 0, 700),
  };
  EXPECT_FALSE(CheckSpanShapes(bad1).ok);
  std::vector<TraceEvent> bad2 = {
      Ev(TraceKind::kOverloadDisengage, 10, -1, 0, 0, 100),
  };
  EXPECT_FALSE(CheckSpanShapes(bad2).ok);
}

// --------------------------------------------------------------------------
// Seeded scenarios under the spec oracles
// --------------------------------------------------------------------------

TEST(ScenarioTest, LossBurstPassesAllOracles) {
  ScenarioConfig cfg;
  cfg.cls = ScenarioClass::kLossBurst;
  cfg.seed = 0xA11CE;
  cfg.rounds = 14;
  ScenarioResult r = RunScenario(cfg);
  EXPECT_TRUE(r.ok) << r.ToString();
  EXPECT_GT(r.casts_sent, 0u);
  EXPECT_GT(r.deliveries, 0u);
}

TEST(ScenarioTest, PartitionHealPassesAllOracles) {
  ScenarioConfig cfg;
  cfg.cls = ScenarioClass::kPartitionHeal;
  cfg.seed = 0xBEE5;
  cfg.rounds = 12;
  ScenarioResult r = RunScenario(cfg);
  EXPECT_TRUE(r.ok) << r.ToString();
  EXPECT_EQ(r.partitions, 1u);
}

TEST(ScenarioTest, ChurnStormPassesChurnOracles) {
  ScenarioConfig cfg;
  cfg.cls = ScenarioClass::kChurnStorm;
  cfg.seed = 0xC0FFEE;
  cfg.group_size = 5;
  cfg.rounds = 10;
  ScenarioResult r = RunScenario(cfg);
  EXPECT_TRUE(r.ok) << r.ToString();
  EXPECT_GT(r.crashes + r.joins, 0u) << r.ToString();
  EXPECT_GT(r.views_installed, 0u);
}

TEST(ScenarioTest, ShardSkewPassesSpanOracle) {
  ScenarioConfig cfg;
  cfg.cls = ScenarioClass::kShardSkew;
  cfg.seed = 0xD1CE;
  cfg.rounds = 8;
  cfg.shard_members = 16;
  cfg.shard_workers = 3;
  cfg.skew_flips = 4;
  ScenarioResult r = RunScenario(cfg);
  EXPECT_TRUE(r.ok) << r.ToString();
  EXPECT_GT(r.deliveries, 0u);
}

TEST(ScenarioTest, SmallSoakMixesClassesAndStaysGreen) {
  ScenarioConfig cfg;
  cfg.cls = ScenarioClass::kSoak;
  cfg.seed = 0x50AC;
  cfg.num_groups = 8;
  cfg.group_size = 4;
  cfg.rounds = 8;
  cfg.shard_members = 12;
  cfg.shard_workers = 2;
  ScenarioResult r = RunScenario(cfg);
  EXPECT_TRUE(r.ok) << r.ToString();
  EXPECT_EQ(r.groups_run, 8);
}

TEST(ScenarioTest, SameSeedReproducesSameSchedule) {
  ScenarioConfig cfg;
  cfg.cls = ScenarioClass::kChurnStorm;
  cfg.seed = 0x5EED;
  cfg.rounds = 8;
  ScenarioResult a = RunScenario(cfg);
  ScenarioResult b = RunScenario(cfg);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.casts_sent, b.casts_sent);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.views_installed, b.views_installed);
  EXPECT_EQ(a.ok, b.ok);
}

// --------------------------------------------------------------------------
// Oracle self-test: injected bugs must be caught, reproducing seed printed
// --------------------------------------------------------------------------

TEST(ScenarioTest, InjectedFifoBugIsCaughtWithSeed) {
  ScenarioConfig cfg;
  cfg.cls = ScenarioClass::kLossBurst;
  cfg.rounds = 12;
  cfg.inject_fifo_bug = true;
  scenario::SweepResult sweep =
      RunSeedSweep(cfg, /*base_seed=*/1, /*count=*/4,
                   /*wall_clock_budget_ms=*/60000, &std::cerr);
  EXPECT_GT(sweep.failures, 0) << "fifo_buggy layer escaped the oracles";
  EXPECT_FALSE(sweep.failing_seeds.empty());
}

TEST(ScenarioTest, InjectedFifoBugIsCaughtUnderChurn) {
  ScenarioConfig cfg;
  cfg.cls = ScenarioClass::kChurnStorm;
  cfg.rounds = 10;
  cfg.inject_fifo_bug = true;
  scenario::SweepResult sweep =
      RunSeedSweep(cfg, /*base_seed=*/1, /*count=*/4,
                   /*wall_clock_budget_ms=*/60000, &std::cerr);
  EXPECT_GT(sweep.failures, 0) << "fifo_buggy layer escaped the churn oracles";
}

TEST(ScenarioTest, InjectedTotalOrderBugIsCaughtWithSeed) {
  ScenarioConfig cfg;
  cfg.cls = ScenarioClass::kLossBurst;
  cfg.rounds = 16;
  cfg.casts_per_round = 4;
  cfg.inject_total_bug = true;
  scenario::SweepResult sweep =
      RunSeedSweep(cfg, /*base_seed=*/1, /*count=*/6,
                   /*wall_clock_budget_ms=*/60000, &std::cerr);
  EXPECT_GT(sweep.failures, 0) << "total_buggy layer escaped the oracles";
}

// --------------------------------------------------------------------------
// Satellite: SimQueue deterministic replay
// --------------------------------------------------------------------------

// One lossy/reordering run: three endpoints exchange a fixed message
// schedule; the observed delivery log (receiver, payload, virtual time) is
// the run's fingerprint.
std::vector<std::string> LossyRunFingerprint(uint64_t seed) {
  SimQueue q;
  NetworkConfig nc = NetworkConfig::Lossy(0.25, 0.15, 0.30, seed);
  SimNetwork net(&q, nc);
  std::vector<std::string> log;
  for (uint64_t e = 1; e <= 3; e++) {
    net.Attach(EndpointId{e}, [&log, e, &q](const Packet& p) {
      log.push_back("ep" + std::to_string(e) + "<-" + std::to_string(p.src.id) + ":" +
                    p.datagram.ToString() + "@" + std::to_string(q.now()));
    });
  }
  for (int round = 0; round < 40; round++) {
    uint64_t src = 1 + static_cast<uint64_t>(round % 3);
    std::string payload = "r" + std::to_string(round);
    if (round % 4 == 0) {
      for (uint64_t dst = 1; dst <= 3; dst++) {
        if (dst != src) {
          net.Send(EndpointId{src}, EndpointId{dst}, Iovec(Bytes::CopyString(payload)));
        }
      }
    } else {
      uint64_t dst = 1 + static_cast<uint64_t>((round + 1) % 3);
      net.Send(EndpointId{src}, EndpointId{dst}, Iovec(Bytes::CopyString(payload)));
    }
    q.RunUntil(q.now() + Micros(100));
  }
  q.RunAll();
  return log;
}

TEST(SimQueueReplayTest, IdenticalSeedIdenticalDeliveryOrder) {
  std::vector<std::string> run1 = LossyRunFingerprint(0xFEED);
  std::vector<std::string> run2 = LossyRunFingerprint(0xFEED);
  ASSERT_FALSE(run1.empty());
  EXPECT_EQ(run1, run2);  // Same seed: byte-identical delivery schedule.

  std::vector<std::string> other = LossyRunFingerprint(0xFEED + 1);
  EXPECT_NE(run1, other);  // And the seed actually matters.
}

// --------------------------------------------------------------------------
// Satellite: overload ladder under partition-heal pressure bursts
// --------------------------------------------------------------------------

// A partition builds backlog (pressure ramps through every rung), the heal
// drains it (pressure collapses).  Several bursts in a row must leave a
// properly nested engage/disengage trace: rungs release as a ladder suffix
// (reverse order) and nothing — especially pause_group — sticks.
TEST(OverloadLadderTest, PartitionHealBurstsNestAndReleaseEveryRung) {
  using overload::Action;
  overload::OverloadConfig cfg;
  cfg.enabled = true;
  cfg.bytes_high = 1000;  // pressure‰ == live_bytes.
  cfg.low_priority_groups = {0};
  overload::OverloadManager mgr(cfg, /*num_groups=*/2);

  std::atomic<uint64_t> bytes{0};
  overload::OverloadSignals sig;
  sig.live_bytes = [&]() { return bytes.load(); };
  mgr.InstallSignals(std::move(sig));

  obs::TraceRing ring(1024, 0);
  obs::InstallThreadTraceRing(&ring);
  obs::SetTraceEnabled(true);

  uint64_t now = 1;
  auto poll_at = [&](uint64_t pressure) {
    bytes = pressure;
    mgr.ForcePoll(now++);
  };

  for (int burst = 0; burst < 4; burst++) {
    // Partition: backlog ramps through every engage threshold.
    for (uint64_t p : {400u, 550u, 650u, 800u, 900u, 990u}) {
      poll_at(p);
    }
    EXPECT_TRUE(mgr.engaged(Action::kKillShed));
    // Heal: backlog drains in steps through every disengage threshold.
    for (uint64_t p : {820u, 640u, 450u, 380u, 300u, 60u}) {
      poll_at(p);
    }
    for (int i = 0; i < overload::kActionCount; i++) {
      EXPECT_FALSE(mgr.engaged(static_cast<Action>(i)))
          << "rung " << overload::ActionName(static_cast<Action>(i))
          << " stuck after burst " << burst;
    }
  }

  obs::SetTraceEnabled(false);
  obs::InstallThreadTraceRing(nullptr);

  if (obs::kTraceCompiledIn) {
    SpanCheckResult span = CheckSpanShapes(ring.Snapshot());
    EXPECT_TRUE(span.ok) << span.ToString();
    EXPECT_EQ(span.overload_engages, 4u * overload::kActionCount);
    EXPECT_EQ(span.overload_open, 0u);
  }
}

}  // namespace
}  // namespace ensemble
