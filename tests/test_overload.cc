// Overload control: watermark hysteresis, per-group send windows, and the
// graduated manager — unit-level via ForcePoll with synthetic signals, plus a
// channel-runtime integration flood that drives the real wiring.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/overload/manager.h"
#include "src/overload/send_window.h"
#include "src/overload/watermark.h"
#include "src/runtime/runtime.h"

namespace ensemble {
namespace {

using overload::Action;
using overload::OverloadActions;
using overload::OverloadConfig;
using overload::OverloadManager;
using overload::OverloadSignals;
using overload::SendWindow;
using overload::Watermark;

// Waits until `pred` holds or `ms` elapses; returns whether it held.
template <typename Pred>
bool WaitUntil(Pred pred, int ms) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(WatermarkTest, EngagesAtHighDisengagesBelowLow) {
  Watermark m(100, 60);
  EXPECT_FALSE(m.engaged());
  EXPECT_FALSE(m.Update(99));   // Below high: stays off.
  EXPECT_TRUE(m.Update(100));   // Reaches high: flips on.
  EXPECT_TRUE(m.engaged());
  EXPECT_FALSE(m.Update(80));   // Inside the band: no flap.
  EXPECT_FALSE(m.Update(60));   // Low is exclusive: still engaged.
  EXPECT_TRUE(m.engaged());
  EXPECT_TRUE(m.Update(59));    // Below low: flips off.
  EXPECT_FALSE(m.engaged());
  EXPECT_EQ(m.engages(), 1u);
  EXPECT_EQ(m.disengages(), 1u);
}

TEST(WatermarkTest, OscillationInsideBandNeverFlaps) {
  Watermark m(100, 60);
  ASSERT_TRUE(m.Update(150));
  for (int i = 0; i < 50; i++) {
    EXPECT_FALSE(m.Update(i % 2 == 0 ? 61 : 99));
  }
  EXPECT_TRUE(m.engaged());
  EXPECT_EQ(m.engages(), 1u);
}

TEST(WatermarkTest, ZeroHighNeverEngages) {
  Watermark m(0, 0);
  EXPECT_FALSE(m.Update(~0ull));
  EXPECT_FALSE(m.engaged());
}

TEST(SendWindowTest, ReserveReleaseBoundsInFlight) {
  SendWindow w(1000, 100);
  EXPECT_TRUE(w.TryReserve(600));
  EXPECT_TRUE(w.TryReserve(400));   // Exactly at the limit.
  EXPECT_FALSE(w.TryReserve(1));    // Over: shed.
  EXPECT_EQ(w.sheds(), 1u);
  EXPECT_EQ(w.shed_bytes(), 1u);
  w.Release(400);
  EXPECT_TRUE(w.TryReserve(300));
  EXPECT_EQ(w.in_flight(), 900u);
  EXPECT_EQ(w.peak_in_flight(), 1000u);
  EXPECT_EQ(w.reserves(), 3u);
}

TEST(SendWindowTest, LoneOversizedMessageIsAdmitted) {
  SendWindow w(1000, 100);
  EXPECT_TRUE(w.TryReserve(5000));   // Empty window: never wedge big payloads.
  EXPECT_FALSE(w.TryReserve(1));     // But nothing rides alongside it.
  w.Release(5000);
  EXPECT_TRUE(w.TryReserve(1));
}

TEST(SendWindowTest, ShrinkWidenWalkTheLimitBetweenFloorAndInitial) {
  SendWindow w(1 << 20, 1 << 10);
  for (int i = 0; i < 40; i++) {
    w.Shrink();
  }
  EXPECT_EQ(w.limit(), 1u << 10);  // Clamped at the floor.
  for (int i = 0; i < 40; i++) {
    w.Widen();
  }
  EXPECT_EQ(w.limit(), 1u << 20);  // Recovers to the configured limit.
}

TEST(SendWindowTest, PauseShedsEverythingAndReleaseClampsAtZero) {
  SendWindow w(1000, 100);
  w.Pause();
  EXPECT_FALSE(w.TryReserve(1));
  w.Resume();
  EXPECT_TRUE(w.TryReserve(10));
  w.Release(10000);               // Over-release (loopback double-credit).
  EXPECT_EQ(w.in_flight(), 0u);   // Clamped, not wrapped.
  EXPECT_TRUE(w.TryReserve(999));
}

// Drives the full ladder up and down with a synthetic pressure source and
// checks rung order, hysteresis, and the backend pressure level pushes.
TEST(OverloadManagerTest, LadderEngagesInOrderAndDisengagesWithHysteresis) {
  OverloadConfig cfg;
  cfg.enabled = true;
  cfg.bytes_high = 1000;  // pressure‰ == live_bytes for easy arithmetic.
  cfg.low_priority_groups = {1};
  OverloadManager mgr(cfg, /*num_groups=*/2);

  std::atomic<uint64_t> bytes{0};
  OverloadSignals sig;
  sig.live_bytes = [&]() { return bytes.load(); };
  mgr.InstallSignals(std::move(sig));
  std::vector<int> levels;
  OverloadActions act;
  act.set_pressure = [&](int level) { levels.push_back(level); };
  mgr.InstallActions(std::move(act));

  bytes = 400;  // Below every rung.
  mgr.ForcePoll(1);
  EXPECT_FALSE(mgr.engaged(Action::kTightenFlush));
  EXPECT_EQ(mgr.pressure_pm(), 400u);

  bytes = 620;  // tighten (500) + shrink (600).
  mgr.ForcePoll(2);
  EXPECT_TRUE(mgr.engaged(Action::kTightenFlush));
  EXPECT_TRUE(mgr.engaged(Action::kShrinkWindow));
  EXPECT_FALSE(mgr.engaged(Action::kPauseGroup));
  ASSERT_EQ(levels.size(), 1u);
  EXPECT_EQ(levels[0], 1);

  bytes = 960;  // Every rung including kill (950).
  mgr.ForcePoll(3);
  EXPECT_TRUE(mgr.engaged(Action::kPauseGroup));
  EXPECT_TRUE(mgr.engaged(Action::kKillShed));
  EXPECT_TRUE(mgr.window(1)->paused());   // Low-priority group paused.
  EXPECT_FALSE(mgr.window(0)->paused());
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_EQ(levels[1], 2);

  bytes = 800;  // Inside every band: hysteresis holds all rungs engaged.
  mgr.ForcePoll(4);
  EXPECT_TRUE(mgr.engaged(Action::kKillShed));

  bytes = 550;  // Below kill's disengage (700), above tighten's (350).
  mgr.ForcePoll(5);
  EXPECT_FALSE(mgr.engaged(Action::kKillShed));
  EXPECT_TRUE(mgr.engaged(Action::kTightenFlush));
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[2], 1);  // Kill off, tighten still on.

  bytes = 100;  // Everything clears.
  mgr.ForcePoll(6);
  EXPECT_FALSE(mgr.engaged(Action::kTightenFlush));
  EXPECT_FALSE(mgr.window(1)->paused());  // Resumed on disengage.
  ASSERT_EQ(levels.size(), 4u);
  EXPECT_EQ(levels[3], 0);

  // Each rung engaged exactly once end to end.
  for (int i = 0; i < overload::kActionCount; i++) {
    EXPECT_EQ(mgr.stats().actions[i].value(), 1u) << "rung " << i;
  }
}

TEST(OverloadManagerTest, ShrinkWhileEngagedWidenAfter) {
  OverloadConfig cfg;
  cfg.enabled = true;
  cfg.bytes_high = 1000;
  cfg.window_bytes = 1 << 20;
  cfg.window_min_bytes = 1 << 10;
  OverloadManager mgr(cfg, 1);
  std::atomic<uint64_t> bytes{650};
  OverloadSignals sig;
  sig.live_bytes = [&]() { return bytes.load(); };
  mgr.InstallSignals(std::move(sig));

  for (int i = 0; i < 5; i++) {
    mgr.ForcePoll(10 + i);
  }
  uint64_t shrunk = mgr.window(0)->limit();
  EXPECT_LT(shrunk, 1u << 20);  // Halved once per poll while engaged.
  bytes = 100;
  for (int i = 0; i < 20; i++) {
    mgr.ForcePoll(100 + i);
  }
  EXPECT_EQ(mgr.window(0)->limit(), 1u << 20);  // Recovered.
}

TEST(OverloadManagerTest, StallDecayFreesAWedgedWindow) {
  OverloadConfig cfg;
  cfg.enabled = true;
  cfg.stall_polls = 3;
  OverloadManager mgr(cfg, 1);
  OverloadSignals sig;
  sig.delivered_total = []() { return 0ull; };  // Never any progress.
  mgr.InstallSignals(std::move(sig));

  ASSERT_TRUE(mgr.window(0)->TryReserve(1000));
  for (int i = 0; i < 3; i++) {
    EXPECT_EQ(mgr.window(0)->in_flight(), 1000u);
    mgr.ForcePoll(20 + i);
  }
  EXPECT_LT(mgr.window(0)->in_flight(), 1000u);  // Decayed after stall_polls.
  EXPECT_GE(mgr.stats().window_decays.value(), 1u);
}

TEST(OverloadManagerTest, MaybePollElectsOneCallerPerInterval) {
  OverloadConfig cfg;
  cfg.enabled = true;
  cfg.poll_interval = Millis(10);
  OverloadManager mgr(cfg, 0);
  mgr.MaybePoll(Millis(100));
  mgr.MaybePoll(Millis(100));      // Same instant: interval not elapsed.
  mgr.MaybePoll(Millis(105));      // Mid-interval.
  EXPECT_EQ(mgr.stats().polls.value(), 1u);
  mgr.MaybePoll(Millis(111));      // Next interval.
  EXPECT_EQ(mgr.stats().polls.value(), 2u);
}

TEST(OverloadManagerTest, RegistersActionCountersAndPressureGauge) {
  OverloadConfig cfg;
  cfg.enabled = true;
  cfg.bytes_high = 1000;
  OverloadManager mgr(cfg, 2);
  std::atomic<uint64_t> bytes{990};
  std::atomic<uint64_t> dispatch{0};
  OverloadSignals sig;
  sig.live_bytes = [&]() { return bytes.load(); };
  sig.dispatch_backlog = [&]() { return dispatch.load(); };
  mgr.InstallSignals(std::move(sig));
  obs::MetricsRegistry reg;
  mgr.RegisterMetrics(reg);

  mgr.ForcePoll(1);
  obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("overload.action.tighten_flush"), 1u);
  EXPECT_EQ(snap.Value("overload.action.kill_shed"), 1u);
  EXPECT_EQ(snap.Value("overload.polls"), 1u);
  EXPECT_EQ(snap.Value("overload.pressure_x1000"), 990u);
  ASSERT_NE(snap.Find("overload.window_shed"), nullptr);
  // Every rung engaged on live bytes, the only nonzero signal.
  const uint64_t rungs = static_cast<uint64_t>(overload::kActionCount);
  EXPECT_EQ(snap.Value("overload.engaged_by.live_bytes"), rungs);
  EXPECT_EQ(snap.Value("overload.engaged_by.dispatch"), 0u);
  EXPECT_EQ(snap.Value("overload.engaged_by.timer"), 0u);

  // Release, then re-engage with dispatch backlog above the bytes signal:
  // the larger per-mille is the one that set the pressure.
  bytes = 0;
  mgr.ForcePoll(2);
  bytes = 600;
  dispatch = cfg.dispatch_high;
  mgr.ForcePoll(3);
  snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("overload.pressure_x1000"), 1000u);
  EXPECT_EQ(snap.Value("overload.engaged_by.live_bytes"), rungs);
  EXPECT_EQ(snap.Value("overload.engaged_by.dispatch"), rungs);
  EXPECT_EQ(snap.Value("overload.engaged_by.timer"), 0u);
}

// Every poll records each installed signal's raw reading: a histogram per
// signal (overload.signal.<signal>) and its peak, whatever the pressure.
TEST(OverloadManagerTest, RecordsEverySignalReadingPerPoll) {
  OverloadConfig cfg;
  cfg.enabled = true;
  OverloadManager mgr(cfg, 1);
  uint64_t dispatch = 0;
  OverloadSignals sig;
  sig.dispatch_backlog = [&]() { return dispatch; };
  sig.live_bytes = []() { return uint64_t{0}; };
  mgr.InstallSignals(std::move(sig));
  obs::MetricsRegistry reg;
  mgr.RegisterMetrics(reg);

  uint64_t t = 1;
  for (uint64_t reading : {3u, 40u, 5u, 2u}) {
    dispatch = reading;
    mgr.ForcePoll(t++);
  }
  obs::MetricsSnapshot snap = reg.Snapshot();
  const obs::Sample* hist = snap.Find("overload.signal.dispatch");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 4u);
  EXPECT_EQ(hist->sum, 50u);
  EXPECT_EQ(hist->Percentile(0.5), 3u);    // Bucket [2, 3] holds the median.
  EXPECT_EQ(hist->Percentile(1.0), 63u);  // 40 lands in [32, 63].
  EXPECT_EQ(snap.Value("overload.signal_peak.dispatch"), 40u);
  EXPECT_EQ(snap.Find("overload.signal.live_bytes")->count, 4u);
  EXPECT_EQ(snap.Value("overload.signal_peak.live_bytes"), 0u);
  EXPECT_EQ(snap.Find("overload.signal.timer")->count, 0u);  // Not installed.
}

// Integration: a 2-shard channel runtime with thresholds small enough that a
// cast flood trips the ladder — windows shed at the source, actions count,
// and the runtime keeps delivering (no deadlock, no ring full-fails).
TEST(OverloadRuntimeTest, FloodTripsLadderAndShedsAtSource) {
  ShardRuntimeConfig config;
  config.backend = ShardBackend::kChannel;
  config.num_workers = 2;
  config.ep.layers = FourLayerStack();
  config.ep.mode = StackMode::kMachine;
  config.ep.params.local_loopback = false;
  config.ep.params.stable_interval = 1u << 30;
  config.ep.timer_interval = Millis(1);
  config.overload.enabled = true;
  config.overload.poll_interval = Micros(200);
  // A tiny byte watermark: the flood's pooled payloads cross it immediately.
  config.overload.bytes_high = 64 << 10;
  config.overload.window_bytes = 32 << 10;
  config.overload.window_min_bytes = 4 << 10;

  ShardRuntime rt(config);
  ASSERT_TRUE(rt.Build(4));  // One 4-member group over 2 shards.
  ASSERT_NE(rt.overload_manager(), nullptr);
  EXPECT_EQ(rt.overload_manager()->num_windows(), 1);
  rt.Start();

  // Flood: each member casts 1 KiB payloads far faster than the group can
  // absorb; the window admits ~32 KiB and sheds the rest at Cast() entry.
  for (int wave = 0; wave < 50; wave++) {
    for (int m = 0; m < 4; m++) {
      rt.PostToMember(m, [](GroupEndpoint& ep) {
        for (int i = 0; i < 40; i++) {
          ep.Cast(Iovec(Bytes::Allocate(1024)));
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  OverloadManager* mgr = rt.overload_manager();
  bool shed = WaitUntil([&] { return mgr->TotalWindowSheds() > 0; }, 5000);
  rt.Stop();
  EXPECT_TRUE(shed);

  obs::MetricsSnapshot snap = rt.SnapshotMetrics();
  EXPECT_GT(snap.Value("overload.polls"), 0u);
  EXPECT_GT(snap.Value("overload.window_shed"), 0u);
  EXPECT_GT(snap.Value("ep.window_shed"), 0u);  // Endpoint-side mirror.
  EXPECT_GT(rt.total_delivered(), 0u);          // Still made progress.
  // The byte watermark is tiny, so the ladder's first rung must have tripped.
  EXPECT_GT(snap.Value("overload.action.tighten_flush"), 0u);
}

// Send windows gate only application traffic: a runtime with overload ON but
// generous thresholds behaves exactly like one with it OFF.
TEST(OverloadRuntimeTest, GenerousThresholdsAreTransparent) {
  ShardRuntimeConfig config;
  config.backend = ShardBackend::kChannel;
  config.num_workers = 2;
  config.ep.layers = FourLayerStack();
  config.ep.mode = StackMode::kMachine;
  config.ep.params.local_loopback = false;
  config.ep.params.stable_interval = 1u << 30;
  config.ep.timer_interval = Millis(1);
  config.overload.enabled = true;  // Defaults: 64 MiB / 1 MiB windows.

  ShardRuntime rt(config);
  ASSERT_TRUE(rt.Build(4));
  rt.Start();
  for (int i = 0; i < 4; i++) {
    rt.PostToMember(i, [](GroupEndpoint& ep) {
      ep.Cast(Iovec(Bytes::CopyString("calm")));
    });
  }
  bool done = WaitUntil([&] { return rt.total_delivered() >= 4u * 3u; }, 5000);
  rt.Stop();
  EXPECT_TRUE(done);
  EXPECT_EQ(rt.overload_manager()->TotalWindowSheds(), 0u);
  for (int i = 0; i < rt.n(); i++) {
    EXPECT_EQ(rt.member(i).stats().window_shed.value(), 0u);
  }
}

}  // namespace
}  // namespace ensemble
