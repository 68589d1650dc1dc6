// Cost model + autotuner: artifact round-trip, predictor shape, lattice
// selection, and the gauge-agreement contract (tune.active_config must never
// disagree with what the network layer reports actually running).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/net/udp.h"
#include "src/net/udp_uring.h"
#include "src/obs/json.h"
#include "src/perf/cost_model.h"
#include "src/runtime/autotune.h"
#include "src/runtime/runtime.h"

namespace ensemble {
namespace {

bool UdpAvailable() {
  UdpNetwork probe;
  probe.Attach(EndpointId{1}, [](const Packet&) {});
  return probe.ok();
}

perf::CostModel TestModel() {
  perf::CostModel m = perf::CostModel::Defaults();
  m.points.push_back({1, 4, 512.5});
  m.points.push_back({2, 16, 301.0});
  return m;
}

TEST(CostModelTest, JsonRoundTripPreservesTerms) {
  perf::CostModel m = TestModel();
  m.ring_hop_ns = 12345.5;
  m.calibrated = true;
  std::string json = m.ToJson();

  std::string err;
  ASSERT_TRUE(obs::ValidateJson(json, &err)) << err;

  perf::CostModel back;
  ASSERT_TRUE(perf::CostModel::FromJson(json, &back));
  // %.6g formatting: round-trip is tight but not bit-exact.
  EXPECT_NEAR(back.layer_dispatch_ns, m.layer_dispatch_ns, 1e-3);
  EXPECT_NEAR(back.bypass_unit_ns, m.bypass_unit_ns, 1e-3);
  EXPECT_NEAR(back.pack_submsg_ns, m.pack_submsg_ns, 1e-3);
  EXPECT_NEAR(back.ring_hop_ns, m.ring_hop_ns, 1.0);
  EXPECT_NEAR(back.steal_ns, m.steal_ns, 1.0);
  EXPECT_EQ(back.calibrated, true);
  for (int b = 0; b < perf::kNumBackendTerms; b++) {
    EXPECT_EQ(back.backend[b].available, m.backend[b].available) << b;
    EXPECT_NEAR(back.backend[b].per_msg_ns, m.backend[b].per_msg_ns, 1e-2) << b;
    EXPECT_NEAR(back.backend[b].syscall_ns, m.backend[b].syscall_ns, 1e-2) << b;
  }
  ASSERT_EQ(back.points.size(), m.points.size());
  EXPECT_EQ(back.points[0].backend, 1);
  EXPECT_EQ(back.points[0].batch, 4u);
  EXPECT_NEAR(back.points[0].ns_per_msg, 512.5, 1e-2);
}

TEST(CostModelTest, SaveLoadThroughFile) {
  std::string path = testing::TempDir() + "/costmodel_test.json";
  perf::CostModel m = TestModel();
  ASSERT_TRUE(m.Save(path));
  std::string err;
  EXPECT_TRUE(obs::ValidateJsonFile(path, &err)) << err;
  perf::CostModel back;
  ASSERT_TRUE(perf::CostModel::Load(path, &back));
  EXPECT_NEAR(back.bypass_unit_ns, m.bypass_unit_ns, 1e-3);
  std::remove(path.c_str());

  EXPECT_FALSE(perf::CostModel::Load("/nonexistent/costmodel.json", &back));
  EXPECT_FALSE(perf::CostModel::FromJson("not json", &back));
}

TEST(CostModelTest, PredictorComposesAlongTheKnobs) {
  perf::CostModel m = perf::CostModel::Defaults();
  perf::WorkloadDesc w;
  w.stack_ns = 1000;
  w.burst = 256;

  perf::KnobVector k;
  k.backend = NetBackend::kMmsg;
  k.pack_window = 1;

  // Batch amortization: deeper batches cannot predict slower.
  k.batch = 1;
  double b1 = perf::PredictThroughput(m, w, k).msgs_per_sec;
  k.batch = 16;
  double b16 = perf::PredictThroughput(m, w, k).msgs_per_sec;
  EXPECT_GT(b16, b1);

  // Packing divides the wire tax; with defaults the tax dwarfs the
  // per-sub-message overhead, so packing must predict faster.
  k.pack_window = 16;
  double packed = perf::PredictThroughput(m, w, k).msgs_per_sec;
  EXPECT_GT(packed, b16);

  // A heavier stack or a cross-shard hop only ever slows the prediction.
  perf::WorkloadDesc heavy = w;
  heavy.stack_ns = 10000;
  EXPECT_LT(perf::PredictThroughput(m, heavy, k).msgs_per_sec, packed);
  perf::WorkloadDesc hop = w;
  hop.cross_shard_fraction = 1.0;
  EXPECT_LT(perf::PredictThroughput(m, hop, k).msgs_per_sec, packed);

  // p99 includes the staging wait; p50 never exceeds it.
  perf::Prediction p = perf::PredictThroughput(m, w, k);
  EXPECT_GE(p.p99_ns, p.p50_ns);
  EXPECT_GT(p.p50_ns, 0);
}

TEST(CostModelTest, EncodePacksEveryKnobDistinctly) {
  perf::KnobVector k;
  k.backend = NetBackend::kUring;
  k.batch = 16;
  k.pack_window = 32;
  k.flush_deadline = Millis(1);
  k.steal_min_imbalance = 3.0;
  uint32_t enc = k.Encode();
  EXPECT_EQ(enc & 0x3u, 2u);                  // Backend bits.
  EXPECT_EQ((enc >> 2) & 0x1u, 0u);           // Unused bit.
  EXPECT_EQ((enc >> 3) & 0x7Fu, 16u);         // Batch.
  EXPECT_EQ((enc >> 10) & 0x7Fu, 32u);        // Pack window.
  EXPECT_EQ((enc >> 17) & 0xFFu, 10u);        // Flush deadline, 100us units.
  EXPECT_EQ((enc >> 25) & 0xFu, 6u);          // Threshold, halves.
  EXPECT_NE(k.Label().find("uring"), std::string::npos);

  // Ring provisioning bits (29-31).
  k.ring_capacity = 16384;
  k.credit_floor = 128;
  enc = k.Encode();
  EXPECT_EQ((enc >> 29) & 0x3u, 2u);          // log4(16384/1024).
  EXPECT_EQ((enc >> 31) & 0x1u, 1u);          // Raised credit floor.
  k.ring_capacity = 1024;
  k.credit_floor = 32;
  enc = k.Encode();
  EXPECT_EQ((enc >> 29) & 0x3u, 0u);
  EXPECT_EQ((enc >> 31) & 0x1u, 0u);
  EXPECT_NE(k.Label().find("r1024"), std::string::npos);
  EXPECT_NE(k.Label().find("c32"), std::string::npos);
}

TEST(AutotunerTest, LatticeRespectsAvailabilityAndEagerShape) {
  perf::CostModel m = perf::CostModel::Defaults();
  m.backend[static_cast<int>(NetBackend::kUring)].available = false;
  for (const perf::KnobVector& k : Autotuner::Lattice(m, /*steal_eligible=*/false)) {
    EXPECT_NE(k.backend, NetBackend::kUring);
    if (k.backend == NetBackend::kEager) {
      EXPECT_EQ(k.batch, 1u);  // No staging ring: batch knob is inert.
    }
    EXPECT_DOUBLE_EQ(k.steal_min_imbalance, 4.0);  // Static workload.
  }
  // Steal-eligible workloads sweep the threshold.
  bool saw_low_threshold = false;
  for (const perf::KnobVector& k : Autotuner::Lattice(m, /*steal_eligible=*/true)) {
    saw_low_threshold |= k.steal_min_imbalance < 4.0;
  }
  EXPECT_TRUE(saw_low_threshold);
}

TEST(AutotunerTest, ChoosePicksTheLatticeArgmax) {
  Autotuner tuner(perf::CostModel::Defaults());
  perf::WorkloadDesc w;
  w.stack_ns = 500;
  TuneDecision d = tuner.Choose(w);
  ASSERT_TRUE(d.valid);
  EXPECT_GT(d.predicted.msgs_per_sec, 0);
  for (const perf::KnobVector& k : Autotuner::Lattice(tuner.model(), w.steal_eligible)) {
    EXPECT_GE(d.predicted.msgs_per_sec,
              perf::PredictThroughput(tuner.model(), w, k).msgs_per_sec);
  }
  EXPECT_NE(d.Describe().find("autotune:"), std::string::npos);
}

// Lattice-argmax stability for the ring knobs: a workload the ring terms
// cannot distinguish (no cross-shard traffic) must resolve to the stock
// 4096/32 provisioning via first-wins ties, while a bursty cross-shard
// workload must buy more credits — and the argmax stays the lattice maximum.
TEST(AutotunerTest, RingKnobsStableOnLocalWorkloadsGrowUnderBursts) {
  Autotuner tuner(perf::CostModel::Defaults());

  perf::WorkloadDesc local;
  local.stack_ns = 500;
  local.cross_shard_fraction = 0.0;  // Ring knobs are inert: all candidates tie.
  local.workers = 4;
  TuneDecision d = tuner.Choose(local);
  ASSERT_TRUE(d.valid);
  EXPECT_EQ(d.knobs.ring_capacity, 4096u);  // Tie resolves to the default.
  EXPECT_EQ(d.knobs.credit_floor, 32u);

  perf::WorkloadDesc bursty;
  bursty.stack_ns = 500;
  bursty.cross_shard_fraction = 1.0;  // Every message rings.
  bursty.burst = 8192;                // Far beyond 4096/(4+1) credits.
  bursty.workers = 4;
  TuneDecision b = tuner.Choose(bursty);
  ASSERT_TRUE(b.valid);
  // The credit-park term penalizes undersized rings, so the argmax buys the
  // larger provisioning on at least one axis.
  EXPECT_TRUE(b.knobs.ring_capacity > 4096u || b.knobs.credit_floor > 32u)
      << b.knobs.Label();
  EXPECT_GE(b.predicted.msgs_per_sec, 0);
  // Both decisions are true lattice argmaxes (first-wins on ties).
  for (const perf::KnobVector& k :
       Autotuner::Lattice(tuner.model(), /*steal_eligible=*/false)) {
    EXPECT_GE(d.predicted.msgs_per_sec,
              perf::PredictThroughput(tuner.model(), local, k).msgs_per_sec);
    EXPECT_GE(b.predicted.msgs_per_sec,
              perf::PredictThroughput(tuner.model(), bursty, k).msgs_per_sec);
  }
  // Determinism: the same workload re-chosen yields the identical vector.
  TuneDecision d2 = tuner.Choose(local);
  EXPECT_EQ(d2.knobs.Label(), d.knobs.Label());
}

// The gauges the autotuner exports must agree with what the network layer
// actually resolved: bits 0-1 of tune.active_config are net.backend_active.
TEST(AutotunerTest, ActiveConfigGaugeAgreesWithNetworkGauges) {
  if (!UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
  ShardRuntimeConfig config;
  config.backend = ShardBackend::kUdp;
  config.num_workers = 2;
  config.ep.layers = FourLayerStack();
  config.ep.mode = StackMode::kMachine;
  config.ep.params.local_loopback = false;
  config.ep.params.stable_interval = 1u << 30;
  config.ep.timer_interval = Millis(1);
  config.autotune.enabled = true;
  config.autotune.have_model = true;  // Defaults: no calibration in tests.
  config.autotune.model = perf::CostModel::Defaults();
  config.autotune.model.backend[static_cast<int>(NetBackend::kUring)].available = true;

  ShardRuntime rt(config);
  ASSERT_TRUE(rt.Build(4));
  ASSERT_TRUE(rt.tune_decision().valid);
  rt.Start();
  rt.Stop();

  obs::MetricsSnapshot snap = rt.SnapshotMetrics();
  const obs::Sample* active = snap.Find("tune.active_config");
  ASSERT_NE(active, nullptr);
  uint32_t enc = static_cast<uint32_t>(active->value);
  EXPECT_EQ(enc & 0x3u, snap.Value("net.backend_active"));
  EXPECT_GT(snap.Value("tune.predicted_msgs_per_sec"), 0u);
}

// Channel backend: the autotuner still decides (and the gauges still agree —
// the channel transport reports the eager default).
TEST(AutotunerTest, ChannelRuntimeDecidesAndExportsGauges) {
  ShardRuntimeConfig config;
  config.backend = ShardBackend::kChannel;
  config.num_workers = 2;
  config.ep.layers = FourLayerStack();
  config.ep.mode = StackMode::kMachine;
  config.ep.params.stable_interval = 1u << 30;
  config.ep.timer_interval = Millis(1);
  config.autotune.enabled = true;
  config.autotune.have_model = true;
  config.autotune.model = perf::CostModel::Defaults();

  ShardRuntime rt(config);
  ASSERT_TRUE(rt.Build(4));
  ASSERT_TRUE(rt.tune_decision().valid);
  rt.Start();
  rt.Stop();

  obs::MetricsSnapshot snap = rt.SnapshotMetrics();
  const obs::Sample* active = snap.Find("tune.active_config");
  ASSERT_NE(active, nullptr);
  uint32_t enc = static_cast<uint32_t>(active->value);
  EXPECT_EQ(enc & 0x3u, snap.Value("net.backend_active"));
}

}  // namespace
}  // namespace ensemble
