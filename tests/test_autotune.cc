// Cost model + autotuner: artifact shape, predictor shape, lattice selection
// (every dimension must move the arg-max), and the gauge-agreement contract
// (tune.active_config must never disagree with what the network layer
// reports actually running).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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
  m.calibrated = true;
  std::string json = m.ToJson();

  std::string err;
  ASSERT_TRUE(obs::ValidateJson(json, &err)) << err;
  for (const char* term :
       {"layer_dispatch_ns", "bypass_unit_ns", "pack_submsg_ns", "calibrated",
        "backend_eager_available", "backend_eager_per_msg_ns",
        "backend_eager_syscall_ns", "backend_mmsg_available",
        "backend_mmsg_per_msg_ns", "backend_mmsg_syscall_ns",
        "backend_uring_available", "backend_uring_per_msg_ns",
        "backend_uring_syscall_ns", "points", "ns_per_msg"}) {
    EXPECT_NE(json.find(std::string("\"") + term + "\""), std::string::npos) << term;
  }
  EXPECT_EQ(json.find("ring_hop_ns"), std::string::npos);  // Pruned terms.
  EXPECT_EQ(json.find("steal_ns"), std::string::npos);
}

TEST(CostModelTest, SaveWritesValidatedFile) {
  std::string path = testing::TempDir() + "/costmodel_test.json";
  perf::CostModel m = TestModel();
  ASSERT_TRUE(m.Save(path));
  std::string err;
  EXPECT_TRUE(obs::ValidateJsonFile(path, &err)) << err;
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), m.ToJson());
  std::remove(path.c_str());

  EXPECT_FALSE(m.Save("/nonexistent/costmodel.json"));
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

  // A heavier stack only ever slows the prediction.
  perf::WorkloadDesc heavy = w;
  heavy.stack_ns = 10000;
  EXPECT_LT(perf::PredictThroughput(m, heavy, k).msgs_per_sec, packed);

  // p99 includes the staging wait; p50 never exceeds it.
  perf::Prediction p = perf::PredictThroughput(m, w, k);
  EXPECT_GE(p.p99_ns, p.p50_ns);
  EXPECT_GT(p.p50_ns, 0);

  // The endpoint's timer caps the staging wait; it never moves throughput.
  perf::WorkloadDesc timed = w;
  timed.flush_deadline = Micros(1);
  perf::Prediction capped = perf::PredictThroughput(m, timed, k);
  EXPECT_LT(capped.p99_ns, p.p99_ns);
  EXPECT_DOUBLE_EQ(capped.msgs_per_sec, p.msgs_per_sec);
}

TEST(CostModelTest, EncodePacksEveryKnobDistinctly) {
  perf::KnobVector k;
  k.backend = NetBackend::kUring;
  k.batch = 16;
  k.pack_window = 32;
  uint32_t enc = k.Encode();
  EXPECT_EQ(enc & 0x3u, 2u);                  // Backend bits.
  EXPECT_EQ((enc >> 2) & 0x1u, 0u);           // Unused bit.
  EXPECT_EQ((enc >> 3) & 0x7Fu, 16u);         // Batch.
  EXPECT_EQ((enc >> 10) & 0x7Fu, 32u);        // Pack window.
  EXPECT_EQ(enc >> 17, 0u);                   // Nothing above the pack bits.
  EXPECT_EQ(k.Label(), "uring b16 p32");
}

TEST(AutotunerTest, LatticeRespectsAvailabilityAndEagerShape) {
  perf::CostModel m = perf::CostModel::Defaults();
  m.backend[static_cast<int>(NetBackend::kUring)].available = true;
  EXPECT_EQ(Autotuner::Lattice(m).size(), 44u);  // 4 eager + 20 mmsg + 20 uring.

  m.backend[static_cast<int>(NetBackend::kUring)].available = false;
  std::vector<perf::KnobVector> lattice = Autotuner::Lattice(m);
  EXPECT_EQ(lattice.size(), 24u);
  for (const perf::KnobVector& k : lattice) {
    EXPECT_NE(k.backend, NetBackend::kUring);
    if (k.backend == NetBackend::kEager) {
      EXPECT_EQ(k.batch, 1u);  // No staging ring: batch knob is inert.
    }
  }
}

TEST(AutotunerTest, ChoosePicksTheLatticeArgmax) {
  Autotuner tuner(perf::CostModel::Defaults());
  perf::WorkloadDesc w;
  w.stack_ns = 500;
  TuneDecision d = tuner.Choose(w);
  ASSERT_TRUE(d.valid);
  EXPECT_GT(d.predicted.msgs_per_sec, 0);
  for (const perf::KnobVector& k : Autotuner::Lattice(tuner.model())) {
    EXPECT_GE(d.predicted.msgs_per_sec,
              perf::PredictThroughput(tuner.model(), w, k).msgs_per_sec);
  }
  EXPECT_NE(d.Describe().find("autotune:"), std::string::npos);
}

// A lattice dimension stays only while the model can rank it: for each one,
// two models or workloads whose picks differ in that dimension.  A dimension
// that stops moving the arg-max fails here instead of silently widening the
// lattice.
TEST(AutotunerTest, EveryLatticeDimensionMovesTheArgmax) {
  perf::WorkloadDesc w;
  w.stack_ns = 500;
  const int uring = static_cast<int>(NetBackend::kUring);

  // Backend: io_uring available vs not.
  perf::CostModel with_uring = perf::CostModel::Defaults();
  with_uring.backend[uring].available = true;
  perf::CostModel without_uring = perf::CostModel::Defaults();
  without_uring.backend[uring].available = false;
  TuneDecision u = Autotuner(with_uring).Choose(w);
  TuneDecision nu = Autotuner(without_uring).Choose(w);
  ASSERT_TRUE(u.valid && nu.valid);
  EXPECT_EQ(u.knobs.backend, NetBackend::kUring) << u.knobs.Label();
  EXPECT_NE(nu.knobs.backend, u.knobs.backend) << nu.knobs.Label();

  // Batch: one message per flush boundary leaves nothing to batch.
  Autotuner tuner(with_uring);
  perf::WorkloadDesc single = w;
  single.burst = 1;
  perf::WorkloadDesc bursty = w;
  bursty.burst = 256;
  TuneDecision s = tuner.Choose(single);
  TuneDecision b = tuner.Choose(bursty);
  EXPECT_EQ(s.knobs.batch, 1u) << s.knobs.Label();
  EXPECT_GT(b.knobs.batch, 1u) << b.knobs.Label();

  // Pack: free packing vs packing that costs a millisecond per sub-message.
  perf::CostModel free_pack = with_uring;
  free_pack.pack_submsg_ns = 0;
  perf::CostModel dear_pack = with_uring;
  dear_pack.pack_submsg_ns = 1e6;
  TuneDecision fp = Autotuner(free_pack).Choose(w);
  TuneDecision dp = Autotuner(dear_pack).Choose(w);
  EXPECT_GT(fp.knobs.pack_window, 1u) << fp.knobs.Label();
  EXPECT_EQ(dp.knobs.pack_window, 1u) << dp.knobs.Label();
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
