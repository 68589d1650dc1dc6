#include "src/runtime/autotune.h"

#include <chrono>
#include <cstdio>
#include <thread>

#include "src/runtime/runtime.h"
#include "src/stack/engine.h"

namespace ensemble {

std::string TuneDecision::Describe() const {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "autotune: %s -> predicted %.0f msgs/s, p50 %.1fus, p99 %.1fus",
                knobs.Label().c_str(), predicted.msgs_per_sec,
                predicted.p50_ns / 1e3, predicted.p99_ns / 1e3);
  return buf;
}

std::vector<perf::KnobVector> Autotuner::Lattice(const perf::CostModel& m,
                                                 bool steal_eligible) {
  std::vector<perf::KnobVector> out;
  const size_t batches[] = {1, 4, 8, 16, 32};
  const size_t packs[] = {1, 8, 16, 32};
  const VTime flushes[] = {Micros(500), Millis(1), Millis(2)};
  const std::vector<double> thresholds =
      steal_eligible ? std::vector<double>{2.0, 3.0, 4.0} : std::vector<double>{4.0};
  // Ring provisioning: defaults FIRST so a workload the ring terms cannot
  // distinguish (no cross-shard traffic) resolves to the stock configuration
  // via Choose's first-wins tie rule.
  const size_t ring_caps[] = {4096, 1024, 16384};
  const size_t credit_floors[] = {32, 128};

  for (int b = 0; b < perf::kNumBackendTerms; b++) {
    if (!m.backend[b].available) {
      continue;
    }
    NetBackend backend = static_cast<NetBackend>(b);
    for (size_t batch : batches) {
      if (backend == NetBackend::kEager && batch != 1) {
        continue;  // Eager has no staging ring; the batch knob is inert.
      }
      for (size_t pack : packs) {
        for (VTime flush : flushes) {
          for (double thr : thresholds) {
            for (size_t cap : ring_caps) {
              for (size_t floor : credit_floors) {
                perf::KnobVector k;
                k.backend = backend;
                k.batch = batch;
                k.pack_window = pack;
                k.flush_deadline = flush;
                k.steal_min_imbalance = thr;
                k.ring_capacity = cap;
                k.credit_floor = floor;
                out.push_back(k);
              }
            }
          }
        }
      }
    }
  }
  return out;
}

TuneDecision Autotuner::Choose(const perf::WorkloadDesc& w) const {
  TuneDecision best;
  for (const perf::KnobVector& k : Lattice(model_, w.steal_eligible)) {
    perf::Prediction p = perf::PredictThroughput(model_, w, k);
    if (!best.valid || p.msgs_per_sec > best.predicted.msgs_per_sec) {
      best.knobs = k;
      best.predicted = p;
      best.valid = true;
    }
  }
  return best;
}

perf::CostModel CalibrateWithRuntime(const perf::CalibrationConfig& config) {
  perf::CostModel m = perf::Calibrate(config);
  if (!config.probe_runtime) {
    return m;
  }

  // Brief two-shard channel runtime: cross-shard posts fill the
  // sched.delivery_latency_ns histogram (the ring-hop term) and a few
  // migration ping-pongs fill sched.steal_duration_ns.
  ShardRuntimeConfig rc;
  rc.backend = ShardBackend::kChannel;
  rc.num_workers = 2;
  rc.ep.layers = FourLayerStack();
  rc.ep.timer_interval = 0;
  if (!rc.autotune.enabled) {  // Belt and braces: the probe must not recurse.
    ShardRuntime rt(rc);
    if (rt.Build(2, /*group_size=*/1)) {
      rt.Start();
      for (int round = 0; round < 40; round++) {
        for (int i = 0; i < 10; i++) {
          rt.PostToMember(i % 2, [](GroupEndpoint&) {});
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      for (int flip = 0; flip < 6; flip++) {
        rt.MigrateMember(0, 1 - rt.ShardOf(0));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      rt.Stop();
      perf::RefineFromMetrics(rt.SnapshotMetrics(), &m);
      m.calibrated = true;
    }
  }
  return m;
}

}  // namespace ensemble
