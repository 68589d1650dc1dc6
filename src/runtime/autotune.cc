#include "src/runtime/autotune.h"

#include <cstdio>

namespace ensemble {

std::string TuneDecision::Describe() const {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "autotune: %s -> predicted %.0f msgs/s, p50 %.1fus, p99 %.1fus",
                knobs.Label().c_str(), predicted.msgs_per_sec,
                predicted.p50_ns / 1e3, predicted.p99_ns / 1e3);
  return buf;
}

std::vector<perf::KnobVector> Autotuner::Lattice(const perf::CostModel& m) {
  std::vector<perf::KnobVector> out;
  const size_t batches[] = {1, 4, 8, 16, 32};
  const size_t packs[] = {1, 8, 16, 32};
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
        perf::KnobVector k;
        k.backend = backend;
        k.batch = batch;
        k.pack_window = pack;
        out.push_back(k);
      }
    }
  }
  return out;
}

TuneDecision Autotuner::Choose(const perf::WorkloadDesc& w) const {
  TuneDecision best;
  for (const perf::KnobVector& k : Lattice(model_)) {
    perf::Prediction p = perf::PredictThroughput(model_, w, k);
    if (!best.valid || p.msgs_per_sec > best.predicted.msgs_per_sec) {
      best.knobs = k;
      best.predicted = p;
      best.valid = true;
    }
  }
  return best;
}

}  // namespace ensemble
