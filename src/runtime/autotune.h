// Autotuner: from a measured cost model to a runtime configuration.
//
// The ShardRuntime grew five interacting hand-tuned knobs (datapath backend,
// batch depth, message packing, flush deadline, steal threshold).  The autotuner enumerates the small discrete knob lattice against
// the compositional cost model (src/perf/cost_model.h) and applies the
// predicted-best configuration once, when the ShardRuntime is constructed —
// replacing the kAuto probe with model-driven selection.  Every knob is
// chosen before any worker starts, so none changes while the runtime runs.
//
// Observability: two gauges on the runtime's registry —
//   tune.predicted_msgs_per_sec  the model's prediction for the active knobs
//   tune.active_config           KnobVector::Encode (see cost_model.cc for
//                                the bit layout; bits 0-1 must agree with
//                                net.backend_active — a test asserts it).

#ifndef ENSEMBLE_SRC_RUNTIME_AUTOTUNE_H_
#define ENSEMBLE_SRC_RUNTIME_AUTOTUNE_H_

#include <string>
#include <vector>

#include "src/perf/cost_model.h"

namespace ensemble {

// How a ShardRuntime resolves its cost model and picks its knobs.  Model
// resolution order: explicit `model` (have_model) > `costmodel_path` on disk
// > Calibrate() when `calibrate` > CostModel::Defaults().
struct AutotuneConfig {
  bool enabled = false;
  bool have_model = false;
  perf::CostModel model;
  std::string costmodel_path;  // "" = never touch disk.
  bool calibrate = false;      // Run the micro-run calibration pass (~1s).
  bool save_costmodel = false;  // Persist the resolved model to the path.
  // Workload hints for the predictor; the runtime computes stack_ns itself
  // from its endpoint config.
  size_t msg_bytes = 64;
  double cross_shard_fraction = 0.0;
  size_t burst = 256;
  bool steal_eligible = false;
};

struct TuneDecision {
  perf::KnobVector knobs;
  perf::Prediction predicted;
  bool valid = false;
  std::string Describe() const;
};

class Autotuner {
 public:
  explicit Autotuner(perf::CostModel model) : model_(std::move(model)) {}

  const perf::CostModel& model() const { return model_; }

  // The discrete knob lattice: available backends x batch depths x pack
  // windows x flush deadlines x steal thresholds (thresholds collapse to the
  // default when the workload is not steal-eligible).  Ordered conservative
  // to aggressive so prediction ties resolve to the simpler configuration.
  static std::vector<perf::KnobVector> Lattice(const perf::CostModel& m,
                                               bool steal_eligible);

  // Predicted-best configuration for `w` over the lattice.
  TuneDecision Choose(const perf::WorkloadDesc& w) const;

 private:
  perf::CostModel model_;
};

// Full calibration for runtimes: the perf-layer micro-runs plus a brief
// two-shard channel-runtime probe that fills ring_hop_ns / steal_ns from the
// sched.* histograms (cost_model.cc cannot depend on the runtime).
perf::CostModel CalibrateWithRuntime(const perf::CalibrationConfig& config = {});

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_RUNTIME_AUTOTUNE_H_
