// Autotuner: from a measured cost model to a runtime configuration.
//
// The ShardRuntime has three interacting hand-tuned datapath knobs (backend,
// batch depth, message packing).  The autotuner enumerates the small discrete
// knob lattice against the compositional cost model (src/perf/cost_model.h)
// and applies the predicted-best configuration once, when the ShardRuntime
// is constructed — replacing the kAuto probe with model-driven selection.
// Every knob is chosen before any worker starts, so none changes while the
// runtime runs.  A dimension belongs in the lattice only if the model can
// rank its values: each one moves the arg-max on some workload (a test
// asserts it per dimension).
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

// How a ShardRuntime resolves its cost model and picks its knobs: the
// explicit `model` when have_model, else CostModel::Defaults().
struct AutotuneConfig {
  bool enabled = false;
  bool have_model = false;
  perf::CostModel model;
  // Workload hint for the predictor; the runtime computes stack_ns and the
  // flush deadline itself from its endpoint config.
  size_t burst = 256;
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
  // windows (eager contributes batch 1 only).  Ordered conservative to
  // aggressive so prediction ties resolve to the simpler configuration.
  static std::vector<perf::KnobVector> Lattice(const perf::CostModel& m);

  // Predicted-best configuration for `w` over the lattice.
  TuneDecision Choose(const perf::WorkloadDesc& w) const;

 private:
  perf::CostModel model_;
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_RUNTIME_AUTOTUNE_H_
