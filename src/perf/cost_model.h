// Compositional cost model for the stack's performance knobs.
//
// The paper composes per-layer *semantics* through the bypass compiler; this
// module composes per-layer and per-knob *cost* the same way (extra-p's
// compositional performance models, CAMP's cost bounds from protocol
// structure).  A calibration pass derives per-event cost terms from short
// seeded micro-runs, persists them as COSTMODEL.json, and a predictor
// composes the terms along the very trace the bypass compiler walks
// (RoutePair::CostUnits) to predict msgs/sec and p50/p99 delivery latency for
// any candidate knob vector.  The autotuner (src/runtime/autotune.h)
// enumerates the knob lattice against this predictor instead of hand-tuning.
//
// Model terms (all nanoseconds unless noted):
//
//   layer_dispatch_ns   per layer per event on the un-bypassed (FUNC) path
//   bypass_unit_ns      per BypassRule cost unit along a fused trace; a
//                       route's stack cost = CostUnits() * bypass_unit_ns
//   pack_submsg_ns      per sub-message packing/unpacking overhead
//   backend[b]          {per_msg_ns, syscall_ns}: user-space per-datagram
//                       cost and per-syscall(-pair) cost, fitted from the
//                       measured batch amortization curve
//                       cost(batch) = per_msg_ns + syscall_ns / batch
//
// Composition rule for one message with knob vector k on workload w:
//
//   cost = stack_ns                               (trace composition)
//        + pack_submsg_ns * [k.pack > 1]          (packing tax)
//        + (per_msg_ns + syscall_ns/batch) / pack (wire tax, amortized)
//
//   msgs/sec = 1e9 / cost;  p50 = cost + propagation;  p99 adds the staging
//   wait (min(w.flush_deadline, time to fill a batch)).

#ifndef ENSEMBLE_SRC_PERF_COST_MODEL_H_
#define ENSEMBLE_SRC_PERF_COST_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/app/endpoint.h"
#include "src/net/udp.h"
#include "src/util/vtime.h"

namespace ensemble {

class RoutePair;

namespace perf {

// Indexed by NetBackend value (kEager=0, kMmsg=1, kUring=2); kAuto has no
// cost of its own — the autotuner replaces it.
constexpr int kNumBackendTerms = 3;

struct BackendCost {
  bool available = false;
  double per_msg_ns = 0;  // User-space per-datagram cost (syscalls excluded).
  double syscall_ns = 0;  // One send+recv syscall(-pair), amortized over batch.
};

// One measured point of the batch amortization curve, kept in the artifact
// so the fit can be audited (and re-fitted offline).
struct BatchPoint {
  int backend = 0;  // NetBackend value.
  size_t batch = 1;
  double ns_per_msg = 0;
};

struct CostModel {
  double layer_dispatch_ns = 0;
  double bypass_unit_ns = 0;
  double pack_submsg_ns = 0;
  BackendCost backend[kNumBackendTerms];
  std::vector<BatchPoint> points;  // Raw calibration evidence.
  bool calibrated = false;         // False = Defaults() placeholder terms.

  // Plausible hardcoded terms so tests and socketless environments get a
  // usable model without a calibration run.
  static CostModel Defaults();

  // COSTMODEL.json: one flat object of numeric terms plus a "points" array.
  // Save validates before writing (strict validator).
  std::string ToJson() const;
  bool Save(const std::string& path) const;
};

struct CalibrationConfig {
  int stack_reps = 4000;        // Latency-harness repetitions per mode.
  size_t msgs_per_probe = 3000;  // Datagrams per backend x batch micro-run.
  bool probe_udp = true;  // False: keep Defaults() backend terms.
};

// Short seeded micro-runs -> terms.  Stack terms come from the latency
// harness (no syscalls); backend terms from per-backend A->B UDP runs at
// batch depths {1,4,16} fitted to a + b/batch.  Probes that cannot run in
// this environment (no sockets) leave the Defaults() term in place;
// `calibrated` is set if any probe succeeded.
CostModel Calibrate(const CalibrationConfig& config = {});

// ---- compositional prediction ---------------------------------------------

// Per-message user-space stack cost, composed along the compiled route's
// trace (bypassed) or the layer walk (normal path).  `route` may be null:
// then the cost is layers * layer_dispatch_ns per direction.
double StackCostNs(const CostModel& m, const RoutePair* route, size_t layers);

// Same, from a stack description without a live stack: compiles a throwaway
// pair for `ep` (mode kMachine composes the bypass trace) and prices it.
double StackCostOf(const CostModel& m, const EndpointConfig& ep);

// A candidate configuration: the discrete knobs the autotuner may set.
struct KnobVector {
  NetBackend backend = NetBackend::kMmsg;
  size_t batch = 16;          // send_batch == recv_batch staging depth.
  size_t pack_window = 1;     // 1 = packing off.

  std::string Label() const;
  // Gauge encoding for tune.active_config (documented in autotune.h).
  uint32_t Encode() const;
};

struct WorkloadDesc {
  double stack_ns = 0;   // StackCostNs/StackCostOf result.
  size_t burst = 256;    // Msgs available per flush boundary.
  // The endpoint's periodic timer (EndpointConfig::timer_interval), which
  // flushes staged messages; 0 = no timer flush, a staged message waits for
  // its window to fill.  Only the latency predictions read it.
  VTime flush_deadline = 0;
};

struct Prediction {
  double msgs_per_sec = 0;
  double p50_ns = 0;
  double p99_ns = 0;
};

Prediction PredictThroughput(const CostModel& m, const WorkloadDesc& w,
                             const KnobVector& k);

}  // namespace perf
}  // namespace ensemble

#endif  // ENSEMBLE_SRC_PERF_COST_MODEL_H_
