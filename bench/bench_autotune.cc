// Predicted-vs-measured validation for the compositional cost model and the
// autotuner (src/perf/cost_model.h, src/runtime/autotune.h).
//
// The order of operations is the point: calibrate, then predict EVERY row
// from the model, print the predictions, and only then run the measurements.
// The model never sees a measured number before its prediction is recorded.
//
// Two workloads:
//
//   raw   A->B one-way 64-byte datagrams over kernel UDP loopback (the
//         bench_throughput tier-1 shape).  A hand-tuned sweep across the
//         backend/batch/pack corners plus the autotuner's lattice pick.
//         These rows run on one core and carry single_core=true — they are
//         the rows the prediction-error gate scores.
//
//   skew  8:1 skewed placement over a 4-worker UDP ShardRuntime (the
//         bench_skew shape).  Hand-set steal thresholds on one datapath
//         config next to the autotuner's pick, which runs the StealConfig
//         default threshold: the model cannot rank thresholds, so they are
//         not tuner knobs.  Emitted for completeness but exempt from the
//         gate: aggregate multi-worker throughput on a shared host measures
//         the core count as much as the configuration.
//
// Artifacts: COSTMODEL.json (the calibrated terms) and BENCH_autotune.json
// (header + rows with predicted/measured/error columns + summary).  Both go
// through the strict JSON validator before hitting disk.  `--smoke` shrinks
// the run for CI and exits nonzero when the single-core geomean error
// exceeds a generous bound.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/app/endpoint.h"
#include "src/net/udp.h"
#include "src/perf/cost_model.h"
#include "src/runtime/autotune.h"
#include "src/runtime/runtime.h"
#include "src/trans/transport.h"

namespace ensemble {
namespace {

constexpr size_t kMsgSize = 64;
constexpr size_t kWave = 256;  // Messages between drain points (raw tier).
constexpr int kWindow = 64;    // In-flight messages per pair (skew tier).
constexpr VTime kSkewFlush = Millis(1);  // Skew-tier endpoint timer.

// The gate is deliberately generous: the model has to rank configurations,
// not hit their absolute throughput — 2x off on every row would still pick
// the right knobs, so CI only fails when the terms are garbage.
constexpr double kGeomeanErrorBoundPct = 60.0;

struct ARow {
  std::string workload;  // "raw" | "skew"
  std::string label;
  bool autotuned = false;
  bool single_core = false;
  perf::KnobVector knobs;
  double steal_min_imbalance = StealConfig{}.min_imbalance;  // Skew tier only.
  perf::Prediction predicted;
  double measured_msgs_per_sec = 0;
  double error_pct = 0;
  uint64_t delivered = 0;
  double secs = 0;
};

NetBackendConfig ConfigFor(const perf::KnobVector& k) {
  switch (k.backend) {
    case NetBackend::kEager:
      return NetBackendConfig::Eager();
    case NetBackend::kUring:
      return NetBackendConfig::Uring(k.batch);
    default:
      return NetBackendConfig::Batched(k.batch);
  }
}

// ---- raw tier (single-core) ------------------------------------------------

void RunRaw(ARow* row, size_t msgs) {
  UdpNetwork net;
  net.set_backend_config(ConfigFor(row->knobs));
  EndpointId a{1}, b{2};
  size_t got = 0;
  Transport unpacker;
  net.Attach(a, [](const Packet&) {});
  net.Attach(b, [&](const Packet& p) {
    if (Transport::IsPacked(p.datagram)) {
      std::vector<Bytes> subs;
      if (unpacker.Unpack(p.datagram, &subs)) {
        got += subs.size();
      }
    } else {
      got++;
    }
  });
  if (!net.ok()) {
    return;
  }

  Transport packer;
  bool packing = row->knobs.pack_window > 1;
  if (packing) {
    packer.EnablePacking(
        [&](const Transport::PackDest&, const Iovec& wire) { net.Send(a, b, wire); },
        row->knobs.pack_window, 60000);
  }

  Bytes payload = Bytes::Allocate(kMsgSize);
  std::memset(payload.MutableData(), 0x5A, kMsgSize);

  PhaseTimer t;
  t.Start();
  size_t sent = 0;
  while (sent < msgs) {
    size_t n = std::min(kWave, msgs - sent);
    for (size_t i = 0; i < n; i++) {
      if (packing) {
        packer.PackSend(b, Iovec(payload));
      } else {
        net.Send(a, b, Iovec(payload));
      }
    }
    sent += n;
    if (packing) {
      packer.FlushPacked();
    }
    net.Flush();
    uint64_t deadline = NowNanos() + Seconds(1);
    while (got < sent && NowNanos() < deadline) {
      net.Poll();
    }
  }
  t.Stop();
  row->delivered = got;
  row->secs = static_cast<double>(t.total_ns()) / 1e9;
  row->measured_msgs_per_sec = static_cast<double>(got) / row->secs;
}

// ---- skew tier (multi-worker, gate-exempt) ---------------------------------

// 8:1 placement: shard 0 gets 8 pairs, every other shard gets 1 (the
// bench_skew shape, shrunk).
std::vector<int> SkewedPlacement(int workers, int* pairs_out) {
  std::vector<int> placement;
  int pairs = 8 + (workers - 1);
  for (int p = 0; p < pairs; p++) {
    int shard = p < 8 ? 0 : 1 + (p - 8);
    placement.push_back(shard);
    placement.push_back(shard);
  }
  *pairs_out = pairs;
  return placement;
}

void RunSkew(ARow* row, int workers, double warmup_secs, double measure_secs) {
  int pairs = 0;
  std::vector<int> placement = SkewedPlacement(workers, &pairs);
  int n = 2 * pairs;
  std::vector<GroupEndpoint*> eps(static_cast<size_t>(n), nullptr);

  ShardRuntimeConfig config;
  config.backend = ShardBackend::kUdp;
  config.num_workers = workers;
  config.net = ConfigFor(row->knobs);
  config.initial_shard = placement;
  config.steal.enabled = true;
  config.steal.min_victim_load = 4;
  config.steal.min_imbalance = row->steal_min_imbalance;
  config.steal.cooldown = Millis(10);
  config.ep.mode = StackMode::kMachine;
  config.ep.layers = FourLayerStack();
  config.ep.params.local_loopback = false;
  config.ep.params.pt2pt_window = 1u << 30;
  config.ep.params.stable_interval = 1u << 30;
  config.ep.timer_interval = kSkewFlush;
  config.ep.pack_messages = row->knobs.pack_window > 1;
  config.ep.pack_window = row->knobs.pack_window;
  config.on_deliver = [&](int member, const Event& ev) {
    if (ev.type != EventType::kDeliverSend) {
      return;
    }
    Rank partner = member % 2 == 0 ? 1 : 0;
    Bytes payload = Bytes::Allocate(kMsgSize);
    std::memset(payload.MutableData(), 0x5A, kMsgSize);
    eps[static_cast<size_t>(member)]->Send(partner, Iovec(payload));
  };

  ShardRuntime rt(config);
  if (!rt.Build(n, /*group_size=*/2)) {
    std::printf("(UDP sockets unavailable; skipping skew row)\n");
    return;
  }
  for (int i = 0; i < n; i++) {
    eps[static_cast<size_t>(i)] = &rt.member(i);
  }
  rt.Start();
  for (int p = 0; p < pairs; p++) {
    int window = p < 8 ? kWindow : 1;
    rt.PostToMember(2 * p, [window](GroupEndpoint& ep) {
      Bytes payload = Bytes::Allocate(kMsgSize);
      std::memset(payload.MutableData(), 0x5A, kMsgSize);
      for (int i = 0; i < window; i++) {
        ep.Send(1, Iovec(payload));
      }
    });
  }

  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(warmup_secs * 1000)));
  uint64_t delivered0 = rt.total_delivered();
  uint64_t t0 = NowNanos();
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(measure_secs * 1000)));
  uint64_t delivered1 = rt.total_delivered();
  uint64_t t1 = NowNanos();
  rt.Stop();

  row->delivered = delivered1 - delivered0;
  row->secs = static_cast<double>(t1 - t0) / 1e9;
  row->measured_msgs_per_sec = static_cast<double>(row->delivered) / row->secs;
}

// ---- reporting -------------------------------------------------------------

void FinishError(ARow* row) {
  if (row->measured_msgs_per_sec <= 0 || row->predicted.msgs_per_sec <= 0) {
    return;
  }
  row->error_pct = std::fabs(row->predicted.msgs_per_sec - row->measured_msgs_per_sec) /
                   row->measured_msgs_per_sec * 100.0;
}

void PrintPredictions(const std::vector<ARow>& rows) {
  std::printf("\n== Predictions (recorded before any measurement) ==\n");
  std::printf("%-5s %-28s %12s %10s %10s\n", "tier", "config", "pred msgs/s",
              "pred p50us", "pred p99us");
  for (const ARow& r : rows) {
    std::printf("%-5s %-28s %12.0f %10.1f %10.1f%s\n", r.workload.c_str(),
                r.label.c_str(), r.predicted.msgs_per_sec, r.predicted.p50_ns / 1e3,
                r.predicted.p99_ns / 1e3, r.autotuned ? "  <- autotuned" : "");
  }
}

void PrintResults(const std::vector<ARow>& rows) {
  std::printf("\n== Predicted vs measured ==\n");
  std::printf("%-5s %-28s %12s %12s %8s %s\n", "tier", "config", "pred msgs/s",
              "meas msgs/s", "err%%", "gate");
  for (const ARow& r : rows) {
    std::printf("%-5s %-28s %12.0f %12.0f %8.1f %s%s\n", r.workload.c_str(),
                r.label.c_str(), r.predicted.msgs_per_sec, r.measured_msgs_per_sec,
                r.error_pct, r.single_core ? "scored" : "exempt",
                r.autotuned ? "  <- autotuned" : "");
  }
}

double GeomeanErrorPct(const std::vector<ARow>& rows) {
  double log_sum = 0;
  int n = 0;
  for (const ARow& r : rows) {
    if (!r.single_core || r.measured_msgs_per_sec <= 0) {
      continue;
    }
    log_sum += std::log(std::max(r.error_pct, 0.1));  // Clamp: log(0) is -inf.
    n++;
  }
  return n == 0 ? 0 : std::exp(log_sum / n);
}

// Measured autotuned-row throughput vs the best hand-tuned row of the same
// workload; 1.0 means parity, >= 0.9 satisfies the within-10% criterion.
double AutotuneVsBest(const std::vector<ARow>& rows, const std::string& workload) {
  double best_hand = 0, tuned = 0;
  for (const ARow& r : rows) {
    if (r.workload != workload || r.measured_msgs_per_sec <= 0) {
      continue;
    }
    if (r.autotuned) {
      tuned = r.measured_msgs_per_sec;
    } else {
      best_hand = std::max(best_hand, r.measured_msgs_per_sec);
    }
  }
  return best_hand == 0 ? 0 : tuned / best_hand;
}

void WriteJson(const std::vector<ARow>& rows, const perf::CostModel& model,
               double geomean, double raw_ratio, double skew_ratio) {
  obs::JsonWriter w;
  w.BeginObject();
  AppendBenchHeader(w, "autotune");
  w.KV("msg_bytes", static_cast<uint64_t>(kMsgSize));
  w.KV("model_calibrated", model.calibrated);
  w.Key("rows").BeginArray();
  for (const ARow& r : rows) {
    w.BeginObject();
    w.KV("workload", r.workload).KV("config", r.label);
    w.KV("autotuned", r.autotuned);
    w.KV("single_core", r.single_core);
    w.KV("knobs", r.knobs.Label());
    w.KV("backend", NetBackendName(r.knobs.backend));
    w.KV("batch", static_cast<uint64_t>(r.knobs.batch));
    w.KV("pack_window", static_cast<uint64_t>(r.knobs.pack_window));
    w.KV("steal_min_imbalance", r.steal_min_imbalance);
    w.KV("predicted_msgs_per_sec", r.predicted.msgs_per_sec);
    w.KV("predicted_p50_us", r.predicted.p50_ns / 1e3);
    w.KV("predicted_p99_us", r.predicted.p99_ns / 1e3);
    w.KV("measured_msgs_per_sec", r.measured_msgs_per_sec);
    w.KV("error_pct", r.error_pct);
    w.KV("delivered", r.delivered);
    w.KV("seconds", r.secs);
    w.EndObject();
  }
  w.EndArray();
  w.Key("summary").BeginObject();
  w.KV("geomean_error_pct_single_core", geomean);
  w.KV("geomean_error_bound_pct", kGeomeanErrorBoundPct);
  w.KV("autotune_vs_best_raw", raw_ratio);
  w.KV("autotune_vs_best_skew", skew_ratio);
  w.EndObject();
  w.EndObject();
  WriteJsonFile("BENCH_autotune.json", w.Take());
}

}  // namespace
}  // namespace ensemble

int main(int argc, char** argv) {
  using namespace ensemble;

  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    }
  }
  const size_t raw_msgs = smoke ? 6000 : 30000;
  const double warmup_secs = smoke ? 0.3 : 1.0;
  const double measure_secs = smoke ? 0.4 : 2.0;

  std::printf("Cost-model calibration + predict-before-measure validation%s\n",
              smoke ? " (smoke)" : "");
  if (!UdpAvailable()) {
    return 0;
  }

  // 1. Calibrate and persist the model.  The raw measurement loops below
  // share their shape with the calibration probes on purpose: the model's
  // job is to extrapolate across the knob lattice, not across harnesses.
  perf::CalibrationConfig cal;
  if (smoke) {
    cal.stack_reps = 1500;
    cal.msgs_per_probe = 1500;
  }
  perf::CostModel model = perf::Calibrate(cal);
  if (!model.Save("COSTMODEL.json")) {
    std::printf("FAILED to write COSTMODEL.json\n");
    return 1;
  }
  std::printf("wrote COSTMODEL.json (calibrated=%d)\n", model.calibrated ? 1 : 0);

  Autotuner tuner(model);

  // 2. Build every row and predict it BEFORE anything runs.
  std::vector<ARow> rows;
  auto knob = [](NetBackend b, size_t batch, size_t pack) {
    perf::KnobVector k;
    k.backend = b;
    k.batch = batch;
    k.pack_window = pack;
    return k;
  };

  perf::WorkloadDesc raw_w;
  raw_w.stack_ns = 0;  // Raw tier: no protocol stack above the transport.
  raw_w.burst = kWave;

  auto add_raw = [&](const std::string& label, const perf::KnobVector& k, bool tuned) {
    ARow r;
    r.workload = "raw";
    r.label = label;
    r.knobs = k;
    r.autotuned = tuned;
    r.single_core = true;
    r.predicted = perf::PredictThroughput(tuner.model(), raw_w, k);
    rows.push_back(r);
  };
  add_raw("eager b1", knob(NetBackend::kEager, 1, 1), false);
  add_raw("mmsg b8", knob(NetBackend::kMmsg, 8, 1), false);
  add_raw("mmsg b16", knob(NetBackend::kMmsg, 16, 1), false);
  if (tuner.model().backend[static_cast<int>(NetBackend::kUring)].available) {
    add_raw("uring b16", knob(NetBackend::kUring, 16, 1), false);
    add_raw("uring b16 p16", knob(NetBackend::kUring, 16, 16), false);
  }
  add_raw("mmsg b16 p16", knob(NetBackend::kMmsg, 16, 16), false);
  TuneDecision raw_pick = tuner.Choose(raw_w);
  add_raw("autotuned", raw_pick.knobs, true);
  std::printf("%s\n", raw_pick.Describe().c_str());

  const int skew_workers = 4;
  perf::WorkloadDesc skew_w;
  EndpointConfig skew_ep;
  skew_ep.mode = StackMode::kMachine;
  skew_ep.layers = FourLayerStack();
  skew_ep.params.local_loopback = false;
  skew_ep.params.pt2pt_window = 1u << 30;
  skew_ep.params.stable_interval = 1u << 30;
  skew_w.stack_ns = perf::StackCostOf(tuner.model(), skew_ep);
  skew_w.burst = kWindow;
  skew_w.flush_deadline = kSkewFlush;

  auto add_skew = [&](const std::string& label, const perf::KnobVector& k,
                      double threshold, bool tuned) {
    ARow r;
    r.workload = "skew";
    r.label = label;
    r.knobs = k;
    r.steal_min_imbalance = threshold;
    r.autotuned = tuned;
    r.single_core = false;  // Multi-worker aggregate: emitted, not scored.
    r.predicted = perf::PredictThroughput(tuner.model(), skew_w, k);
    rows.push_back(r);
  };
  for (double thr : {2.0, 3.0, 4.0}) {
    char label[48];
    std::snprintf(label, sizeof label, "mmsg b16 p16 thr%.0f", thr);
    add_skew(label, knob(NetBackend::kMmsg, 16, 16), thr, false);
  }
  TuneDecision skew_pick = tuner.Choose(skew_w);
  add_skew("autotuned", skew_pick.knobs, StealConfig{}.min_imbalance, true);
  std::printf("%s\n", skew_pick.Describe().c_str());

  PrintPredictions(rows);

  // 3. Measure.  Predictions above are frozen; nothing in this phase feeds
  // back into the model.
  std::printf("\n== Measuring (%zu msgs per raw config, %d workers / %.1fs per "
              "skew config) ==\n",
              raw_msgs, skew_workers, measure_secs);
  for (ARow& r : rows) {
    std::printf("  %-5s %-28s ...", r.workload.c_str(), r.label.c_str());
    std::fflush(stdout);
    if (r.workload == "raw") {
      RunRaw(&r, raw_msgs);
    } else {
      RunSkew(&r, skew_workers, warmup_secs, measure_secs);
    }
    FinishError(&r);
    std::printf(" %.0f msgs/s\n", r.measured_msgs_per_sec);
  }
  PrintResults(rows);

  // 4. Summarize + gate.
  double geomean = GeomeanErrorPct(rows);
  double raw_ratio = AutotuneVsBest(rows, "raw");
  double skew_ratio = AutotuneVsBest(rows, "skew");
  std::printf("\ngeomean prediction error (single-core rows): %.1f%% (bound %.0f%%)\n",
              geomean, kGeomeanErrorBoundPct);
  std::printf("autotuned vs best hand-tuned: raw %.2fx, skew %.2fx\n", raw_ratio,
              skew_ratio);

  WriteJson(rows, tuner.model(), geomean, raw_ratio, skew_ratio);

  std::string err;
  if (!obs::ValidateJsonFile("BENCH_autotune.json", &err) ||
      !obs::ValidateJsonFile("COSTMODEL.json", &err)) {
    std::printf("artifact validation FAILED: %s\n", err.c_str());
    return 1;
  }
  if (geomean > kGeomeanErrorBoundPct) {
    std::printf("FAIL: geomean prediction error %.1f%% exceeds %.0f%%\n", geomean,
                kGeomeanErrorBoundPct);
    return 1;
  }
  return 0;
}
