#include "src/perf/cost_model.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <memory>

#include "src/bypass/compiler.h"
#include "src/obs/json.h"
#include "src/perf/latency_harness.h"
#include "src/perf/timer.h"
#include "src/stack/engine.h"
#include "src/trans/transport.h"
#include "src/util/logging.h"

namespace ensemble {
namespace perf {

namespace {

// The latency harness's measurement conditions: every CCP holds, no timers
// or gossip inside the horizon.  Calibration must compile its throwaway
// routes under the SAME params it measures under, or the composed unit count
// would not match the measured trace (local_loopback adds a split arm).
LayerParams QuietParams(LayerParams base) {
  base.local_loopback = false;
  base.mflow_window = 1u << 30;
  base.pt2pt_window = 1u << 30;
  base.stable_interval = 1u << 30;
  return base;
}

// Composed cost units of the cast route for a layer list: compile a
// throwaway stack exactly the way GroupEndpoint does and ask the route.
double RouteUnitsOf(const std::vector<LayerId>& layers, const LayerParams& params) {
  auto stack = BuildStack(EngineKind::kFunctional, layers, params, EndpointId{1});
  auto view = std::make_shared<View>();
  view->vid = ViewId{0, 1};
  view->members = {EndpointId{1}, EndpointId{2}};
  stack->Init(view);
  std::string error;
  auto route = CompileRoutePair(stack.get(), /*cast=*/true, &error);
  if (route == nullptr) {
    return 0;
  }
  return route->CostUnits();
}

// One-way A->B micro-run over real loopback: `msgs` datagrams of `bytes`
// through `cfg` (optionally packed), waves of 256.  Returns ns per message,
// or a negative value when sockets are unavailable.
double UdpProbeNsPerMsg(const NetBackendConfig& cfg, size_t pack_window,
                        size_t msgs, size_t bytes) {
  UdpNetwork net;
  net.set_backend_config(cfg);
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
    return -1;
  }

  Transport packer;
  bool packing = pack_window > 1;
  if (packing) {
    packer.EnablePacking(
        [&](const Transport::PackDest&, const Iovec& wire) { net.Send(a, b, wire); },
        pack_window, 60000);
  }

  Bytes payload = Bytes::Allocate(bytes);
  std::memset(payload.MutableData(), 0x5A, bytes);

  PhaseTimer t;
  t.Start();
  size_t sent = 0;
  while (sent < msgs) {
    size_t n = std::min<size_t>(256, msgs - sent);
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
  if (got == 0) {
    return -1;
  }
  return static_cast<double>(t.total_ns()) / static_cast<double>(got);
}

// Least-squares fit of cost(batch) = per_msg + syscall / batch over the
// measured points (x = 1/batch).  Two points minimum; clamped nonnegative.
BackendCost FitAmortization(const std::vector<BatchPoint>& pts, int backend) {
  BackendCost out;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int n = 0;
  for (const BatchPoint& p : pts) {
    if (p.backend != backend || p.ns_per_msg <= 0) {
      continue;
    }
    double x = 1.0 / static_cast<double>(p.batch);
    sx += x;
    sy += p.ns_per_msg;
    sxx += x * x;
    sxy += x * p.ns_per_msg;
    n++;
  }
  if (n < 2) {
    return out;
  }
  double denom = n * sxx - sx * sx;
  if (std::fabs(denom) < 1e-12) {
    return out;
  }
  double b = (n * sxy - sx * sy) / denom;  // syscall_ns.
  double a = (sy - b * sx) / n;            // per_msg_ns.
  out.syscall_ns = std::max(b, 0.0);
  out.per_msg_ns = std::max(a, 1.0);
  out.available = true;
  return out;
}

int BackendIndex(NetBackend b) {
  int i = static_cast<int>(b);
  return (i >= 0 && i < kNumBackendTerms) ? i : static_cast<int>(NetBackend::kMmsg);
}

}  // namespace

CostModel CostModel::Defaults() {
  CostModel m;
  // Order-of-magnitude priors for a modern x86 core; every term is replaced
  // by Calibrate() when the corresponding probe can run.
  m.layer_dispatch_ns = 150;
  m.bypass_unit_ns = 8;
  m.pack_submsg_ns = 120;
  m.backend[static_cast<int>(NetBackend::kEager)] = {true, 300, 2200};
  m.backend[static_cast<int>(NetBackend::kMmsg)] = {true, 350, 2400};
  // Uring availability is a runtime property; Defaults() claims nothing and
  // lets calibration (or the autotuner's availability filter) decide.
  m.backend[static_cast<int>(NetBackend::kUring)] = {false, 350, 1800};
  return m;
}

std::string CostModel::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("layer_dispatch_ns", layer_dispatch_ns);
  w.KV("bypass_unit_ns", bypass_unit_ns);
  w.KV("pack_submsg_ns", pack_submsg_ns);
  w.KV("calibrated", calibrated);
  static const char* kNames[kNumBackendTerms] = {"eager", "mmsg", "uring"};
  for (int i = 0; i < kNumBackendTerms; i++) {
    std::string prefix = std::string("backend_") + kNames[i];
    w.KV(prefix + "_available", backend[i].available);
    w.KV(prefix + "_per_msg_ns", backend[i].per_msg_ns);
    w.KV(prefix + "_syscall_ns", backend[i].syscall_ns);
  }
  w.Key("points");
  w.BeginArray();
  for (const BatchPoint& p : points) {
    w.BeginObject();
    w.KV("backend", static_cast<int64_t>(p.backend));
    w.KV("batch", static_cast<uint64_t>(p.batch));
    w.KV("ns_per_msg", p.ns_per_msg);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

bool CostModel::Save(const std::string& path) const {
  std::string json = ToJson();
  std::string error;
  if (!obs::ValidateJson(json, &error)) {
    ENS_LOG(kError) << "COSTMODEL.json failed validation: " << error;
    return false;
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return true;
}

CostModel Calibrate(const CalibrationConfig& config) {
  CostModel m = CostModel::Defaults();

  // ---- stack terms: code latency, no syscalls ------------------------------
  //
  // The measured total (all four phases) divides by the composed unit count:
  // marshal/wire costs fold into the per-layer / per-unit terms rather than
  // getting terms of their own, so the model prices what a message actually
  // costs end to end through the code.
  std::vector<LayerId> layers = FourLayerStack();
  LatencyConfig lc;
  lc.layers = layers;
  lc.reps = config.stack_reps;

  lc.mode = StackMode::kFunctional;
  PhaseLatency func = MeasureCodeLatency(lc);
  if (func.total_ns() > 0) {
    m.layer_dispatch_ns = func.total_ns() / (2.0 * static_cast<double>(layers.size()));
    m.calibrated = true;
  }

  lc.mode = StackMode::kMachine;
  PhaseLatency mach = MeasureCodeLatency(lc);
  double units = RouteUnitsOf(layers, QuietParams(lc.params));
  if (mach.total_ns() > 0 && units > 0) {
    m.bypass_unit_ns = mach.total_ns() / units;
  }

  // ---- backend terms: per-backend batch amortization curve -----------------
  if (config.probe_udp) {
    struct Probe {
      NetBackend backend;
      size_t batch;
    };
    const Probe probes[] = {
        {NetBackend::kEager, 1},
        {NetBackend::kMmsg, 1},
        {NetBackend::kMmsg, 4},
        {NetBackend::kMmsg, 16},
        {NetBackend::kUring, 1},
        {NetBackend::kUring, 4},
        {NetBackend::kUring, 16},
    };
    for (const Probe& p : probes) {
      NetBackendConfig cfg;
      cfg.backend = p.backend;
      cfg.send_batch = cfg.recv_batch = p.batch;
      // Probe each backend as requested; a uring probe that falls back to
      // mmsg would poison the uring fit, so verify what actually ran.
      UdpNetwork check;
      check.set_backend_config(cfg);
      if (check.active_backend() != p.backend) {
        continue;  // Unavailable (uring without kernel support, etc.).
      }
      double ns = UdpProbeNsPerMsg(cfg, /*pack_window=*/1, config.msgs_per_probe, 64);
      if (ns > 0) {
        m.points.push_back({static_cast<int>(p.backend), p.batch, ns});
      }
    }
    for (int b = 0; b < kNumBackendTerms; b++) {
      BackendCost fit = FitAmortization(m.points, b);
      if (fit.available) {
        m.backend[b] = fit;
        m.calibrated = true;
      } else if (b == static_cast<int>(NetBackend::kEager)) {
        // Eager has one point (batch is meaningless); its syscall-pair cost
        // is the same kernel work the mmsg fit isolated.
        for (const BatchPoint& p : m.points) {
          if (p.backend == b) {
            double syscall = m.backend[static_cast<int>(NetBackend::kMmsg)].syscall_ns;
            m.backend[b].syscall_ns = syscall;
            m.backend[b].per_msg_ns = std::max(p.ns_per_msg - syscall, 1.0);
            m.backend[b].available = true;
            m.calibrated = true;
          }
        }
      } else {
        m.backend[b].available = false;  // No probe ran: not available here.
      }
    }
    // Packing overhead: a packed run's measured cost minus what the fitted
    // terms already explain.
    if (m.backend[static_cast<int>(NetBackend::kMmsg)].available) {
      NetBackendConfig cfg = NetBackendConfig::Batched(16);
      const size_t kPack = 16;
      double packed = UdpProbeNsPerMsg(cfg, kPack, config.msgs_per_probe, 64);
      if (packed > 0) {
        const BackendCost& bc = m.backend[static_cast<int>(NetBackend::kMmsg)];
        double explained = (bc.per_msg_ns + bc.syscall_ns / 16.0) / static_cast<double>(kPack);
        m.pack_submsg_ns = std::max(packed - explained, 0.0);
      }
    }
  }
  return m;
}

double StackCostNs(const CostModel& m, const RoutePair* route, size_t layers) {
  if (route != nullptr) {
    return route->CostUnits() * m.bypass_unit_ns;
  }
  return 2.0 * static_cast<double>(layers) * m.layer_dispatch_ns;
}

double StackCostOf(const CostModel& m, const EndpointConfig& ep) {
  if (ep.mode == StackMode::kMachine || ep.mode == StackMode::kHand) {
    double units = RouteUnitsOf(ep.layers, QuietParams(ep.params));
    if (units > 0) {
      return units * m.bypass_unit_ns;
    }
  }
  return 2.0 * static_cast<double>(ep.layers.size()) * m.layer_dispatch_ns;
}

std::string KnobVector::Label() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s b%zu p%zu", NetBackendName(backend), batch,
                pack_window);
  return buf;
}

uint32_t KnobVector::Encode() const {
  // bits 0-1   backend (NetBackend value, never kAuto)
  // bit  2     unused (zero)
  // bits 3-9   batch (clamped to 127)
  // bits 10-16 pack window (clamped to 127)
  uint32_t v = static_cast<uint32_t>(BackendIndex(backend)) & 0x3u;
  v |= (static_cast<uint32_t>(std::min<size_t>(batch, 127)) & 0x7Fu) << 3;
  v |= (static_cast<uint32_t>(std::min<size_t>(pack_window, 127)) & 0x7Fu) << 10;
  return v;
}

Prediction PredictThroughput(const CostModel& m, const WorkloadDesc& w,
                             const KnobVector& k) {
  Prediction out;
  const BackendCost& b = m.backend[BackendIndex(k.backend)];

  size_t pack = std::max<size_t>(1, std::min(k.pack_window, std::max<size_t>(w.burst, 1)));
  size_t burst_datagrams = std::max<size_t>(1, w.burst / pack);
  size_t eff_batch = k.backend == NetBackend::kEager
                         ? 1
                         : std::max<size_t>(1, std::min(k.batch, burst_datagrams));

  double wire_ns = (b.per_msg_ns + b.syscall_ns / static_cast<double>(eff_batch)) /
                   static_cast<double>(pack);
  double pack_ns = pack > 1 ? m.pack_submsg_ns : 0;
  double per_msg_ns = w.stack_ns + pack_ns + wire_ns;
  if (per_msg_ns <= 0) {
    return out;
  }
  out.msgs_per_sec = 1e9 / per_msg_ns;

  // Latency: processing plus the staging wait.  A staged message leaves when
  // the window fills (fill-limited) or the endpoint's timer flushes it,
  // whichever is sooner; the median message waits half of that, the tail all
  // of it.
  double window = static_cast<double>(eff_batch * pack);
  double max_wait = window <= 1.0 ? 0.0 : (window - 1.0) * per_msg_ns;
  if (w.flush_deadline > 0) {
    max_wait = std::min(static_cast<double>(w.flush_deadline), max_wait);
  }
  out.p50_ns = per_msg_ns + max_wait / 2.0;
  out.p99_ns = per_msg_ns + max_wait;
  return out;
}

}  // namespace perf
}  // namespace ensemble
