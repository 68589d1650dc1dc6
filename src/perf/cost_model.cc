#include "src/perf/cost_model.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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

// ---- minimal JSON reader (COSTMODEL.json only) -----------------------------
//
// Save() emits via JsonWriter and runs the strict validator; Load() only has
// to read back what Save wrote — a flat object of numbers plus the "points"
// array of flat objects.  This cursor-based reader accepts exactly that
// shape (plus whitespace) and rejects everything else.

struct JsonCursor {
  const char* p;
  const char* end;

  void SkipWs() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p)) != 0) {
      p++;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (p < end && *p == c) {
      p++;
      return true;
    }
    return false;
  }
  bool Peek(char c) {
    SkipWs();
    return p < end && *p == c;
  }
  bool ReadString(std::string* out) {
    SkipWs();
    if (p >= end || *p != '"') {
      return false;
    }
    p++;
    out->clear();
    while (p < end && *p != '"') {
      if (*p == '\\') {
        return false;  // Save() never escapes term names.
      }
      out->push_back(*p++);
    }
    return Eat('"');
  }
  bool ReadNumber(double* out) {
    SkipWs();
    char* after = nullptr;
    *out = std::strtod(p, &after);
    if (after == p || after > end) {
      return false;
    }
    p = after;
    return true;
  }
  bool ReadBool(bool* out) {
    SkipWs();
    if (end - p >= 4 && std::strncmp(p, "true", 4) == 0) {
      *out = true;
      p += 4;
      return true;
    }
    if (end - p >= 5 && std::strncmp(p, "false", 5) == 0) {
      *out = false;
      p += 5;
      return true;
    }
    return false;
  }
};

}  // namespace

CostModel CostModel::Defaults() {
  CostModel m;
  // Order-of-magnitude priors for a modern x86 core; every term is replaced
  // by Calibrate() when the corresponding probe can run.
  m.layer_dispatch_ns = 150;
  m.bypass_unit_ns = 8;
  m.pack_submsg_ns = 120;
  m.ring_hop_ns = 8000;
  m.steal_ns = 60000;
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
  w.KV("ring_hop_ns", ring_hop_ns);
  w.KV("steal_ns", steal_ns);
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

bool CostModel::FromJson(const std::string& text, CostModel* out) {
  *out = CostModel{};
  JsonCursor c{text.data(), text.data() + text.size()};
  if (!c.Eat('{')) {
    return false;
  }
  static const char* kNames[kNumBackendTerms] = {"eager", "mmsg", "uring"};
  bool first = true;
  while (!c.Peek('}')) {
    if (!first && !c.Eat(',')) {
      return false;
    }
    first = false;
    std::string key;
    if (!c.ReadString(&key) || !c.Eat(':')) {
      return false;
    }
    if (key == "points") {
      if (!c.Eat('[')) {
        return false;
      }
      bool first_pt = true;
      while (!c.Peek(']')) {
        if (!first_pt && !c.Eat(',')) {
          return false;
        }
        first_pt = false;
        if (!c.Eat('{')) {
          return false;
        }
        BatchPoint pt;
        bool first_field = true;
        while (!c.Peek('}')) {
          if (!first_field && !c.Eat(',')) {
            return false;
          }
          first_field = false;
          std::string f;
          double v = 0;
          if (!c.ReadString(&f) || !c.Eat(':') || !c.ReadNumber(&v)) {
            return false;
          }
          if (f == "backend") {
            pt.backend = static_cast<int>(v);
          } else if (f == "batch") {
            pt.batch = static_cast<size_t>(v);
          } else if (f == "ns_per_msg") {
            pt.ns_per_msg = v;
          }
        }
        if (!c.Eat('}')) {
          return false;
        }
        out->points.push_back(pt);
      }
      if (!c.Eat(']')) {
        return false;
      }
      continue;
    }
    if (key == "calibrated") {
      if (!c.ReadBool(&out->calibrated)) {
        return false;
      }
      continue;
    }
    bool matched_backend = false;
    for (int i = 0; i < kNumBackendTerms; i++) {
      std::string prefix = std::string("backend_") + kNames[i];
      if (key == prefix + "_available") {
        if (!c.ReadBool(&out->backend[i].available)) {
          return false;
        }
        matched_backend = true;
        break;
      }
      if (key == prefix + "_per_msg_ns") {
        if (!c.ReadNumber(&out->backend[i].per_msg_ns)) {
          return false;
        }
        matched_backend = true;
        break;
      }
      if (key == prefix + "_syscall_ns") {
        if (!c.ReadNumber(&out->backend[i].syscall_ns)) {
          return false;
        }
        matched_backend = true;
        break;
      }
    }
    if (matched_backend) {
      continue;
    }
    double v = 0;
    if (!c.ReadNumber(&v)) {
      return false;
    }
    if (key == "layer_dispatch_ns") {
      out->layer_dispatch_ns = v;
    } else if (key == "bypass_unit_ns") {
      out->bypass_unit_ns = v;
    } else if (key == "pack_submsg_ns") {
      out->pack_submsg_ns = v;
    } else if (key == "ring_hop_ns") {
      out->ring_hop_ns = v;
    } else if (key == "steal_ns") {
      out->steal_ns = v;
    }
    // Unknown numeric terms are skipped: newer writers stay loadable.
  }
  return c.Eat('}');
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

bool CostModel::Load(const std::string& path, CostModel* out) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return false;
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  return FromJson(text, out);
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

void RefineFromMetrics(const obs::MetricsSnapshot& snap, CostModel* m) {
  const obs::Sample* hop = snap.Find("sched.delivery_latency_ns");
  if (hop != nullptr && hop->count > 0) {
    m->ring_hop_ns = static_cast<double>(hop->Percentile(0.5));
  }
  const obs::Sample* steal = snap.Find("sched.steal_duration_ns");
  if (steal != nullptr && steal->count > 0) {
    m->steal_ns = static_cast<double>(steal->Percentile(0.5));
  }
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
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s b%zu p%zu f%.1fms i%.1f r%zu c%zu",
                NetBackendName(backend), batch, pack_window,
                static_cast<double>(flush_deadline) / 1e6, steal_min_imbalance,
                ring_capacity, credit_floor);
  return buf;
}

uint32_t KnobVector::Encode() const {
  // bits 0-1  backend (NetBackend value, never kAuto)
  // bit  2    unused (zero)
  // bits 3-9  batch (clamped to 127)
  // bits 10-16 pack window (clamped to 127)
  // bits 17-24 flush deadline in 100us units (clamped to 255)
  // bits 25-28 steal min_imbalance in halves (clamped to 15)
  // bits 29-30 ring capacity as log4(capacity / 1024): 1k=0, 4k=1, 16k=2
  // bit  31    credit floor: 0 = 32/link, 1 = 128/link
  uint32_t v = static_cast<uint32_t>(BackendIndex(backend)) & 0x3u;
  v |= (static_cast<uint32_t>(std::min<size_t>(batch, 127)) & 0x7Fu) << 3;
  v |= (static_cast<uint32_t>(std::min<size_t>(pack_window, 127)) & 0x7Fu) << 10;
  uint32_t flush_100us =
      static_cast<uint32_t>(std::min<VTime>(flush_deadline / Micros(100), 255));
  v |= (flush_100us & 0xFFu) << 17;
  uint32_t halves = static_cast<uint32_t>(
      std::min(std::max(steal_min_imbalance, 0.0) * 2.0, 15.0));
  v |= (halves & 0xFu) << 25;
  uint32_t cap_log4 = 0;
  for (size_t c = ring_capacity; c >= 4096 && cap_log4 < 3; c /= 4) {
    cap_log4++;
  }
  v |= (cap_log4 & 0x3u) << 29;
  v |= (credit_floor > 32 ? 1u : 0u) << 31;
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
  double per_msg_ns =
      w.stack_ns + pack_ns + wire_ns + w.cross_shard_fraction * m.ring_hop_ns;

  // Credit-park stall: per-link ring credits are capacity / links after the
  // runtime's grow-until-floor rule.  A burst whose cross-shard share
  // overflows the sender's credit quota parks until the consumer drains —
  // charge the overflowing fraction a second ring hop (park + wake + regrant
  // round trip).  This is what makes ring_capacity / credit_floor live knobs:
  // bursty cross-shard workloads buy bigger rings, local ones keep the cache-
  // friendlier default.
  if (w.cross_shard_fraction > 0 && w.workers > 0) {
    size_t links = static_cast<size_t>(w.workers) + 1;
    size_t cap = 2;
    while (cap < k.ring_capacity) {
      cap <<= 1;
    }
    while (cap / links < std::max<size_t>(1, k.credit_floor)) {
      cap <<= 1;
    }
    double credits = static_cast<double>(cap / links);
    double inflight = static_cast<double>(w.burst) * w.cross_shard_fraction;
    if (inflight > credits) {
      double overflow = (inflight - credits) / inflight;
      per_msg_ns += overflow * w.cross_shard_fraction * m.ring_hop_ns;
    }
  }
  if (per_msg_ns <= 0) {
    return out;
  }
  out.msgs_per_sec = 1e9 / per_msg_ns;

  if (w.steal_eligible && w.skew_horizon_ns > 0) {
    // Work lost to a skewed phase: the idle worker detects the imbalance
    // (load-EWMA crossing takes ~threshold poll cycles of ~1ms) and pays one
    // calibrated migration, amortized over the phase.
    double detect_ns = k.steal_min_imbalance * static_cast<double>(Millis(1));
    double lost = (detect_ns + m.steal_ns) / w.skew_horizon_ns;
    out.msgs_per_sec *= std::max(0.5, 1.0 - lost);
  }

  // Latency: processing plus the staging wait.  A staged message leaves when
  // the window fills (fill-limited) or the flush deadline fires, whichever
  // is sooner; the median message waits half of that, the tail all of it.
  double window = static_cast<double>(eff_batch * pack);
  double fill_ns = (window - 1.0) * per_msg_ns;
  double max_wait = window <= 1.0
                        ? 0.0
                        : std::min(static_cast<double>(k.flush_deadline), fill_ns);
  out.p50_ns = per_msg_ns + max_wait / 2.0;
  out.p99_ns = per_msg_ns + max_wait;
  return out;
}

}  // namespace perf
}  // namespace ensemble
