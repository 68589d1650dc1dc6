#include "src/obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "src/event/types.h"
#include "src/obs/json.h"
#include "src/perf/timer.h"
#include "src/util/logging.h"

namespace ensemble {
namespace obs {

std::atomic<bool> g_trace_enabled{false};

namespace {
thread_local TraceRing* tls_ring = nullptr;
}  // namespace

void SetTraceEnabled(bool on) {
  g_trace_enabled.store(on, std::memory_order_relaxed);
}

void InstallThreadTraceRing(TraceRing* ring) { tls_ring = ring; }

TraceRing* ThreadTraceRing() { return tls_ring; }

void TraceToThreadRing(TraceKind kind, int32_t member, uint64_t a, uint64_t b) {
  TraceRing* r = tls_ring;
  if (r != nullptr) {
    r->Emit(kind, member, a, b);
  }
}

const char* TraceKindName(TraceKind k) {
  switch (k) {
    case TraceKind::kLayerDown:
      return "layer_down";
    case TraceKind::kLayerUp:
      return "layer_up";
    case TraceKind::kBypassDownHit:
      return "bypass_down_hit";
    case TraceKind::kBypassDownPunt:
      return "bypass_down_punt";
    case TraceKind::kBypassUpHit:
      return "bypass_up_hit";
    case TraceKind::kBypassUpFallback:
      return "bypass_up_fallback";
    case TraceKind::kRingPush:
      return "ring_push";
    case TraceKind::kRingDrain:
      return "ring_drain";
    case TraceKind::kStealRequest:
      return "steal_request";
    case TraceKind::kStealDecline:
      return "steal_decline";
    case TraceKind::kHandoffStart:
      return "handoff_start";
    case TraceKind::kAdopt:
      return "adopt";
    case TraceKind::kTimerFire:
      return "timer_fire";
    case TraceKind::kWakeup:
      return "wakeup";
    case TraceKind::kOverloadEngage:
      return "overload_engage";
    case TraceKind::kOverloadDisengage:
      return "overload_disengage";
    case TraceKind::kOverloadShed:
      return "overload_shed";
    case TraceKind::kMaxTraceKind:
      break;
  }
  return "unknown";
}

// ---- TraceRing -------------------------------------------------------------

namespace {
size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}
}  // namespace

TraceRing::TraceRing(size_t capacity, uint16_t shard)
    : buf_(new TraceEvent[RoundUpPow2(std::max<size_t>(capacity, 2))]),
      mask_(RoundUpPow2(std::max<size_t>(capacity, 2)) - 1),
      shard_(shard) {}

void TraceRing::Emit(TraceKind kind, int32_t member, uint64_t a, uint64_t b) {
  uint64_t h = head_.load(std::memory_order_relaxed);
  TraceEvent& e = buf_[h & mask_];
  e.ts_ns = NowNanos();
  e.a = a;
  e.b = b;
  e.kind = static_cast<uint16_t>(kind);
  e.shard = shard_;
  e.member = member;
  head_.store(h + 1, std::memory_order_release);
}

std::vector<TraceEvent> TraceRing::Snapshot() const {
  uint64_t h = head_.load(std::memory_order_acquire);
  size_t cap = mask_ + 1;
  uint64_t n = std::min<uint64_t>(h, cap);
  std::vector<TraceEvent> out;
  out.reserve(n);
  for (uint64_t i = h - n; i < h; i++) {
    out.push_back(buf_[i & mask_]);
  }
  return out;
}

// ---- Chrome trace export ---------------------------------------------------

namespace {

// One Perfetto instant/async event.  Migration lifecycle maps to an async
// span keyed by member id: kHandoffStart opens it on the source shard,
// kAdopt closes it on the destination — the span visually bridges tracks.
void AppendEvent(JsonWriter& w, const TraceEvent& e, uint64_t base_ns) {
  TraceKind k = static_cast<TraceKind>(e.kind);
  double ts_us = static_cast<double>(e.ts_ns - base_ns) / 1000.0;
  w.BeginObject();
  w.KV("name", TraceKindName(k));
  w.KV("ts", ts_us);
  w.KV("pid", 1);
  w.KV("tid", static_cast<int>(e.shard));
  if (k == TraceKind::kHandoffStart || k == TraceKind::kAdopt) {
    w.KV("ph", k == TraceKind::kHandoffStart ? "b" : "e");
    w.KV("cat", "migration");
    char idbuf[16];
    std::snprintf(idbuf, sizeof(idbuf), "0x%x",
                  static_cast<unsigned>(e.member < 0 ? 0 : e.member));
    w.KV("id", idbuf);
  } else if (k == TraceKind::kOverloadEngage || k == TraceKind::kOverloadDisengage) {
    // Each overload action engage..disengage renders as an async span keyed
    // by the action id (offset past member ids used by migration spans).
    w.KV("ph", k == TraceKind::kOverloadEngage ? "b" : "e");
    w.KV("cat", "overload");
    char idbuf[16];
    std::snprintf(idbuf, sizeof(idbuf), "0x%x",
                  static_cast<unsigned>(0x10000 + e.a));
    w.KV("id", idbuf);
  } else {
    w.KV("ph", "i");
    w.KV("s", "t");  // Thread-scoped instant.
    w.KV("cat", "obs");
  }
  w.Key("args").BeginObject();
  if (e.member >= 0) {
    w.KV("member", static_cast<int>(e.member));
  }
  switch (k) {
    case TraceKind::kLayerDown:
    case TraceKind::kLayerUp:
    case TraceKind::kBypassDownPunt:
    case TraceKind::kBypassUpFallback:
      w.KV("layer", LayerIdName(static_cast<LayerId>(e.a)));
      break;
    default:
      w.KV("a", e.a);
      if (e.b != 0) {
        w.KV("b", e.b);
      }
  }
  w.EndObject();
  w.EndObject();
}

}  // namespace

std::vector<TraceEvent> MergeTraceEvents(
    const std::vector<const TraceRing*>& rings) {
  std::vector<TraceEvent> merged;
  for (const TraceRing* ring : rings) {
    if (ring == nullptr) continue;
    std::vector<TraceEvent> snap = ring->Snapshot();
    merged.insert(merged.end(), snap.begin(), snap.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
                     if (x.member != y.member) return x.member < y.member;
                     return x.kind < y.kind;
                   });
  return merged;
}

std::string ChromeTraceJson(const std::vector<const TraceRing*>& rings) {
  // Gather per-ring snapshots and the global time base first.
  std::vector<std::vector<TraceEvent>> events;
  uint64_t base_ns = UINT64_MAX;
  for (const TraceRing* r : rings) {
    if (r == nullptr) {
      continue;
    }
    events.push_back(r->Snapshot());
    if (!events.back().empty()) {
      base_ns = std::min(base_ns, events.back().front().ts_ns);
    }
  }
  if (base_ns == UINT64_MAX) {
    base_ns = 0;
  }

  JsonWriter w;
  w.BeginObject();
  w.KV("displayTimeUnit", "ns");
  w.Key("traceEvents").BeginArray();
  // Thread-name metadata gives each shard a labeled track.
  for (const std::vector<TraceEvent>& evs : events) {
    if (evs.empty()) {
      continue;
    }
    char name[32];
    std::snprintf(name, sizeof(name), "shard %u", evs.front().shard);
    w.BeginObject();
    w.KV("name", "thread_name").KV("ph", "M").KV("pid", 1);
    w.KV("tid", static_cast<int>(evs.front().shard));
    w.Key("args").BeginObject().KV("name", name).EndObject();
    w.EndObject();
  }
  for (const std::vector<TraceEvent>& evs : events) {
    for (const TraceEvent& e : evs) {
      AppendEvent(w, e, base_ns);
    }
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const TraceRing*>& rings) {
  std::string json = ChromeTraceJson(rings);
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    ENS_LOG(kError) << "cannot open trace file " << path;
    return false;
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int rc = std::fclose(f);
  return written == json.size() && rc == 0;
}

}  // namespace obs
}  // namespace ensemble
