#include "src/scenario/span_check.h"

#include <algorithm>
#include <array>
#include <map>
#include <sstream>

#include "src/overload/manager.h"

namespace ensemble {

namespace {

using obs::TraceEvent;
using obs::TraceKind;

bool IsMigrationKind(uint16_t k) {
  return k == static_cast<uint16_t>(TraceKind::kHandoffStart) ||
         k == static_cast<uint16_t>(TraceKind::kAdopt);
}

bool IsOverloadKind(uint16_t k) {
  return k == static_cast<uint16_t>(TraceKind::kOverloadEngage) ||
         k == static_cast<uint16_t>(TraceKind::kOverloadDisengage);
}

std::string Describe(const TraceEvent& e) {
  std::ostringstream os;
  os << obs::TraceKindName(static_cast<TraceKind>(e.kind)) << "{ts=" << e.ts_ns
     << " shard=" << e.shard << " member=" << e.member << " a=" << e.a
     << " b=" << e.b << "}";
  return os.str();
}

}  // namespace

std::string SpanCheckResult::ToString() const {
  std::ostringstream os;
  os << (ok ? "OK" : "VIOLATION") << " events=" << events_seen
     << " migrations=" << migrations_completed
     << " open_migrations=" << migrations_open
     << " overload_engages=" << overload_engages
     << " open_overload=" << overload_open;
  for (const auto& v : violations) {
    os << "\n  - " << v;
  }
  return os.str();
}

SpanCheckResult CheckSpanShapes(const std::vector<TraceEvent>& events,
                                const SpanCheckOptions& options) {
  SpanCheckResult r;
  auto fail = [&r](const std::string& msg) {
    r.ok = false;
    r.violations.push_back(msg);
  };

  // Order by timestamp (steady_clock is one domain across worker threads, so
  // cross-ring merge by ts is causal).  Equal timestamps for the same member
  // break ties by kind value — start < adopt and engage < disengage hold
  // numerically in TraceKind.
  std::vector<TraceEvent> ev;
  ev.reserve(events.size());
  for (const auto& e : events) {
    if (IsMigrationKind(e.kind) || IsOverloadKind(e.kind)) {
      ev.push_back(e);
    }
  }
  std::stable_sort(ev.begin(), ev.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
                     if (x.member != y.member) return x.member < y.member;
                     return x.kind < y.kind;
                   });
  r.events_seen = ev.size();

  // ---- Migration spans: per-member handoff_start → adopt -----------------
  //
  // handoff_start is emitted on the victim's ring (event.shard = source,
  // a = destination); adopt on the thief's ring (event.shard = destination,
  // a = the adopting shard, i.e. also the destination).  A well-shaped trace
  // never has two spans open for one member, never adopts on a shard the
  // start didn't aim at, and never sees an adopt outside an open span.
  std::map<int32_t, TraceEvent> open;
  for (const auto& e : ev) {
    if (e.kind == static_cast<uint16_t>(TraceKind::kHandoffStart)) {
      auto it = open.find(e.member);
      if (it != open.end()) {
        fail("overlapping migrations for member " + std::to_string(e.member) +
             ": " + Describe(e) + " while open since ts=" +
             std::to_string(it->second.ts_ns));
      }
      open[e.member] = e;
    } else if (e.kind == static_cast<uint16_t>(TraceKind::kAdopt)) {
      auto it = open.find(e.member);
      if (it == open.end()) {
        fail("orphan adopt (no matching handoff_start): " + Describe(e));
        continue;
      }
      const TraceEvent& s = it->second;
      if (e.shard != s.a) {
        fail("adopt on wrong shard: " + Describe(e) + " but start aimed at " +
             std::to_string(s.a));
      }
      if (e.a != e.shard) {
        fail("adopt shard self-mismatch (recorded adopter != emitting ring): " +
             Describe(e));
      }
      r.migrations_completed++;
      open.erase(it);
    }
  }
  r.migrations_open = open.size();
  if (options.require_migrations_closed) {
    for (const auto& [member, start] : open) {
      fail("handoff_start without adopt for member " + std::to_string(member) +
           ": " + Describe(start));
    }
  }

  // ---- Overload spans: engage/disengage as a nested hysteresis ladder -----
  //
  // Rung IDs (overload::Action) escalate with the pressure thresholds, so
  // with monotone thresholds the engaged set must be a contiguous prefix of
  // the ladder {0..k-1} at every evaluation boundary — that IS "rungs
  // disengage in reverse order" and "no stuck pause_group".  One Evaluate()
  // poll emits its transitions in ascending rung order sharing one pressure
  // value `b`, so a maximal run of equal-b events is a poll batch; the
  // prefix invariant is checked at batch boundaries, not per event (a poll
  // that engages rungs 0-2 from idle is legal even though rung 0 alone is
  // engaged mid-batch... the intermediate states are emission order, not
  // observable ladder states).
  constexpr int kRungs = overload::kActionCount;
  std::array<bool, kRungs> engaged{};
  auto check_prefix = [&](uint64_t ts) {
    bool seen_gap = false;
    for (int i = 0; i < kRungs; i++) {
      if (engaged[i] && seen_gap) {
        fail("overload ladder not a prefix at ts=" + std::to_string(ts) +
             ": rung " + overload::ActionName(static_cast<overload::Action>(i)) +
             " engaged while a lower rung is not (stuck rung)");
        return;
      }
      if (!engaged[i]) seen_gap = true;
    }
  };

  bool in_batch = false;
  uint64_t batch_pressure = 0;
  uint64_t last_ts = 0;
  for (const auto& e : ev) {
    if (!IsOverloadKind(e.kind)) continue;
    if (in_batch && e.b != batch_pressure) {
      check_prefix(last_ts);
    }
    in_batch = true;
    batch_pressure = e.b;
    last_ts = e.ts_ns;
    if (e.a >= static_cast<uint64_t>(kRungs)) {
      fail("overload event with out-of-range rung: " + Describe(e));
      continue;
    }
    int rung = static_cast<int>(e.a);
    if (e.kind == static_cast<uint16_t>(TraceKind::kOverloadEngage)) {
      if (engaged[rung]) {
        fail("double engage of rung " +
             std::string(overload::ActionName(
                 static_cast<overload::Action>(rung))) +
             ": " + Describe(e));
      }
      engaged[rung] = true;
      r.overload_engages++;
    } else {
      if (!engaged[rung]) {
        fail("disengage of rung " +
             std::string(overload::ActionName(
                 static_cast<overload::Action>(rung))) +
             " that was never engaged: " + Describe(e));
      }
      engaged[rung] = false;
    }
  }
  if (in_batch) {
    check_prefix(last_ts);
  }
  for (int i = 0; i < kRungs; i++) {
    if (engaged[i]) {
      r.overload_open++;
      fail("overload rung " +
           std::string(overload::ActionName(static_cast<overload::Action>(i))) +
           " still engaged at end of trace");
    }
  }

  return r;
}

}  // namespace ensemble
