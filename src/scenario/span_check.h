// Span-shape assertions over trace-ring event streams.
//
// The scheduler and overload subsystems narrate their lifecycles into the
// per-shard trace rings (src/obs/trace.h): a migration is a
// handoff_start … adopt span, an overload rung is an engage … disengage
// span.  Counting steals (what the runtime tests used to
// assert) says a migration *finished*; checking the span shapes says every
// migration finished EXACTLY ONCE, on the shard it was aimed at, with no
// member ever migrating twice concurrently — and that the overload ladder's
// rungs engage and release as a properly nested hysteresis, never leaving a
// high rung (pause_group) stuck behind a released low one.
//
// These checks are the scheduler-side oracle of the scenario engine
// (src/scenario/scenario.h): every adversarial schedule that moves groups
// between shards or drives the overload ladder must leave a well-shaped
// trace, exactly as every delivery schedule must satisfy the spec monitors.

#ifndef ENSEMBLE_SRC_SCENARIO_SPAN_CHECK_H_
#define ENSEMBLE_SRC_SCENARIO_SPAN_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace ensemble {

// Overload rungs are always checked: the engaged set must be a prefix of the
// ladder at every evaluation boundary (rungs disengage in reverse order), and
// no rung may still be engaged at the end of the stream.
struct SpanCheckOptions {
  // Flag migrations still open at the end of the stream.  Turn off for
  // best-effort live snapshots taken while handoffs are in flight.
  bool require_migrations_closed = true;
};

struct SpanCheckResult {
  bool ok = true;
  std::vector<std::string> violations;

  // Shape census (for assertions that used to count steals).
  size_t migrations_completed = 0;   // Balanced handoff_start→adopt pairs.
  size_t migrations_open = 0;        // Starts never adopted (violation when
                                     // require_migrations_closed).
  size_t overload_engages = 0;       // Balanced engage→disengage pairs count
  size_t overload_open = 0;          // toward engages; open ones (always a
                                     // violation) here.
  size_t events_seen = 0;

  std::string ToString() const;
};

// Validates migration and overload span shapes over `events` (any order —
// the checker sorts by timestamp with causal tie-breaks).  Events of other
// kinds are ignored.  Typical sources: ShardRuntime::TraceEvents() after
// Stop(), or a test-owned TraceRing's Snapshot().
SpanCheckResult CheckSpanShapes(const std::vector<obs::TraceEvent>& events,
                                const SpanCheckOptions& options = {});

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_SCENARIO_SPAN_CHECK_H_
