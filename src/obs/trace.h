// Lock-free per-shard trace ring with Chrome trace-event export.
//
// Each worker thread owns one TraceRing (single writer); events are 32-byte
// PODs written with a monotonically increasing head counter into a
// power-of-two buffer, overwriting the oldest when full — tracing never
// blocks and never allocates on the hot path.  Readers (after join, or
// best-effort on a live run) reconstruct oldest-first order from the head.
//
// Cost model, because the bypass fast path is the whole point of this repo:
//   ENSEMBLE_TRACE=OFF build  — ENS_TRACE emits no code; zero bytes.
//   runtime disabled (default) — one relaxed atomic load + predicted branch.
//   runtime enabled            — the load, a TLS lookup, and a ring store.
//
// The exporter emits Chrome trace-event JSON ({"traceEvents": [...]}) that
// loads in Perfetto / chrome://tracing: one track per shard, instant events
// for handoffs/punts/task posts, and async begin/end pairs for the
// steal-migration lifecycle so a group's move between shards shows as a span.

#ifndef ENSEMBLE_SRC_OBS_TRACE_H_
#define ENSEMBLE_SRC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ensemble {
namespace obs {

enum class TraceKind : uint16_t {
  kLayerDown = 0,       // a = LayerId
  kLayerUp,             // a = LayerId
  kBypassDownHit,       // a = route depth
  kBypassDownPunt,      // a = LayerId of first failing CCP plan
  kBypassUpHit,         // a = route depth
  kBypassUpFallback,    // a = LayerId of first failing CCP plan
  kRingPush,            // a = destination shard, b = task queue depth after push
  kRingDrain,           // a = tasks drained
  kStealRequest,        // a = victim shard
  kStealDecline,        // a = requesting shard
  kHandoffStart,        // async begin; member in event, a = destination shard
  kAdopt,               // async end; a = source shard
  kTimerFire,           // a = number of timers fired
  kWakeup,              // a = 1 if coalesced
  kOverloadEngage,      // async begin; a = overload::Action, b = pressure ‰
  kOverloadDisengage,   // async end; a = overload::Action, b = pressure ‰
  kOverloadShed,        // a = shed site (0 send window, 1 dispatch queue), b = bytes
  kMaxTraceKind
};

const char* TraceKindName(TraceKind k);

struct TraceEvent {
  uint64_t ts_ns = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint16_t kind = 0;
  uint16_t shard = 0;
  int32_t member = -1;
};
static_assert(sizeof(TraceEvent) == 32, "TraceEvent should stay one half-line");

// Single-writer ring.  Emit() may only be called from the owning thread;
// Snapshot() from any thread (exact once the writer has quiesced, else
// best-effort — a torn in-flight slot can surface, which is acceptable for a
// diagnostic stream).
class TraceRing {
 public:
  // Capacity is rounded up to a power of two; shard tags every event.
  TraceRing(size_t capacity, uint16_t shard);

  void Emit(TraceKind kind, int32_t member, uint64_t a, uint64_t b);

  // Events oldest-first.  At most capacity() entries; earlier ones were
  // overwritten (count visible via dropped()).
  std::vector<TraceEvent> Snapshot() const;

  size_t capacity() const { return mask_ + 1; }
  uint16_t shard() const { return shard_; }
  uint64_t total() const { return head_.load(std::memory_order_relaxed); }
  uint64_t dropped() const {
    uint64_t h = total();
    return h > capacity() ? h - capacity() : 0;
  }

 private:
  std::unique_ptr<TraceEvent[]> buf_;
  size_t mask_;
  uint16_t shard_;
  std::atomic<uint64_t> head_{0};
};

// ---- Global enable switch + thread-local sink ------------------------------

extern std::atomic<bool> g_trace_enabled;

inline bool TraceOn() { return g_trace_enabled.load(std::memory_order_relaxed); }
void SetTraceEnabled(bool on);

// Installs `ring` as this thread's trace sink (nullptr to detach).  The
// worker loop installs its shard's ring right after pinning.
void InstallThreadTraceRing(TraceRing* ring);
TraceRing* ThreadTraceRing();

// Out-of-line slow path: looks up the thread-local ring and emits.  Kept
// non-inline so the ENS_TRACE call sites only inline the enabled check.
void TraceToThreadRing(TraceKind kind, int32_t member, uint64_t a, uint64_t b);

#if defined(ENSEMBLE_TRACE_OFF)
inline constexpr bool kTraceCompiledIn = false;
// The arguments still appear in unevaluated operands: no code is emitted, but
// a variable computed only for a trace site does not trip -Wunused-variable.
#define ENS_TRACE(kind, member, a, b)                  \
  do {                                                 \
    (void)sizeof(::ensemble::obs::TraceKind::kind);    \
    (void)sizeof(member);                              \
    (void)sizeof(a);                                   \
    (void)sizeof(b);                                   \
  } while (0)
#else
inline constexpr bool kTraceCompiledIn = true;
#define ENS_TRACE(kind, member, a, b)                                       \
  do {                                                                      \
    if (::ensemble::obs::TraceOn()) {                                       \
      ::ensemble::obs::TraceToThreadRing(::ensemble::obs::TraceKind::kind,  \
                                         (member), (a), (b));               \
    }                                                                       \
  } while (0)
#endif

// ---- Export ----------------------------------------------------------------

// Snapshots every ring and merges the events into one time-ordered stream
// (ties broken by member then kind, so a member's handoff_start sorts before
// its adopt even at equal timestamps).  steady_clock is one domain across
// threads, so the merge is causal.  Null rings are skipped.
std::vector<TraceEvent> MergeTraceEvents(
    const std::vector<const TraceRing*>& rings);

// Chrome trace-event JSON for a set of rings (one track per shard).
// Timestamps are rebased to the earliest event across all rings.
std::string ChromeTraceJson(const std::vector<const TraceRing*>& rings);

// Writes ChromeTraceJson to `path`; false on I/O failure.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const TraceRing*>& rings);

}  // namespace obs
}  // namespace ensemble

#endif  // ENSEMBLE_SRC_OBS_TRACE_H_
