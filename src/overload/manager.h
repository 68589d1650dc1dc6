// Graduated overload manager: polls occupancy signals (pool/heap live bytes,
// dispatch and timer backlog), folds them into one pressure figure (per-mille
// of the configured high watermark), and walks an action ladder with
// per-action hysteresis:
//
//   pressure ‰   action            effect
//   ----------   ---------------   ------------------------------------------
//     ~500       tighten_flush     backends flush per message (level 1)
//     ~600       shrink_window     halve per-group send windows each poll
//     ~750       pause_group       pause low-priority groups' windows
//     ~950       kill_shed         drop-oldest on non-reliable dispatch
//                                  queues (level 2) + decay stuck windows
//
// Every engage/disengage transition is counted (`overload.action.<name>`),
// each engage also under the signal whose per-mille set the pressure
// (`overload.engaged_by.<signal>`), and trace-ringed as an async span (kOverloadEngage/kOverloadDisengage), so
// a TRACE_*.json shows exactly when each rung was active.  The manager never
// owns a thread: every shard loop calls MaybePoll(), an atomic next-deadline
// CAS elects one caller per interval, and a busy flag keeps evaluations from
// overlapping — so Watermark state stays effectively single-threaded.

#ifndef ENSEMBLE_SRC_OVERLOAD_MANAGER_H_
#define ENSEMBLE_SRC_OVERLOAD_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/obs/metrics.h"
#include "src/overload/send_window.h"
#include "src/overload/watermark.h"
#include "src/util/counters.h"
#include "src/util/vtime.h"

namespace ensemble {
namespace overload {

enum class Action : uint8_t {
  kTightenFlush = 0,
  kShrinkWindow,
  kPauseGroup,
  kKillShed,
  kCount
};
inline constexpr int kActionCount = static_cast<int>(Action::kCount);

const char* ActionName(Action a);

// The occupancy signals folded into pressure, in OverloadSignals order.
enum class Signal : uint8_t { kLiveBytes = 0, kDispatch, kTimer, kCount };
inline constexpr int kSignalCount = static_cast<int>(Signal::kCount);

const char* SignalName(Signal s);

// Signal providers, installed by the runtime.  All must be callable from any
// worker thread; missing ones read as zero pressure.
struct OverloadSignals {
  std::function<uint64_t()> live_bytes;        // pooled + heap live bytes
  std::function<uint64_t()> dispatch_backlog;  // max per-shard mailbox depth
  std::function<uint64_t()> timer_backlog;     // max timer heap depth
  std::function<uint64_t()> delivered_total;   // progress signal for decay
};

// Effectors.  set_pressure fans a backpressure level to every backend
// (0 = normal, 1 = flush-per-message, 2 = additionally drop-oldest on
// non-reliable dispatch queues); both must be thread-safe.
struct OverloadActions {
  std::function<void(int level)> set_pressure;
  std::function<void()> flush_all;  // optional one-shot flush kick on engage
};

struct OverloadConfig {
  bool enabled = false;
  VTime poll_interval = Millis(2);

  // Resource high/low watermarks.  pressure‰ = value * 1000 / high, per
  // resource, combined by max; `low` shapes only the per-action hysteresis
  // below (the ladder disengage points are fractions of high).  A zero high
  // disables that resource.
  uint64_t bytes_high = 64u << 20;     // pool + heap live bytes
  uint64_t dispatch_high = 8192;       // one shard's channel mailbox depth
  uint64_t timer_high = 1u << 16;      // timer heap depth

  // Per-group send windows (payload bytes in flight).
  uint64_t window_bytes = 1u << 20;
  uint64_t window_min_bytes = 16u << 10;
  std::vector<int> low_priority_groups;  // paused first under pressure

  // Drop-oldest cap applied to each channel mailbox while kill_shed is engaged.
  uint64_t kill_dispatch_keep = 4096;

  // Polls with in-flight bytes but zero delivery progress before windows are
  // decayed (the lost-release escape hatch).
  int stall_polls = 8;

  // Action ladder thresholds, ‰ of the high watermark, ordered as Action.
  struct Step {
    uint32_t engage_pm;
    uint32_t disengage_pm;
  };
  Step ladder[kActionCount] = {
      {500, 350},  // tighten_flush
      {600, 400},  // shrink_window
      {750, 500},  // pause_group
      {950, 700},  // kill_shed
  };
};

class OverloadManager {
 public:
  OverloadManager(const OverloadConfig& cfg, int num_groups);

  void InstallSignals(OverloadSignals s) { signals_ = std::move(s); }
  void InstallActions(OverloadActions a) { actions_ = std::move(a); }

  // Per-group window; nullptr for out-of-range groups.
  SendWindow* window(int group) {
    return group >= 0 && group < static_cast<int>(windows_.size())
               ? windows_[group].get()
               : nullptr;
  }
  int num_windows() const { return static_cast<int>(windows_.size()); }

  // Called from every shard-loop iteration; cheap when the interval hasn't
  // elapsed.  One caller per interval runs Evaluate().
  void MaybePoll(uint64_t now_ns);
  // Unconditional evaluation (tests drive the ladder deterministically).
  void ForcePoll(uint64_t now_ns);

  uint32_t pressure_pm() const {
    return pressure_pm_.load(std::memory_order_relaxed);
  }
  bool engaged(Action a) const {
    return engaged_[static_cast<int>(a)].load(std::memory_order_relaxed);
  }

  struct Stats {
    RelaxedCounter actions[kActionCount];  // engage transitions per rung
    // Engage transitions by the signal whose per-mille was the maximum.
    RelaxedCounter engaged_by[kSignalCount];
    RelaxedCounter polls;
    RelaxedCounter window_decays;
    // Every poll's raw reading of each signal, and the largest one seen.
    obs::LatencyHistogram signal[kSignalCount];
    RelaxedCounter signal_peak[kSignalCount];
  };
  const Stats& stats() const { return stats_; }
  uint64_t TotalWindowSheds() const;
  uint64_t TotalWindowShedBytes() const;

  // Registers overload.* counters, the per-signal reading histograms
  // (overload.signal.<signal>) and peaks (overload.signal_peak.<signal>),
  // and the pressure gauge.
  void RegisterMetrics(obs::MetricsRegistry& reg);

  const OverloadConfig& config() const { return cfg_; }

 private:
  void Evaluate(uint64_t now_ns);
  void ApplyTransition(Action a, bool now_engaged, uint32_t pressure, Signal source);
  void PushPressureLevel();

  OverloadConfig cfg_;
  OverloadSignals signals_;
  OverloadActions actions_;
  std::vector<std::unique_ptr<SendWindow>> windows_;

  Watermark marks_[kActionCount];           // serialized by busy_
  std::atomic<bool> engaged_[kActionCount];  // cross-thread mirror
  std::atomic<uint32_t> pressure_pm_{0};
  std::atomic<uint64_t> next_poll_ns_{0};
  std::atomic<bool> busy_{false};
  int pressure_level_ = 0;            // last level pushed to backends
  uint64_t last_delivered_ = 0;       // stall-decay bookkeeping
  int stalled_polls_ = 0;
  Stats stats_;
};

}  // namespace overload
}  // namespace ensemble

#endif  // ENSEMBLE_SRC_OVERLOAD_MANAGER_H_
