#include "src/overload/manager.h"

#include <algorithm>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace ensemble {
namespace overload {

const char* ActionName(Action a) {
  switch (a) {
    case Action::kTightenFlush:
      return "tighten_flush";
    case Action::kShrinkWindow:
      return "shrink_window";
    case Action::kPauseGroup:
      return "pause_group";
    case Action::kKillShed:
      return "kill_shed";
    case Action::kCount:
      break;
  }
  return "unknown";
}

const char* SignalName(Signal s) {
  switch (s) {
    case Signal::kLiveBytes:
      return "live_bytes";
    case Signal::kDispatch:
      return "dispatch";
    case Signal::kTimer:
      return "timer";
    case Signal::kCount:
      break;
  }
  return "unknown";
}

OverloadManager::OverloadManager(const OverloadConfig& cfg, int num_groups)
    : cfg_(cfg) {
  windows_.reserve(num_groups > 0 ? num_groups : 0);
  for (int g = 0; g < num_groups; g++) {
    windows_.push_back(std::make_unique<SendWindow>(cfg_.window_bytes,
                                                    cfg_.window_min_bytes));
  }
  for (int i = 0; i < kActionCount; i++) {
    marks_[i] = Watermark(cfg_.ladder[i].engage_pm, cfg_.ladder[i].disengage_pm);
    engaged_[i].store(false, std::memory_order_relaxed);
  }
}

void OverloadManager::MaybePoll(uint64_t now_ns) {
  uint64_t next = next_poll_ns_.load(std::memory_order_relaxed);
  if (now_ns < next) {
    return;
  }
  if (!next_poll_ns_.compare_exchange_strong(next, now_ns + cfg_.poll_interval,
                                             std::memory_order_acq_rel)) {
    return;  // Another worker won this interval.
  }
  // The CAS elects one poller per interval; the busy flag additionally keeps
  // a slow evaluation from overlapping the next interval's winner.
  if (busy_.exchange(true, std::memory_order_acquire)) {
    return;
  }
  Evaluate(now_ns);
  busy_.store(false, std::memory_order_release);
}

void OverloadManager::ForcePoll(uint64_t now_ns) {
  if (busy_.exchange(true, std::memory_order_acquire)) {
    return;
  }
  Evaluate(now_ns);
  busy_.store(false, std::memory_order_release);
}

uint64_t OverloadManager::TotalWindowSheds() const {
  uint64_t n = 0;
  for (const auto& w : windows_) {
    n += w->sheds();
  }
  return n;
}

uint64_t OverloadManager::TotalWindowShedBytes() const {
  uint64_t n = 0;
  for (const auto& w : windows_) {
    n += w->shed_bytes();
  }
  return n;
}

void OverloadManager::PushPressureLevel() {
  int level = 0;
  if (marks_[static_cast<int>(Action::kKillShed)].engaged()) {
    level = 2;
  } else if (marks_[static_cast<int>(Action::kTightenFlush)].engaged()) {
    level = 1;
  }
  if (level != pressure_level_) {
    pressure_level_ = level;
    if (actions_.set_pressure) {
      actions_.set_pressure(level);
    }
  }
}

void OverloadManager::ApplyTransition(Action a, bool now_engaged,
                                      uint32_t pressure, Signal source) {
  int i = static_cast<int>(a);
  engaged_[i].store(now_engaged, std::memory_order_relaxed);
  if (now_engaged) {
    stats_.actions[i]++;
    stats_.engaged_by[static_cast<int>(source)]++;
    ENS_TRACE(kOverloadEngage, -1, static_cast<uint64_t>(i), pressure);
  } else {
    ENS_TRACE(kOverloadDisengage, -1, static_cast<uint64_t>(i), pressure);
  }

  switch (a) {
    case Action::kTightenFlush:
      PushPressureLevel();
      if (now_engaged && actions_.flush_all) {
        actions_.flush_all();
      }
      break;
    case Action::kShrinkWindow:
      break;  // Per-poll behavior below.
    case Action::kPauseGroup:
      for (int g : cfg_.low_priority_groups) {
        if (SendWindow* w = window(g)) {
          if (now_engaged) {
            w->Pause();
          } else {
            w->Resume();
          }
        }
      }
      break;
    case Action::kKillShed:
      PushPressureLevel();
      if (now_engaged) {
        for (auto& w : windows_) {
          w->Decay();
        }
      }
      break;
    case Action::kCount:
      break;
  }
}

void OverloadManager::Evaluate(uint64_t now_ns) {
  (void)now_ns;
  stats_.polls++;

  // Per-signal per-mille, in Signal order; the largest sets the pressure.
  // Every reading is also recorded, so the distribution behind an engage
  // (a standing backlog or a passing burst) can be read afterwards.
  const std::function<uint64_t()>* read[kSignalCount] = {
      &signals_.live_bytes, &signals_.dispatch_backlog, &signals_.timer_backlog};
  const uint64_t high[kSignalCount] = {cfg_.bytes_high, cfg_.dispatch_high, cfg_.timer_high};
  uint64_t pm[kSignalCount] = {0, 0, 0};
  for (int s = 0; s < kSignalCount; s++) {
    if (!*read[s]) {
      continue;
    }
    uint64_t reading = (*read[s])();
    stats_.signal[s].Observe(reading);
    if (reading > stats_.signal_peak[s].value()) {
      stats_.signal_peak[s] = reading;
    }
    if (high[s] > 0) {
      pm[s] = reading * 1000 / high[s];
    }
  }
  int source = 0;
  for (int s = 1; s < kSignalCount; s++) {
    if (pm[s] > pm[source]) {
      source = s;
    }
  }
  uint32_t pressure = static_cast<uint32_t>(std::min<uint64_t>(pm[source], 10000));
  pressure_pm_.store(pressure, std::memory_order_relaxed);

  for (int i = 0; i < kActionCount; i++) {
    if (marks_[i].Update(pressure)) {
      ApplyTransition(static_cast<Action>(i), marks_[i].engaged(), pressure,
                      static_cast<Signal>(source));
    }
  }

  // Continuous rungs: shrink while engaged, recover while not.
  bool shrinking = marks_[static_cast<int>(Action::kShrinkWindow)].engaged();
  for (auto& w : windows_) {
    if (shrinking) {
      w->Shrink();
    } else {
      w->Widen();
    }
  }

  // Stall decay: in-flight bytes with no delivery progress means releases
  // were lost (dropped traffic, lossy nets).  Halve rather than reset so a
  // merely-slow group keeps some admission.
  uint64_t delivered =
      signals_.delivered_total ? signals_.delivered_total() : 0;
  uint64_t in_flight = 0;
  for (const auto& w : windows_) {
    in_flight += w->in_flight();
  }
  if (in_flight > 0 && delivered == last_delivered_) {
    if (++stalled_polls_ >= cfg_.stall_polls) {
      for (auto& w : windows_) {
        if (w->in_flight() > 0) {
          w->Decay();
          stats_.window_decays++;
        }
      }
      stalled_polls_ = 0;
    }
  } else {
    stalled_polls_ = 0;
  }
  last_delivered_ = delivered;
}

void OverloadManager::RegisterMetrics(obs::MetricsRegistry& reg) {
  for (int i = 0; i < kActionCount; i++) {
    reg.Counter(std::string("overload.action.") +
                    ActionName(static_cast<Action>(i)),
                &stats_.actions[i]);
  }
  for (int s = 0; s < kSignalCount; s++) {
    std::string signal = SignalName(static_cast<Signal>(s));
    reg.Counter("overload.engaged_by." + signal, &stats_.engaged_by[s]);
    reg.HistogramSource("overload.signal." + signal, &stats_.signal[s]);
    reg.Counter("overload.signal_peak." + signal, &stats_.signal_peak[s], obs::Agg::kMax);
  }
  reg.Counter("overload.polls", &stats_.polls);
  reg.Counter("overload.window_decays", &stats_.window_decays);
  reg.CounterFn("overload.window_shed", [this]() { return TotalWindowSheds(); });
  reg.CounterFn("overload.window_shed_bytes",
                [this]() { return TotalWindowShedBytes(); });
  reg.Gauge("overload.pressure_x1000", [this]() {
    return static_cast<int64_t>(pressure_pm());
  });
  reg.Gauge("overload.windows_paused", [this]() {
    int64_t n = 0;
    for (const auto& w : windows_) {
      n += w->paused() ? 1 : 0;
    }
    return n;
  });
}

}  // namespace overload
}  // namespace ensemble
