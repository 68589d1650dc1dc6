#include "src/net/shard_network.h"

#include "src/obs/stats_adapters.h"
#include "src/obs/trace.h"

namespace ensemble {

void ShardNetwork::IdleWait(VTime max_wait) { waker_.WaitFor(IdleBudget(max_wait)); }

void ShardNetwork::RegisterMetrics(obs::MetricsRegistry& reg, const std::string& tag) {
  obs::RegisterNetworkStats(reg, &stats_, tag);
  obs::RegisterWakerStats(reg, &waker_.stats());
}

size_t ShardNetwork::RunDueTimers() {
  size_t fired = timers_.RunDue(NowNanos());
  if (fired > 0) {
    ENS_TRACE(kTimerFire, -1, fired, 0);
  }
  return fired;
}

}  // namespace ensemble
