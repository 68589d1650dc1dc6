// Bridges from the existing per-subsystem stats structs into the metrics
// registry.  Each Register* call adds the struct's fields under stable dotted
// names; registering the same struct type once per shard merges naturally
// (Snapshot sums, except explicitly max-aggregated high-water marks).
//
// The structs stay the hot-path representation — layers and backends keep
// bumping their own RelaxedCounter fields with zero extra indirection; the
// registry only holds pointers for snapshot-time reads.  Registered structs
// must outlive the registry (in practice both are owned by the same runtime
// or bench frame).

#ifndef ENSEMBLE_SRC_OBS_STATS_ADAPTERS_H_
#define ENSEMBLE_SRC_OBS_STATS_ADAPTERS_H_

#include "src/app/endpoint.h"
#include "src/bypass/compiler.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/util/pool.h"
#include "src/util/waker.h"

namespace ensemble {
namespace obs {

// net.* counters — one call per backend instance (per shard) — plus the
// backend gauge, `net.<tag>.backend_active` when `tag` is non-empty (one
// shard may have fallen back from uring while another did not).
void RegisterNetworkStats(MetricsRegistry& reg, const NetworkStats* s,
                          const std::string& tag = "");
// waker.* — one call per waker.
void RegisterWakerStats(MetricsRegistry& reg, const WakerStats* s);
// pool.* — one call per pool.
void RegisterPoolStats(MetricsRegistry& reg, const BufferPool* pool);
// ep.* — one call per group member endpoint.
void RegisterEndpointStats(MetricsRegistry& reg, const GroupEndpoint::Stats* s);
// dispatch.* / heap.* / bypass.* read the process-global singletons, so one
// call per registry is enough.
void RegisterDispatchStats(MetricsRegistry& reg);
void RegisterHeapStats(MetricsRegistry& reg);
// bypass.down_hits / bypass.up_hits plus per-culprit-layer punt counters
// (bypass.punt_down.<layer>, bypass.punt_up.<layer>).
void RegisterBypassPuntStats(MetricsRegistry& reg);

// collect.gossips_sent / gossips_recv / stable_advances and the gauge
// mnak.retrans_depth (casts held for retransmission across every mnak).
void RegisterProtocolStats(MetricsRegistry& reg);

// Everything process-global in one call.
void RegisterGlobalStats(MetricsRegistry& reg);

}  // namespace obs
}  // namespace ensemble

#endif  // ENSEMBLE_SRC_OBS_STATS_ADAPTERS_H_
