#include "src/obs/stats_adapters.h"

#include <string>

#include "src/event/types.h"
#include "src/stack/layer.h"

namespace ensemble {
namespace obs {

void RegisterNetworkStats(MetricsRegistry& reg, const NetworkStats* s,
                          const std::string& tag) {
  reg.Counter("net.sent", &s->sent);
  reg.Counter("net.delivered", &s->delivered);
  reg.Counter("net.dropped", &s->dropped);
  reg.Counter("net.duplicated", &s->duplicated);
  reg.Counter("net.delayed_extra", &s->delayed_extra);
  reg.Counter("net.bytes_sent", &s->bytes_sent);
  reg.Counter("net.send_syscalls", &s->send_syscalls);
  reg.Counter("net.recv_syscalls", &s->recv_syscalls);
  reg.Counter("net.send_batches", &s->send_batches);
  reg.Counter("net.batched_datagrams", &s->batched_datagrams);
  reg.Counter("net.max_send_batch", &s->max_send_batch, Agg::kMax);
  reg.Counter("net.packed_datagrams", &s->packed_datagrams);
  reg.Counter("net.packed_submsgs", &s->packed_submsgs);
  reg.Counter("net.uring_enters", &s->uring_enters);
  reg.Counter("net.uring_sqes", &s->uring_sqes);
  reg.Counter("net.uring_sqe_batches", &s->uring_sqe_batches);
  reg.Counter("net.uring_cqes", &s->uring_cqes);
  reg.Counter("net.uring_cqe_batches", &s->uring_cqe_batches);
  reg.Counter("net.gso_sends", &s->gso_sends);
  reg.Counter("net.gso_segments", &s->gso_segments);
  reg.Counter("net.gro_recvs", &s->gro_recvs);
  reg.Counter("net.gro_segments", &s->gro_segments);
  reg.Counter("net.bufring_refills", &s->bufring_refills);
  // Mode gauge: what the datapath resolved to after probing and fallback,
  // so BENCH/TRACE artifacts record the configuration that actually ran.
  reg.Gauge(tag.empty() ? "net.backend_active" : "net." + tag + ".backend_active",
            [s]() { return static_cast<int64_t>(s->backend_active.value()); });
}

void RegisterWakerStats(MetricsRegistry& reg, const WakerStats* s) {
  reg.Counter("waker.notifies", &s->notifies);
  reg.Counter("waker.coalesced", &s->coalesced);
}

void RegisterPoolStats(MetricsRegistry& reg, const BufferPool* pool) {
  const PoolStats* s = &pool->stats();
  reg.Counter("pool.allocations", &s->allocations);
  reg.Counter("pool.fresh_chunks", &s->fresh_chunks);
  reg.Counter("pool.recycled", &s->recycled);
  reg.Counter("pool.returned", &s->returned);
  // Watermark visibility: live bytes sum across pools (DeltaSince clamps the
  // non-monotonic dips to 0); peak bytes are monotonic per pool, so kMax
  // merges to the process-wide high-water mark.
  reg.CounterFn("pool.live_bytes", [s]() { return s->bytes.live(); });
  reg.CounterFn("pool.peak_bytes", [s]() { return s->bytes.peak(); }, Agg::kMax);
}

void RegisterEndpointStats(MetricsRegistry& reg, const GroupEndpoint::Stats* s) {
  reg.Counter("ep.casts", &s->casts);
  reg.Counter("ep.sends", &s->sends);
  reg.Counter("ep.delivered", &s->delivered);
  reg.Counter("ep.bypass_down", &s->bypass_down);
  reg.Counter("ep.bypass_down_miss", &s->bypass_down_miss);
  reg.Counter("ep.bypass_up", &s->bypass_up);
  reg.Counter("ep.bypass_up_fallback", &s->bypass_up_fallback);
  reg.Counter("ep.packets_in", &s->packets_in);
  reg.Counter("ep.packed_in", &s->packed_in);
  reg.Counter("ep.window_shed", &s->window_shed);
}

void RegisterDispatchStats(MetricsRegistry& reg) {
  const DispatchStats* s = &GlobalDispatchStats();
  reg.Counter("dispatch.layer_invocations", &s->layer_invocations);
  reg.Counter("dispatch.bypass_rule_steps", &s->bypass_rule_steps);
}

void RegisterHeapStats(MetricsRegistry& reg) {
  const HeapBufferStats* s = &GlobalHeapBufferStats();
  reg.Counter("heap.allocations", &s->heap_allocations);
  reg.Counter("heap.frees", &s->heap_frees);
  reg.Counter("heap.bytes_copied", &s->bytes_copied);
  reg.CounterFn("heap.live_bytes", [s]() { return s->bytes.live(); });
  reg.CounterFn("heap.peak_bytes", [s]() { return s->bytes.peak(); }, Agg::kMax);
}

void RegisterBypassPuntStats(MetricsRegistry& reg) {
  const BypassPuntStats* s = &GlobalBypassPuntStats();
  reg.Counter("bypass.down_hits", &s->down_hits);
  reg.Counter("bypass.up_hits", &s->up_hits);
  for (size_t i = 0; i < kLayerIdCount; i++) {
    const char* layer = LayerIdName(static_cast<LayerId>(i));
    reg.Counter(std::string("bypass.punt_down.") + layer, &s->down_by_layer[i]);
    reg.Counter(std::string("bypass.punt_up.") + layer, &s->up_by_layer[i]);
  }
}

void RegisterProtocolStats(MetricsRegistry& reg) {
  const ProtocolStats* s = &GlobalProtocolStats();
  reg.Counter("collect.gossips_sent", &s->gossips_sent);
  reg.Counter("collect.gossips_recv", &s->gossips_recv);
  reg.Counter("collect.stable_advances", &s->stable_advances);
  reg.Gauge("mnak.retrans_depth",
            [s]() { return static_cast<int64_t>(s->retrans_depth.live()); });
}

void RegisterGlobalStats(MetricsRegistry& reg) {
  RegisterDispatchStats(reg);
  RegisterHeapStats(reg);
  RegisterBypassPuntStats(reg);
  RegisterProtocolStats(reg);
}

}  // namespace obs
}  // namespace ensemble
