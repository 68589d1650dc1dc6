// Sustained throughput over real kernel UDP loopback — the repo's first
// throughput axis (the paper's tables are latency-shaped; its optimizations
// were in service of real sustained traffic).
//
// Two tiers are measured:
//
//   1. Network+transport tier: 64-byte messages A→B, sweeping the datapath
//      backend (eager sendmsg/recvfrom, the sendmmsg/recvmmsg staging ring,
//      and the io_uring engine with GSO/GRO — all three in the same run),
//      transport-level message packing, and combinations.  Reported:
//      msgs/sec and syscalls/msg (send + recv syscalls + io_uring enters
//      over delivered messages), straight from NetworkStats.  Each row
//      carries the backend that actually ran (uring rows fall back to mmsg
//      on hosts without io_uring, and say so).
//
//   2. Full MACH GroupEndpoint stack: bypass-compiled casts through the
//      compressed codec, with and without packing+batching.
//
// Emits BENCH_throughput.json next to the binary's working directory.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/app/endpoint.h"
#include "src/net/udp.h"
#include "src/obs/trace.h"
#include "src/perf/timer.h"
#include "src/trans/transport.h"

namespace ensemble {
namespace {

constexpr size_t kMsgSize = 64;      // "Small" per the acceptance criterion.
constexpr size_t kRawMsgs = 40000;   // Messages per raw-tier configuration.
constexpr size_t kStackCasts = 8000; // Casts per stack-tier configuration.
constexpr size_t kWave = 256;        // Messages between drain points.

struct Row {
  std::string section;
  std::string label;
  std::string backend;  // active_backend() — what actually ran.
  size_t sent = 0;
  size_t delivered = 0;
  double secs = 0;
  double msgs_per_sec = 0;
  double syscalls_per_msg = 0;
  obs::MetricsSnapshot net;  // net.* rendered through the registry exporters.
};

void FinishRow(Row* r, const NetworkStats& stats, uint64_t ns) {
  r->net = SnapshotNetworkStats(stats);
  r->secs = static_cast<double>(ns) / 1e9;
  r->msgs_per_sec = r->delivered / r->secs;
  uint64_t syscalls = r->net.Value("net.send_syscalls") +
                      r->net.Value("net.recv_syscalls") +
                      r->net.Value("net.uring_enters");
  r->syscalls_per_msg =
      r->delivered == 0
          ? 0
          : static_cast<double>(syscalls) / static_cast<double>(r->delivered);
}

// ---- tier 1: raw network + transport packer --------------------------------

Row RunRaw(const std::string& label, const NetBackendConfig& cfg,
           size_t pack_window) {
  Row row;
  row.section = "raw";
  row.label = label;
  UdpNetwork net;
  net.set_backend_config(cfg);
  row.backend = NetBackendName(net.active_backend());
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
    return row;
  }

  Transport packer;
  bool packing = pack_window > 1;
  if (packing) {
    packer.EnablePacking(
        [&](const Transport::PackDest&, const Iovec& wire) { net.Send(a, b, wire); },
        pack_window, 60000);
  }

  Bytes payload = Bytes::Allocate(kMsgSize);
  std::memset(payload.MutableData(), 0x5A, kMsgSize);

  PhaseTimer t;
  t.Start();
  size_t sent = 0;
  while (sent < kRawMsgs) {
    size_t n = std::min(kWave, kRawMsgs - sent);
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
    // Drain the wave; a deadline guards against (unlikely) loopback loss.
    uint64_t deadline = NowNanos() + Seconds(1);
    while (got < sent && NowNanos() < deadline) {
      net.Poll();
    }
  }
  t.Stop();
  row.sent = sent;
  row.delivered = got;
  FinishRow(&row, net.stats(), t.total_ns());
  return row;
}

// ---- tier 2: full MACH stack over UDP --------------------------------------

Row RunStack(const std::string& label, const NetBackendConfig& cfg,
             bool batched) {
  Row row;
  row.section = "stack";
  row.label = label;
  UdpNetwork net;
  net.set_backend_config(cfg);
  row.backend = NetBackendName(net.active_backend());
  EndpointConfig config;
  config.mode = StackMode::kMachine;
  config.layers = TenLayerStack();
  config.params.local_loopback = false;
  config.params.mflow_window = 1u << 30;
  config.params.pt2pt_window = 1u << 30;
  config.params.stable_interval = 1u << 30;
  config.timer_interval = 0;
  config.pack_messages = batched;
  config.pack_window = 16;

  GroupEndpoint a(EndpointId{1}, &net, config);
  GroupEndpoint b(EndpointId{2}, &net, config);
  if (!net.ok()) {
    return row;
  }
  size_t got = 0;
  b.OnDeliver([&](const Event& ev) {
    if (ev.type == EventType::kDeliverCast) {
      got++;
    }
  });
  auto view = std::make_shared<View>();
  view->vid = ViewId{0, 1};
  view->members = {EndpointId{1}, EndpointId{2}};
  a.Start(view);
  b.Start(view);

  PhaseTimer t;
  t.Start();
  size_t sent = 0;
  Bytes payload = Bytes::Allocate(kMsgSize);
  std::memset(payload.MutableData(), 0x5A, kMsgSize);
  while (sent < kStackCasts) {
    size_t n = std::min<size_t>(32, kStackCasts - sent);
    for (size_t i = 0; i < n; i++) {
      a.Cast(Iovec(payload));
    }
    sent += n;
    a.Flush();
    uint64_t deadline = NowNanos() + Seconds(1);
    while (got < sent && NowNanos() < deadline) {
      net.Poll();
    }
  }
  t.Stop();
  row.sent = sent;
  row.delivered = got;
  FinishRow(&row, net.stats(), t.total_ns());
  return row;
}

void PrintRows(const std::vector<Row>& rows) {
  std::printf("\n%-24s %-7s %10s %12s %14s %10s %8s %8s %8s\n", "config",
              "backend", "delivered", "msgs/sec", "syscalls/msg", "enters",
              "gso_seg", "gro_seg", "packed");
  for (const Row& r : rows) {
    std::printf("%-24s %-7s %10zu %12.0f %14.3f %10llu %8llu %8llu %8llu\n",
                r.label.c_str(), r.backend.c_str(), r.delivered,
                r.msgs_per_sec, r.syscalls_per_msg,
                static_cast<unsigned long long>(r.net.Value("net.uring_enters")),
                static_cast<unsigned long long>(r.net.Value("net.gso_segments")),
                static_cast<unsigned long long>(r.net.Value("net.gro_segments")),
                static_cast<unsigned long long>(r.net.Value("net.packed_datagrams")));
  }
}

void WriteJson(const std::vector<Row>& rows) {
  obs::JsonWriter w;
  w.BeginObject();
  AppendBenchHeader(w, "throughput");
  w.Key("rows").BeginArray();
  for (const Row& r : rows) {
    w.BeginObject();
    w.KV("section", r.section).KV("config", r.label);
    w.KV("backend", r.backend);
    w.KV("msg_bytes", static_cast<uint64_t>(kMsgSize));
    w.KV("sent", static_cast<uint64_t>(r.sent));
    w.KV("delivered", static_cast<uint64_t>(r.delivered));
    w.KV("seconds", r.secs);
    w.KV("msgs_per_sec", r.msgs_per_sec);
    w.KV("syscalls_per_msg", r.syscalls_per_msg);
    w.Key("net");
    r.net.AppendJson(w);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  WriteJsonFile("BENCH_throughput.json", w.Take());
}

}  // namespace
}  // namespace ensemble

int main(int argc, char** argv) {
  using namespace ensemble;

  // --trace: full tracing on this thread (the EXPERIMENTS.md overhead sweep
  // compares the notrace build, the default run with the gate off, and this).
  bool trace = false;
  for (int i = 1; i < argc; i++) {
    if (std::string(argv[i]) == "--trace") {
      trace = true;
    }
  }
  obs::TraceRing ring(1u << 15, /*shard=*/0);
  if (trace) {
    obs::InstallThreadTraceRing(&ring);
    obs::SetTraceEnabled(true);
  }

  std::printf("Sustained throughput over kernel UDP loopback, %zu-byte messages"
              " (tracing: %s)\n",
              kMsgSize,
              !obs::kTraceCompiledIn ? "compiled out"
              : trace                ? "full"
                                     : "runtime off");
  if (!UdpAvailable()) {
    return 0;
  }

  std::vector<Row> rows;
  std::printf("\n== Tier 1: network + transport (%zu msgs per config) ==\n", kRawMsgs);
  rows.push_back(RunRaw("eager (seed path)", NetBackendConfig::Eager(), 1));
  rows.push_back(RunRaw("sendmmsg=8", NetBackendConfig::Batched(8), 1));
  rows.push_back(RunRaw("sendmmsg=16", NetBackendConfig::Batched(16), 1));
  rows.push_back(RunRaw("uring=16", NetBackendConfig::Uring(16), 1));
  rows.push_back(RunRaw("pack=16", NetBackendConfig::Eager(), 16));
  rows.push_back(RunRaw("sendmmsg=8+pack=8", NetBackendConfig::Batched(8), 8));
  rows.push_back(RunRaw("sendmmsg=16+pack=16", NetBackendConfig::Batched(16), 16));
  rows.push_back(RunRaw("uring=16+pack=16", NetBackendConfig::Uring(16), 16));
  PrintRows(rows);

  double eager = rows[0].msgs_per_sec;
  const Row& mmsg16 = rows[2];
  const Row& uring16 = rows[3];
  std::printf("\nbatching+packing vs eager: %.2fx msgs/sec\n",
              rows[6].msgs_per_sec / eager);
  if (uring16.backend == "uring") {
    std::printf("uring vs mmsg (batch 16): %.2fx msgs/sec, syscalls/msg %.3f vs %.3f\n",
                uring16.msgs_per_sec / mmsg16.msgs_per_sec,
                uring16.syscalls_per_msg, mmsg16.syscalls_per_msg);
  } else {
    std::printf("uring rows fell back to %s (io_uring unavailable here)\n",
                uring16.backend.c_str());
  }
  for (const Row& r : rows) {
    if (r.label.rfind("sendmmsg", 0) == 0 || r.label.rfind("uring", 0) == 0) {
      std::printf("  %-24s syscalls/msg = %.3f (%s 1)\n", r.label.c_str(),
                  r.syscalls_per_msg, r.syscalls_per_msg < 1.0 ? "<" : ">=");
    }
  }

  std::printf("\n== Tier 2: MACH 10-layer stack, bypass casts (%zu casts per config) ==\n",
              kStackCasts);
  std::vector<Row> stack_rows;
  stack_rows.push_back(RunStack("stack eager", NetBackendConfig::Eager(), false));
  stack_rows.push_back(RunStack("stack batched+packed", NetBackendConfig::Batched(16), true));
  stack_rows.push_back(RunStack("stack uring+packed", NetBackendConfig::Uring(16), true));
  PrintRows(stack_rows);
  std::printf("\nstack batched+packed vs eager: %.2fx casts/sec\n",
              stack_rows[1].msgs_per_sec / stack_rows[0].msgs_per_sec);
  std::printf("stack uring+packed vs eager:   %.2fx casts/sec\n",
              stack_rows[2].msgs_per_sec / stack_rows[0].msgs_per_sec);

  rows.insert(rows.end(), stack_rows.begin(), stack_rows.end());
  WriteJson(rows);
  return 0;
}
