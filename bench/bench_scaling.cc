// Sharded-runtime scaling: aggregate msgs/sec and delivery latency across
// worker counts, over real kernel UDP loopback.
//
// Workload: pair groups of MACH endpoints ping-ponging pt2pt sends with a
// fixed in-flight window per pair (the echo runs inside the on_deliver tap on
// the owning worker, so steady-state traffic needs no cross-thread posting).
// When pairs >= workers each pair is shard-local and the kernel only carries
// same-thread loopback; when workers > pairs the runtime splits pairs across
// shards and the same sockets become the cross-shard data plane.
//
// Reported per config: aggregate msgs/sec, p50/p99 delivery latency (from an
// 8-byte send timestamp in each payload), and speedup vs the 1-worker row of
// the same endpoint count.  Emits BENCH_scaling.json, including the host's
// core count — on a single-core host every worker multiplexes one CPU and
// speedups sit near (or below) 1x; the >=2.5x-at-4-workers expectation
// applies to hosts with >=4 physical cores.
//
// `--smoke` runs only 1 and 2 workers over 8 endpoints with sub-second
// windows: CI checks that the runtime still moves traffic and that the
// artifact stays parseable, not the figures.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/app/endpoint.h"
#include "src/net/udp.h"
#include "src/runtime/runtime.h"

namespace ensemble {
namespace {

constexpr size_t kMsgSize = 64;       // 8-byte timestamp + padding.
constexpr int kWindow = 64;           // In-flight messages per pair.
constexpr int kWarmupMs = 200;        // Before each measurement window.
constexpr size_t kMaxSamples = 100000;  // Latency samples kept per member.

struct Row {
  int workers = 0;
  int endpoints = 0;
  double secs = 0;
  uint64_t delivered = 0;
  double msgs_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  double speedup = 1.0;
  obs::MetricsSnapshot net;  // The registry's net.* samples.
};

Bytes StampedPayload() {
  Bytes payload = Bytes::Allocate(kMsgSize);
  std::memset(payload.MutableData(), 0x5A, kMsgSize);
  uint64_t now = NowNanos();
  std::memcpy(payload.MutableData(), &now, sizeof(now));
  return payload;
}

double Percentile(std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return static_cast<double>(sorted[idx]) / 1e3;  // ns -> us.
}

Row RunConfig(int workers, int pairs, int measure_ms) {
  Row row;
  row.workers = workers;
  row.endpoints = 2 * pairs;

  // Per-member latency samples: touched only by the owning worker thread.
  std::vector<std::vector<uint64_t>> samples(static_cast<size_t>(2 * pairs));
  for (auto& s : samples) {
    s.reserve(kMaxSamples);
  }
  // member -> endpoint, latched between Build() and Start() so the echo tap
  // can reply on the owning worker without touching the runtime.
  std::vector<GroupEndpoint*> eps(static_cast<size_t>(2 * pairs), nullptr);

  ShardRuntimeConfig config;
  config.backend = ShardBackend::kUdp;
  config.num_workers = workers;
  config.net = NetBackendConfig::Batched(16);
  config.ep.mode = StackMode::kMachine;
  config.ep.layers = FourLayerStack();
  config.ep.params.local_loopback = false;
  config.ep.params.pt2pt_window = 1u << 30;
  config.ep.params.stable_interval = 1u << 30;
  config.ep.timer_interval = Millis(1);
  config.ep.pack_messages = true;
  config.ep.pack_window = 16;
  config.on_deliver = [&](int member, const Event& ev) {
    if (ev.type != EventType::kDeliverSend) {
      return;
    }
    Bytes flat = ev.payload.Flatten();
    if (flat.size() >= sizeof(uint64_t)) {
      uint64_t sent_at;
      std::memcpy(&sent_at, flat.data(), sizeof(sent_at));
      auto& mine = samples[static_cast<size_t>(member)];
      if (mine.size() < kMaxSamples) {
        mine.push_back(NowNanos() - sent_at);
      }
    }
    // Echo to the pair partner (rank 0 <-> 1), freshly stamped: each delivery
    // regenerates one message, keeping kWindow in flight per pair.
    Rank partner = member % 2 == 0 ? 1 : 0;
    eps[static_cast<size_t>(member)]->Send(partner, Iovec(StampedPayload()));
  };

  ShardRuntime rt(config);
  if (!rt.Build(2 * pairs, /*group_size=*/2)) {
    std::printf("(UDP sockets unavailable; skipping %dw/%dep)\n", workers,
                row.endpoints);
    return row;
  }
  for (int i = 0; i < 2 * pairs; i++) {
    eps[static_cast<size_t>(i)] = &rt.member(i);
  }
  rt.Start();

  // Prime each pair's window from the even member.
  for (int p = 0; p < pairs; p++) {
    rt.PostToMember(2 * p, [](GroupEndpoint& ep) {
      for (int i = 0; i < kWindow; i++) {
        ep.Send(1, Iovec(StampedPayload()));
      }
    });
  }

  // Warm up, then measure a fixed wall-clock window via the delivery counters.
  std::this_thread::sleep_for(std::chrono::milliseconds(kWarmupMs));
  uint64_t delivered0 = rt.total_delivered();
  uint64_t t0 = NowNanos();
  std::this_thread::sleep_for(std::chrono::milliseconds(measure_ms));
  uint64_t delivered1 = rt.total_delivered();
  uint64_t t1 = NowNanos();
  rt.Stop();

  row.secs = static_cast<double>(t1 - t0) / 1e9;
  row.delivered = delivered1 - delivered0;
  row.msgs_per_sec = static_cast<double>(row.delivered) / row.secs;
  obs::MetricsSnapshot all = rt.SnapshotMetrics();
  for (obs::Sample& sample : all.samples) {
    if (sample.name.compare(0, 4, "net.") == 0) {
      row.net.samples.push_back(std::move(sample));
    }
  }

  std::vector<uint64_t> merged;
  for (const auto& s : samples) {
    merged.insert(merged.end(), s.begin(), s.end());
  }
  std::sort(merged.begin(), merged.end());
  row.p50_us = Percentile(merged, 0.50);
  row.p99_us = Percentile(merged, 0.99);
  return row;
}

void WriteJson(const std::vector<Row>& rows) {
  obs::JsonWriter w;
  w.BeginObject();
  AppendBenchHeader(w, "scaling");
  w.KV("msg_bytes", static_cast<uint64_t>(kMsgSize));
  w.KV("window_per_pair", kWindow);
  w.Key("rows").BeginArray();
  for (const Row& r : rows) {
    w.BeginObject();
    w.KV("workers", r.workers).KV("endpoints", r.endpoints);
    w.KV("seconds", r.secs);
    w.KV("delivered", r.delivered);
    w.KV("msgs_per_sec", r.msgs_per_sec);
    w.KV("p50_us", r.p50_us).KV("p99_us", r.p99_us);
    w.KV("speedup_vs_1w", r.speedup);
    w.KV("send_syscalls", r.net.Value("net.send_syscalls"));
    w.KV("recv_syscalls", r.net.Value("net.recv_syscalls"));
    w.Key("net");
    r.net.AppendJson(w);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  WriteJsonFile("BENCH_scaling.json", w.Take());
}

}  // namespace
}  // namespace ensemble

int main(int argc, char** argv) {
  using namespace ensemble;

  bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  unsigned host_cores = std::thread::hardware_concurrency();
  std::printf("Sharded-runtime scaling over kernel UDP loopback "
              "(%zu-byte msgs, window %d/pair, host cores: %u%s)\n",
              kMsgSize, kWindow, host_cores, smoke ? ", smoke" : "");
  if (!UdpAvailable()) {
    return 0;
  }

  const int measure_ms = smoke ? 300 : 3000;
  const std::vector<int> worker_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  const std::vector<int> pair_counts = smoke ? std::vector<int>{4} : std::vector<int>{4, 16};

  std::vector<Row> rows;
  std::printf("\n%8s %10s %12s %10s %10s %10s\n", "workers", "endpoints",
              "msgs/sec", "p50_us", "p99_us", "vs_1w");
  for (int pairs : pair_counts) {
    double base = 0;
    for (int workers : worker_counts) {
      Row row = RunConfig(workers, pairs, measure_ms);
      if (row.delivered == 0) {
        continue;
      }
      if (workers == 1) {
        base = row.msgs_per_sec;
      }
      row.speedup = base > 0 ? row.msgs_per_sec / base : 1.0;
      std::printf("%8d %10d %12.0f %10.1f %10.1f %9.2fx\n", row.workers,
                  row.endpoints, row.msgs_per_sec, row.p50_us, row.p99_us,
                  row.speedup);
      rows.push_back(row);
    }
  }
  if (!rows.empty()) {
    WriteJson(rows);
  }
  if (rows.size() != worker_counts.size() * pair_counts.size()) {
    std::printf("FAIL: %zu of %zu configurations delivered traffic\n", rows.size(),
                worker_counts.size() * pair_counts.size());
    return 1;
  }
  return 0;
}
