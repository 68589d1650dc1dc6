// Adaptive shard scheduler under skewed placement: aggregate msgs/sec and
// p99 delivery latency with work stealing on vs off, over kernel UDP
// loopback.
//
// Workload: pair groups of MACH endpoints ping-ponging pt2pt sends with a
// fixed in-flight window per pair (the echo runs inside the on_deliver tap on
// the owning worker).  Placement is deliberately imbalanced 8:1 — shard 0
// starts with eight pairs while every other shard starts with one — via
// ShardRuntimeConfig::initial_shard.  The static run keeps that placement for
// the whole measurement; the stealing run lets underloaded workers pull whole
// endpoints off the hot shard (ownership handoff, sockets travel with their
// kernel queues) until the load ratio flattens.
//
// Emits BENCH_skew.json with both rows, the steal count, the final per-shard
// resident counts, and the stealing : static throughput ratio.  The stealing
// run also records the shard trace rings and exports TRACE_skew.json (Chrome
// trace-event JSON — load it in Perfetto to see the handoff/adopt lifecycle
// bridge shards).  `--smoke` shrinks the run for CI: it checks that both
// configurations complete, that stealing actually moved endpoints, and that
// the trace export parses.

#include <algorithm>
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

constexpr size_t kMsgSize = 64;         // 8-byte timestamp + padding.
constexpr int kWindow = 64;             // In-flight messages per pair.
constexpr size_t kMaxSamples = 100000;  // Latency samples kept per member.

struct SkewRow {
  bool stealing = false;
  int workers = 0;
  int endpoints = 0;
  double secs = 0;
  uint64_t delivered = 0;
  double msgs_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t steals = 0;
  std::vector<int> residents;  // Final endpoints per shard.
  // Registry delta for the run: network, scheduler, waker, pool, ring,
  // endpoint, and bypass hit/punt metrics in one snapshot.
  obs::MetricsSnapshot metrics;
};

constexpr const char* kTracePath = "TRACE_skew.json";

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

// 8:1 placement: shard 0 gets 8 pairs, every other shard gets 1.
std::vector<int> SkewedPlacement(int workers, int* pairs_out) {
  std::vector<int> placement;
  int pairs = 8 + (workers - 1);
  for (int p = 0; p < pairs; p++) {
    int shard = p < 8 ? 0 : 1 + (p - 8);
    placement.push_back(shard);  // Even member of the pair.
    placement.push_back(shard);  // Odd member.
  }
  *pairs_out = pairs;
  return placement;
}

SkewRow RunConfig(int workers, bool stealing, double warmup_secs, double measure_secs) {
  SkewRow row;
  row.stealing = stealing;
  row.workers = workers;

  int pairs = 0;
  std::vector<int> placement = SkewedPlacement(workers, &pairs);
  int n = 2 * pairs;
  row.endpoints = n;

  std::vector<std::vector<uint64_t>> samples(static_cast<size_t>(n));
  for (auto& s : samples) {
    s.reserve(kMaxSamples);
  }
  std::vector<GroupEndpoint*> eps(static_cast<size_t>(n), nullptr);

  ShardRuntimeConfig config;
  config.backend = ShardBackend::kUdp;
  config.num_workers = workers;
  config.net = NetBackendConfig::Batched(16);
  config.initial_shard = placement;
  config.steal = stealing;
  // Trace the stealing run: the steal/handoff/adopt lifecycle is the whole
  // point of this bench, and CI checks the export stays loadable.
  config.trace_enabled = stealing;
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
    Rank partner = member % 2 == 0 ? 1 : 0;
    eps[static_cast<size_t>(member)]->Send(partner, Iovec(StampedPayload()));
  };

  ShardRuntime rt(config);
  if (!rt.Build(n, /*group_size=*/2)) {
    std::printf("(UDP sockets unavailable; skipping)\n");
    return row;
  }
  obs::MetricsSnapshot before = rt.SnapshotMetrics();
  for (int i = 0; i < n; i++) {
    eps[static_cast<size_t>(i)] = &rt.member(i);
  }
  rt.Start();

  // Hot pairs run the full window; the lone pair each cold shard starts with
  // runs window 1 — light background duty, so the sustained load skew matches
  // the 8:1 placement skew instead of every worker saturating.
  for (int p = 0; p < pairs; p++) {
    int window = p < 8 ? kWindow : 1;
    rt.PostToMember(2 * p, [window](GroupEndpoint& ep) {
      for (int i = 0; i < window; i++) {
        ep.Send(1, Iovec(StampedPayload()));
      }
    });
  }

  // Warm up (and, with stealing on, let the placement rebalance), then
  // measure a fixed wall-clock window via the delivery counters.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(warmup_secs * 1000)));
  uint64_t delivered0 = rt.total_delivered();
  uint64_t t0 = NowNanos();
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(measure_secs * 1000)));
  uint64_t delivered1 = rt.total_delivered();
  uint64_t t1 = NowNanos();
  for (int s = 0; s < workers; s++) {
    row.residents.push_back(rt.LoadOf(s).resident);
  }
  rt.Stop();
  row.metrics = rt.SnapshotMetrics().DeltaSince(before);
  if (stealing && rt.WriteTrace(kTracePath)) {
    std::printf("wrote %s\n", kTracePath);
  }

  row.secs = static_cast<double>(t1 - t0) / 1e9;
  row.delivered = delivered1 - delivered0;
  row.msgs_per_sec = static_cast<double>(row.delivered) / row.secs;
  row.steals = rt.steals();

  std::vector<uint64_t> merged;
  for (const auto& s : samples) {
    merged.insert(merged.end(), s.begin(), s.end());
  }
  std::sort(merged.begin(), merged.end());
  row.p50_us = Percentile(merged, 0.50);
  row.p99_us = Percentile(merged, 0.99);
  return row;
}

std::string ResidentsJson(const std::vector<int>& residents) {
  std::string out = "[";
  for (size_t i = 0; i < residents.size(); i++) {
    out += std::to_string(residents[i]);
    if (i + 1 < residents.size()) {
      out += ", ";
    }
  }
  out += "]";
  return out;
}

void WriteJson(const std::vector<SkewRow>& rows, double ratio) {
  obs::JsonWriter w;
  w.BeginObject();
  AppendBenchHeader(w, "skew");
  w.KV("msg_bytes", static_cast<uint64_t>(kMsgSize));
  w.KV("window_per_pair", kWindow);
  w.KV("skew", "8:1");
  w.KV("steal_vs_static", ratio);
  w.Key("rows").BeginArray();
  for (const SkewRow& r : rows) {
    w.BeginObject();
    w.KV("stealing", r.stealing).KV("workers", r.workers).KV("endpoints", r.endpoints);
    w.KV("seconds", r.secs);
    w.KV("delivered", r.delivered);
    w.KV("msgs_per_sec", r.msgs_per_sec);
    w.KV("p50_us", r.p50_us).KV("p99_us", r.p99_us);
    w.KV("steals", r.steals);
    w.Key("final_residents").BeginArray();
    for (int res : r.residents) {
      w.Value(res);
    }
    w.EndArray();
    w.Key("metrics");
    r.metrics.AppendJson(w);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  WriteJsonFile("BENCH_skew.json", w.Take());
}

}  // namespace
}  // namespace ensemble

int main(int argc, char** argv) {
  using namespace ensemble;

  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    }
  }

  unsigned host_cores = std::thread::hardware_concurrency();
  std::printf("Skewed-placement scheduling over kernel UDP loopback "
              "(%zu-byte msgs, window %d/pair, host cores: %u%s)\n",
              kMsgSize, kWindow, host_cores, smoke ? ", smoke" : "");
  if (!UdpAvailable()) {
    return 0;
  }

  const int workers = 4;
  const double warmup = smoke ? 0.15 : 0.5;
  const double measure = smoke ? 0.25 : 1.0;

  std::printf("\n%10s %10s %12s %10s %10s %8s %s\n", "stealing", "endpoints",
              "msgs/sec", "p50_us", "p99_us", "steals", "final_residents");
  std::vector<SkewRow> rows;
  for (bool stealing : {false, true}) {
    SkewRow row = RunConfig(workers, stealing, warmup, measure);
    if (row.delivered == 0) {
      return 0;  // No sockets.
    }
    std::printf("%10s %10d %12.0f %10.1f %10.1f %8llu %s\n",
                stealing ? "on" : "off", row.endpoints, row.msgs_per_sec,
                row.p50_us, row.p99_us,
                static_cast<unsigned long long>(row.steals),
                ResidentsJson(row.residents).c_str());
    rows.push_back(row);
  }

  double ratio = rows[0].msgs_per_sec > 0 ? rows[1].msgs_per_sec / rows[0].msgs_per_sec : 0;
  std::printf("\nstealing vs static: %.2fx aggregate msgs/sec (%llu steals)\n",
              ratio, static_cast<unsigned long long>(rows[1].steals));
  PrintMetricsBlock("registry snapshot (stealing run, delta over the run):",
                    rows[1].metrics);
  // Smoke runs write the JSON too: CI asserts a valid BENCH_skew.json exists
  // after the smoke run.
  WriteJson(rows, ratio);

  // The stealing run exported TRACE_skew.json (only meaningful when the
  // trace path is compiled in); make sure it stays loadable.
  if (obs::kTraceCompiledIn) {
    std::string error;
    if (obs::ValidateJsonFile(kTracePath, &error)) {
      std::printf("%s parses (Chrome trace-event JSON; open in Perfetto)\n", kTracePath);
    } else {
      std::printf("TRACE FAIL: %s invalid: %s\n", kTracePath, error.c_str());
      if (smoke) {
        return 1;
      }
    }
  }
  if (smoke && rows[1].steals == 0) {
    std::printf("SMOKE FAIL: stealing run moved no endpoints\n");
    return 1;
  }
  return 0;
}
