// Repros for two defects that keep workloads out of the benchmark (see
// perfbench/NOTES.md).  Each prints what it observed and whether the defect
// reproduced; the exit status is 1 while either still reproduces.
//
//   perfbench_defects
//
// 1. Cross-group leak on a multi-group ShardRuntime: 2 groups of 2 members
//    on one worker over UDP; member 0 casts 10 times.  In-group delivery
//    means members 2 and 3 (the other group) deliver nothing.
// 2. local_loopback=false: 2 MACH (then FUNC) members over one UdpNetwork;
//    rank 1 casts 10 times and rank 0 should deliver all 10 within 2 s.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "src/app/endpoint.h"
#include "src/net/udp.h"
#include "src/perf/timer.h"
#include "src/runtime/runtime.h"
#include "src/stack/engine.h"

namespace ensemble {
namespace {

constexpr int kCasts = 10;

// The runtime's workers deliver; this thread only watches their counters.
void PollSleep() { std::this_thread::sleep_for(std::chrono::milliseconds(1)); }

bool CrossGroupLeak(ShardBackend backend, int workers) {
  ShardRuntimeConfig config;
  config.backend = backend;
  config.num_workers = workers;
  config.ep.mode = StackMode::kMachine;
  ShardRuntime rt(config);
  if (!rt.Build(4, /*group_size=*/2)) {
    std::printf("  (backend unavailable)\n");
    return false;
  }
  rt.Start();
  for (int i = 0; i < kCasts; i++) {
    rt.PostToMember(0, [](GroupEndpoint& ep) { ep.Cast(Iovec(Bytes::CopyString("leak?"))); });
  }
  uint64_t deadline = NowNanos() + Seconds(1);
  while (NowNanos() < deadline && rt.delivered(1) < kCasts) {
    PollSleep();
  }
  // Give stray cross-group traffic the same chance to arrive.
  uint64_t settle = NowNanos() + Millis(200);
  while (NowNanos() < settle) {
    PollSleep();
  }
  rt.Stop();
  std::printf("  %d worker(s), %s: delivered per member = [%llu %llu | %llu %llu]\n", workers,
              backend == ShardBackend::kUdp ? "udp" : "channel",
              static_cast<unsigned long long>(rt.delivered(0)),
              static_cast<unsigned long long>(rt.delivered(1)),
              static_cast<unsigned long long>(rt.delivered(2)),
              static_cast<unsigned long long>(rt.delivered(3)));
  return rt.delivered(2) > 0 || rt.delivered(3) > 0;
}

// Rank `caster` of an `n`-member group casts kCasts times; returns the
// fewest casts any other member delivered within 2 s.
int NoLoopbackCasts(StackMode mode, std::vector<LayerId> layers, int n, int caster,
                    VTime timer_interval, int* self) {
  UdpNetwork net;
  EndpointConfig config;
  config.mode = mode;
  config.layers = std::move(layers);
  config.params.local_loopback = false;
  config.timer_interval = timer_interval;
  std::vector<std::unique_ptr<GroupEndpoint>> eps;
  std::vector<int> got(static_cast<size_t>(n), 0);
  auto view = std::make_shared<View>();
  view->vid = ViewId{0, 1};
  for (int r = 0; r < n; r++) {
    eps.push_back(std::make_unique<GroupEndpoint>(EndpointId{static_cast<uint64_t>(r + 1)},
                                                  &net, config));
    eps.back()->OnDeliver([&got, r](const Event& ev) {
      got[static_cast<size_t>(r)] += ev.type == EventType::kDeliverCast ? 1 : 0;
    });
    view->members.push_back(EndpointId{static_cast<uint64_t>(r + 1)});
  }
  if (!net.ok()) {
    return -1;
  }
  for (auto& ep : eps) {
    ep->Start(view);
  }
  for (int i = 0; i < kCasts; i++) {
    eps[static_cast<size_t>(caster)]->Cast(Iovec(Bytes::CopyString("no loopback")));
  }
  eps[static_cast<size_t>(caster)]->Flush();
  auto fewest = [&] {
    int m = kCasts;
    for (int r = 0; r < n; r++) {
      if (r != caster) {
        m = std::min(m, got[static_cast<size_t>(r)]);
      }
    }
    return m;
  };
  uint64_t deadline = NowNanos() + Seconds(2);
  while (fewest() < kCasts && NowNanos() < deadline) {
    net.Poll();
  }
  *self = got[static_cast<size_t>(caster)];
  return fewest();
}

bool NoLoopback() {
  struct Case {
    const char* stack;
    std::vector<LayerId> layers;
    StackMode mode;
    int n;
    int caster;
    VTime timers;
  };
  std::vector<Case> cases = {
      {"10-layer", TenLayerStack(), StackMode::kMachine, 2, 0, Millis(1)},
      {"10-layer", TenLayerStack(), StackMode::kMachine, 2, 1, Millis(1)},
      {"10-layer", TenLayerStack(), StackMode::kFunctional, 2, 1, Millis(1)},
      {"10-layer", TenLayerStack(), StackMode::kMachine, 4, 1, Millis(1)},
      {"10-layer", TenLayerStack(), StackMode::kMachine, 4, 1, 0},
      {"4-layer", FourLayerStack(), StackMode::kMachine, 2, 1, Millis(1)},
      {"4-layer", FourLayerStack(), StackMode::kMachine, 4, 2, 0},
  };
  bool lost = false;
  // The same on a one-group ShardRuntime (the path bench_scaling drives).
  for (int workers : {1, 2}) {
    ShardRuntimeConfig config;
    config.num_workers = workers;
    config.ep.mode = StackMode::kMachine;
    config.ep.params.local_loopback = false;
    ShardRuntime rt(config);
    if (!rt.Build(4)) {
      continue;
    }
    rt.Start();
    for (int i = 0; i < kCasts; i++) {
      rt.PostToMember(1, [](GroupEndpoint& ep) { ep.Cast(Iovec(Bytes::CopyString("x"))); });
    }
    uint64_t deadline = NowNanos() + Seconds(2);
    auto fewest = [&] {
      return std::min({rt.delivered(0), rt.delivered(2), rt.delivered(3)});
    };
    while (fewest() < kCasts && NowNanos() < deadline) {
      PollSleep();
    }
    rt.Stop();
    std::printf("  runtime, %d worker(s), 4 members, member 1 casts: every other member "
                "delivered >= %llu of %d\n",
                workers, static_cast<unsigned long long>(fewest()), kCasts);
    lost = lost || fewest() < static_cast<uint64_t>(kCasts);
  }
  for (const Case& c : cases) {
    int self = 0;
    int fewest = NoLoopbackCasts(c.mode, c.layers, c.n, c.caster, c.timers, &self);
    std::printf("  %s %s, %d members, rank %d casts, timers %s: every other member "
                "delivered >= %d of %d (caster itself %d)\n",
                c.stack, StackModeName(c.mode), c.n, c.caster, c.timers ? "1 ms" : "off",
                fewest, kCasts, self);
    lost = lost || (fewest >= 0 && fewest < kCasts);
  }
  return lost;
}

}  // namespace
}  // namespace ensemble

int main() {
  using namespace ensemble;
  std::printf("defect 1: casts leak across groups of one ShardRuntime\n");
  bool leak = CrossGroupLeak(ShardBackend::kUdp, 1);
  leak = CrossGroupLeak(ShardBackend::kUdp, 2) || leak;
  leak = CrossGroupLeak(ShardBackend::kChannel, 1) || leak;
  std::printf("  -> %s\n", leak ? "REPRODUCED" : "not reproduced");

  std::printf("defect 2: local_loopback=false loses casts from ranks other than 0\n");
  bool lost = NoLoopback();
  std::printf("  -> %s\n", lost ? "REPRODUCED" : "not reproduced");
  return leak || lost ? 1 : 0;
}
