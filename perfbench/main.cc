// perfbench: the repository's benchmark.  Drives GroupEndpoints over a
// UdpNetwork from one thread, checks every delivery, and prints one JSON
// result line last.
//
//   perfbench --workload pingpong|stream|bulk --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics: set-up time (median of repeated
// warm builds), completed casts per second, latency p50/p90, the verified
// delivery fraction and peak RSS after a fixed number of operations.
// --trace 1 reports per-layer metrics from a traced run (spans timed around
// the calls into each layer, plus deltas of the library's public counters),
// and the traced run's overhead against an untraced one.  Exit status 0
// means every output check passed; 1 means a check failed (the result line
// says which counts); 2 means the run could not be made at all (no sockets,
// or the workload's network backend is not available) and no result is
// printed.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/tracer.h"
#include "perfbench/workloads.h"
#include "src/obs/metrics.h"
#include "src/obs/stats_adapters.h"
#include "src/perf/timer.h"

namespace ensemble {
namespace perfbench {
namespace {

// Set-up timings per run (+1 cold).  Builds take 40-200 us each, and the
// median of a few hundred, taken within 50 ms, moved 20-30% between runs
// with whichever CPUs were fast at the time; thousands, spread over about a
// second and every CPU in turn, repeat within a few percent.
constexpr int kWarmBuilds = 5000;
constexpr int kBuildsPerCpu = 25;  // Builds between moves to the next CPU.
constexpr uint64_t kCastTimeout = 1'000'000'000;
// The traced run: this share of --seconds runs untraced (the overhead
// reference, half before and half after the traced window), the rest traced.
constexpr double kUntracedShare = 0.4;
// pingpong's segments must cover the round trip to within this share.
constexpr double kMaxUnaccounted = 0.10;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      o->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      o->trace = std::atoi(v);
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !o->workload.empty() && o->seconds > 0 &&
         (o->trace == 0 || o->trace == 1);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n == 0 ? 0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// A group whose network fell back to another backend would measure another
// datapath under the workload's name, so such a run is refused.
bool BackendOk(const GroupRun& g, const Shape& shape) {
  if (g.backend_as_asked()) {
    return true;
  }
  std::fprintf(stderr, "perfbench: %s backend unavailable; %s not run\n",
               NetBackendName(shape.net.backend), shape.name.c_str());
  return false;
}

double WarmupSeconds(double seconds) { return std::min(1.0, 0.1 * seconds); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void PrintResult(bool correct, const WindowResult& w, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(w.attempted),
              static_cast<unsigned long long>(w.attempted - w.ops_ok));
  for (size_t i = 0; i < metrics.size(); i++) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

bool WindowCorrect(const GroupRun& g, const WindowResult& w) {
  return !w.stalled && w.attempted > 0 && w.ops_ok == w.attempted &&
         w.verified == w.expected && g.check_failures() == 0;
}

void PrintWindow(const char* label, const GroupRun& g, const WindowResult& w) {
  std::printf("%s: %.3f s window, %llu ops completed, %llu attempted, %llu fully verified, "
              "%llu/%llu deliveries verified, %llu check failures (%llu order)%s\n",
              label, w.seconds, static_cast<unsigned long long>(w.completed),
              static_cast<unsigned long long>(w.attempted),
              static_cast<unsigned long long>(w.ops_ok),
              static_cast<unsigned long long>(w.verified),
              static_cast<unsigned long long>(w.expected),
              static_cast<unsigned long long>(g.check_failures()),
              static_cast<unsigned long long>(g.order_failures()),
              w.stalled ? ", STALLED" : "");
}

// ---- --trace 0: end-to-end metrics -----------------------------------------

int RunEndToEnd(const Shape& shape, const Options& o) {
  // Set-up: network + members, Start, first cast delivered at every member.
  std::vector<double> builds;
  builds.reserve(kWarmBuilds + 1);
  bool setup_ok = true;
  CpuRotation cpus;
  for (int i = 0; i <= kWarmBuilds; i++) {
    if (i % kBuildsPerCpu == 0) {
      cpus.Next();
    }
    uint64_t t0 = NowNanos();
    auto g = std::make_unique<GroupRun>(shape, o.seed, nullptr);
    if (!g->ok()) {
      std::fprintf(stderr, "perfbench: UDP sockets unavailable\n");
      return 2;
    }
    g->Start();
    if (!BackendOk(*g, shape)) {
      return 2;
    }
    setup_ok = g->FirstCast(kCastTimeout) && setup_ok;
    uint64_t t1 = NowNanos();
    g.reset();
    builds.push_back(static_cast<double>(t1 - t0) / 1e9);
  }
  double cold = builds.front();
  double setup = Median(std::vector<double>(builds.begin() + 1, builds.end()));

  GroupRun g(shape, o.seed, nullptr);
  g.Start();
  setup_ok = g.FirstCast(kCastTimeout) && setup_ok;
  // Peak RSS after a fixed amount of work, read before the timed window so
  // that the window's length and speed do not move it.
  setup_ok = g.RunOps(shape.rss_ops) && setup_ok;
  double rss = PeakRssMiB();
  WindowResult w = g.Measure(WarmupSeconds(o.seconds), o.seconds, &cpus, true, nullptr, nullptr);
  if (!BackendOk(g, shape)) {
    return 2;
  }

  std::printf("workload %s: %d members, backend %s, packing %s, %zu B casts, window %zu\n",
              shape.name.c_str(), shape.members, NetBackendName(g.udp().active_backend()),
              shape.pack ? "on" : "off", shape.cast_bytes, shape.window);
  std::printf("setup: cold %.1f us, warm median %.1f us over %d builds\n", cold * 1e6,
              setup * 1e6, kWarmBuilds);
  std::printf("peak RSS %.2f MiB after %llu operations\n", rss,
              static_cast<unsigned long long>(shape.rss_ops));
  PrintWindow("measured", g, w);
  std::vector<double> rates = w.slice_rates;
  std::sort(rates.begin(), rates.end());
  std::printf("%zu slices over %zu CPUs: ops/s min %.0f median %.0f max %.0f; "
              "%llu latency samples\n",
              rates.size(), cpus.size(), rates.empty() ? 0 : rates.front(), Median(rates),
              rates.empty() ? 0 : rates.back(),
              static_cast<unsigned long long>(w.latency_samples));

  bool correct = setup_ok && WindowCorrect(g, w);
  std::vector<Metric> m = {
      {"setup_s", setup, "s"},
      {"casts_per_s", Ratio(static_cast<double>(w.completed), w.seconds), "1/s"},
      {"lat_p50_us", Mean(w.slice_p50_ns) / 1e3, "us"},
      {"lat_p90_us", Mean(w.slice_p90_ns) / 1e3, "us"},
      {"delivered_frac",
       Ratio(static_cast<double>(w.verified), static_cast<double>(w.expected)), "frac"},
      {"peak_rss_mb", rss, "MiB"},
  };
  PrintResult(correct, w, m);
  return correct ? 0 : 1;
}

// ---- --trace 1: per-layer metrics ------------------------------------------

double Delta(const obs::MetricsSnapshot& d, const char* name) {
  return static_cast<double>(d.Value(name));
}

// p50 over the union of several span kinds' samples.  Each kept sample
// stands for seen/kept calls of its kind, so every kind weighs in
// proportion to its calls however many samples its buffer kept.
double MergedP50(SpanTracer& t, std::initializer_list<Seg> segs, bool self) {
  std::vector<std::pair<uint64_t, double>> all;
  double total = 0;
  for (Seg s : segs) {
    const SampleBuffer& b = self ? t.self_samples(s) : t.incl_samples(s);
    double weight = Ratio(static_cast<double>(b.seen()), static_cast<double>(b.kept()));
    for (uint64_t v : b.values()) {
      all.emplace_back(v, weight);
    }
    total += weight * static_cast<double>(b.kept());
  }
  std::sort(all.begin(), all.end());
  double below = 0;
  for (const auto& [v, weight] : all) {
    below += weight;
    if (below >= total / 2) {
      return static_cast<double>(v);
    }
  }
  return 0;
}

int RunTraced(const Shape& shape, const Options& o) {
  double warm = WarmupSeconds(o.seconds);
  bool correct = true;
  CpuRotation cpus;
  // Untraced reference for the overhead ratio, run once before and once
  // after the traced window so drift and first-run effects cancel.
  auto untraced = [&](const char* label) {
    GroupRun g(shape, o.seed, nullptr);
    g.Start();
    correct = g.FirstCast(kCastTimeout) && correct;
    WindowResult w =
        g.Measure(warm, o.seconds * kUntracedShare / 2, &cpus, false, nullptr, nullptr);
    PrintWindow(label, g, w);
    correct = correct && WindowCorrect(g, w);
    return Ratio(static_cast<double>(w.completed), w.seconds);
  };
  {
    GroupRun probe(shape, o.seed, nullptr);
    if (!probe.ok()) {
      std::fprintf(stderr, "perfbench: UDP sockets unavailable\n");
      return 2;
    }
    if (!BackendOk(probe, shape)) {
      return 2;
    }
  }
  double untraced_rate = untraced("untraced (before)");

  SpanTracer tracer;
  obs::MetricsSnapshot before, delta;
  // Everything the report needs from the tracer, read at the window's end
  // (before the drain adds spans of its own).
  std::vector<SpanTracer::Totals> totals;
  uint64_t rounds_done = 0, rounds_ns = 0;
  TracingNetwork::RxCounts rx;
  WindowResult w;
  {
    GroupRun g(shape, o.seed, &tracer);
    g.Start();
    correct = g.FirstCast(kCastTimeout) && correct;
    obs::MetricsRegistry reg;
    obs::RegisterNetworkStats(reg, &g.udp().stats());
    obs::RegisterPoolStats(reg, &g.udp().recv_pool());
    for (int r = 0; r < g.members(); r++) {
      obs::RegisterEndpointStats(reg, &g.member(r).stats());
    }
    obs::RegisterGlobalStats(reg);
    w = g.Measure(
        warm, o.seconds * (1 - kUntracedShare), &cpus, false,
        [&] {
          before = reg.Snapshot();
          tracer.Reset();
          g.tracing()->ResetRx();
        },
        [&] {
          delta = reg.Snapshot().DeltaSince(before);
          for (size_t i = 0; i < kSegCount; i++) {
            totals.push_back(tracer.totals(static_cast<Seg>(i)));
          }
          rounds_done = tracer.rounds();
          rounds_ns = tracer.round_ns();
          rx = g.tracing()->rx();
        });
    PrintWindow("traced", g, w);
    correct = correct && WindowCorrect(g, w);
    if (!BackendOk(g, shape)) {
      return 2;
    }
  }
  untraced_rate = (untraced_rate + untraced("untraced (after)")) / 2;

  double ops = static_cast<double>(w.completed);
  double window_ns = w.seconds * 1e9;
  auto self = [&](Seg s) { return static_cast<double>(totals[static_cast<size_t>(s)].self_ns); };
  auto rself = [&](Seg s) {
    return static_cast<double>(totals[static_cast<size_t>(s)].round_self_ns);
  };
  auto incl = [&](Seg s) { return static_cast<double>(totals[static_cast<size_t>(s)].incl_ns); };

  // Table-1 segments.  pingpong charges only the time inside round trips
  // (cast entry to reply delivery); the other workloads charge the whole
  // window and divide by the operations completed in it.
  bool rounds = shape.reply;
  auto seg = [&](std::initializer_list<Seg> segs) {
    double sum = 0;
    for (Seg s : segs) {
      sum += rounds ? rself(s) : self(s);
    }
    return Ratio(sum, rounds ? static_cast<double>(rounds_done) : ops);
  };
  std::vector<std::pair<const char*, double>> segs = {
      {"seg.dn_stack_ns", seg({Seg::kAppCast, Seg::kAppSend, Seg::kAppFlush})},
      {"seg.dn_trans_ns", seg({Seg::kNetSend, Seg::kNetBcast, Seg::kNetFlush})},
      {"seg.up_trans_ns", seg({Seg::kNetPoll})},
      {"seg.up_stack_ns", seg({Seg::kStackUp})},
      {"seg.timer_ns", seg({Seg::kTimer, Seg::kDrainHook})},
      {"seg.app_ns", seg({Seg::kBenchCb, Seg::kBenchGen})},
  };
  double seg_sum = 0;
  for (auto& [name, v] : segs) {
    seg_sum += v;
  }
  double round_ns = rounds ? Ratio(static_cast<double>(rounds_ns), static_cast<double>(rounds_done))
                           : Ratio(window_ns, ops);
  double unaccounted = round_ns == 0 ? 1 : 1 - seg_sum / round_ns;
  double traced_rate = Ratio(ops, w.seconds);
  if (rounds && unaccounted > kMaxUnaccounted) {
    std::printf("FAIL: segments leave %.1f%% of the round trip unaccounted (limit %.0f%%)\n",
                unaccounted * 100, kMaxUnaccounted * 100);
    correct = false;
  }

  std::printf("\nTable 1 (%s, per %s, traced): %.0f ns\n", shape.name.c_str(),
              rounds ? "round trip" : "cast, window average", round_ns);
  for (auto& [name, v] : segs) {
    std::printf("  %-18s %10.1f ns  %5.1f%%\n", name, v, 100 * Ratio(v, round_ns));
  }
  std::printf("  %-18s %10.1f ns  %5.1f%%\n", "unaccounted", round_ns - seg_sum,
              100 * unaccounted);
  std::printf("\nspans (traced window): calls, incl ns, self ns, self p50 ns\n");
  for (size_t i = 0; i < kSegCount; i++) {
    Seg s = static_cast<Seg>(i);
    std::printf("  %-18s %10llu %14.0f %14.0f %10.0f\n", SegName(s),
                static_cast<unsigned long long>(totals[i].calls), incl(s), self(s),
                tracer.self_samples(s).Quantile(0.5));
  }
  std::printf("\ncounter deltas over the traced window:\n%s", delta.Text(true).c_str());

  double casts_sends = Delta(delta, "ep.casts") + Delta(delta, "ep.sends");
  // Logical messages the endpoints received: each unpacked datagram is one,
  // each packed one is its sub-messages.  Counted per receiver, as the
  // endpoints' bypass_up is.
  double rx_datagrams = static_cast<double>(rx.datagrams);
  double logical_in =
      rx_datagrams - static_cast<double>(rx.packed) + static_cast<double>(rx.submsgs);
  std::printf("\nreceived (traced window): %llu datagrams, %llu packed, %llu sub-messages\n",
              static_cast<unsigned long long>(rx.datagrams),
              static_cast<unsigned long long>(rx.packed),
              static_cast<unsigned long long>(rx.submsgs));
  double sent = Delta(delta, "net.sent");
  double syscalls = Delta(delta, "net.send_syscalls") + Delta(delta, "net.recv_syscalls") +
                    Delta(delta, "net.uring_enters");
  std::vector<Metric> m = {
      {"app.cast_ns_p50", tracer.incl_samples(Seg::kAppCast).Quantile(0.5), "ns"},
      {"app.send_ns_p50", tracer.incl_samples(Seg::kAppSend).Quantile(0.5), "ns"},
      {"stack.dn_self_ns_p50", MergedP50(tracer, {Seg::kAppCast, Seg::kAppSend}, true), "ns"},
      {"stack.up_self_ns_p50", tracer.self_samples(Seg::kStackUp).Quantile(0.5), "ns"},
      {"bypass.dn_hit_frac", Ratio(Delta(delta, "ep.bypass_down"), casts_sends), "frac"},
      {"bypass.up_hit_frac", Ratio(Delta(delta, "ep.bypass_up"), logical_in), "frac"},
      {"trans.wire_bytes_per_cast", Ratio(Delta(delta, "net.bytes_sent"), ops), "B"},
      {"trans.submsgs_per_datagram", Ratio(logical_in, rx_datagrams), "count"},
      {"net.syscalls_per_cast", Ratio(syscalls, ops), "count"},
      {"net.datagrams_per_cast", Ratio(sent, ops), "count"},
      {"net.send_ns_p50", MergedP50(tracer, {Seg::kNetSend, Seg::kNetBcast}, false), "ns"},
      {"net.poll_self_ns_per_cast", Ratio(self(Seg::kNetPoll), ops), "ns"},
      {"timer.busy_frac", Ratio(incl(Seg::kTimer) + incl(Seg::kDrainHook), window_ns), "frac"},
      {"timer.fires_per_s",
       Ratio(static_cast<double>(totals[static_cast<size_t>(Seg::kTimer)].calls), w.seconds),
       "1/s"},
      {"heap.allocs_per_cast",
       Ratio(Delta(delta, "heap.allocations") - static_cast<double>(w.bench_allocs), ops),
       "count"},
      {"heap.bytes_copied_per_cast", Ratio(Delta(delta, "heap.bytes_copied"), ops), "B"},
      {"pool.allocs_per_cast", Ratio(Delta(delta, "pool.allocations"), ops), "count"},
      {"dispatch.layer_invocations_per_cast",
       Ratio(Delta(delta, "dispatch.layer_invocations"), ops), "count"},
  };
  for (auto& [name, v] : segs) {
    m.push_back({name, v, "ns"});
  }
  m.push_back({"trace.round_ns", round_ns, "ns"});
  m.push_back({"trace.unaccounted_frac", unaccounted, "frac"});
  m.push_back({"trace.overhead_frac", untraced_rate == 0 ? 0 : 1 - traced_rate / untraced_rate,
               "frac"});
  std::printf("\nper-layer metrics:\n");
  for (const Metric& x : m) {
    std::printf("  %-36s %14.4f %s\n", x.name.c_str(), x.value, x.unit);
  }
  PrintResult(correct, w, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace ensemble

int main(int argc, char** argv) {
  using namespace ensemble::perfbench;
  Options o;
  Shape shape;
  if (!ParseArgs(argc, argv, &o) || !ShapeFor(o.workload, &shape)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload pingpong|stream|bulk --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  return o.trace == 0 ? RunEndToEnd(shape, o) : RunTraced(shape, o);
}
