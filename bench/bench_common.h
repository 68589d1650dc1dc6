// Shared output helpers for the table/figure benches.
//
// Absolute numbers are machine-dependent (the paper used 300 MHz
// UltraSPARCs; see EXPERIMENTS.md): what must reproduce is the *shape* —
// which configuration wins and by roughly what factor — so every bench
// prints measured values next to the paper's and the ratios next to each
// other.

#ifndef ENSEMBLE_BENCH_BENCH_COMMON_H_
#define ENSEMBLE_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <sys/utsname.h>

#include "src/net/udp.h"
#include "src/net/udp_uring.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/stats_adapters.h"
#include "src/perf/latency_harness.h"

namespace ensemble {

// ---- Common artifact header ------------------------------------------------
//
// Every bench_* artifact opens with the same "header" block so results files
// are comparable across machines and traceable to the tree that produced
// them: git SHA (configure-time), host core count, kernel release, and
// whether io_uring is available on this host (if not, uring configs run on
// the mmsg fallback).

#ifndef ENSEMBLE_GIT_SHA
#define ENSEMBLE_GIT_SHA "unknown"
#endif

inline std::string KernelRelease() {
  struct utsname u;
  if (uname(&u) == 0) {
    return u.release;
  }
  return "unknown";
}

// Writes the common header block under "header" into an already-open object:
//   {"header": {"bench": ..., "git_sha": ..., "host_cores": ...,
//               "kernel": ..., "uring_available": ...}, ...}
inline void AppendBenchHeader(obs::JsonWriter& w, const std::string& bench_name) {
  w.Key("header");
  w.BeginObject();
  w.KV("bench", bench_name);
  w.KV("git_sha", ENSEMBLE_GIT_SHA);
  w.KV("host_cores", static_cast<uint64_t>(std::thread::hardware_concurrency()));
  w.KV("kernel", KernelRelease());
  w.KV("uring_available", UringEngine::Available());
  w.EndObject();
}

// ---- Registry-backed emission ----------------------------------------------
//
// Benches no longer hand-print stats-struct fields or hand-maintain fprintf
// JSON format strings.  A run's ad-hoc structs get wrapped in a one-off
// registry (same adapters and names the sharded runtime registers under) and
// rendered through the snapshot exporters; result files go through JsonWriter
// and are validated before they hit disk.

// One-off snapshot: register whatever the run produced, snapshot, done.  The
// registered structs only need to outlive this call.
inline obs::MetricsSnapshot SnapshotWith(
    const std::function<void(obs::MetricsRegistry&)>& register_fn) {
  obs::MetricsRegistry reg;
  register_fn(reg);
  return reg.Snapshot();
}

inline obs::MetricsSnapshot SnapshotNetworkStats(const NetworkStats& s) {
  return SnapshotWith([&](obs::MetricsRegistry& r) { obs::RegisterNetworkStats(r, &s); });
}

// Titled human-readable block via the snapshot text exporter.
inline void PrintMetricsBlock(const std::string& title, const obs::MetricsSnapshot& snap) {
  std::printf("\n%s\n%s", title.c_str(), snap.Text().c_str());
}

// Validates then writes a finished JSON document.  A malformed artifact fails
// loudly here instead of poisoning downstream parsing.
inline bool WriteJsonFile(const std::string& path, const std::string& json) {
  std::string error;
  if (!obs::ValidateJson(json, &error)) {
    std::printf("INVALID JSON for %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

// Kernel-UDP availability probe shared by every socket bench (prints the
// standard skip line the CI scripts grep for).
inline bool UdpAvailable() {
  UdpNetwork probe;
  probe.Attach(EndpointId{1}, [](const Packet&) {});
  if (!probe.ok()) {
    std::printf("(UDP sockets unavailable in this environment)\n");
    return false;
  }
  return true;
}

// ---- Latency-table helpers (paper-shape comparisons) -----------------------

// Best-of-N: element-wise minimum across repeated measurements — the
// standard defence against scheduler noise on a shared core.
inline PhaseLatency MeasureBest(const LatencyConfig& config, int attempts) {
  PhaseLatency best = MeasureCodeLatency(config);
  for (int i = 1; i < attempts; i++) {
    PhaseLatency lat = MeasureCodeLatency(config);
    best.down_stack_ns = std::min(best.down_stack_ns, lat.down_stack_ns);
    best.down_trans_ns = std::min(best.down_trans_ns, lat.down_trans_ns);
    best.up_trans_ns = std::min(best.up_trans_ns, lat.up_trans_ns);
    best.up_stack_ns = std::min(best.up_stack_ns, lat.up_stack_ns);
  }
  return best;
}

inline void PrintPhaseTable(const std::string& title,
                            const std::vector<std::string>& mode_names,
                            const std::vector<PhaseLatency>& lat) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%-16s", "(ns/msg)");
  for (const auto& m : mode_names) {
    std::printf("%12s", m.c_str());
  }
  std::printf("\n");
  auto row = [&](const char* name, auto getter) {
    std::printf("%-16s", name);
    for (const auto& l : lat) {
      std::printf("%12.1f", getter(l));
    }
    std::printf("\n");
  };
  row("Down Stack", [](const PhaseLatency& l) { return l.down_stack_ns; });
  row("Down Transport", [](const PhaseLatency& l) { return l.down_trans_ns; });
  row("Up Transport", [](const PhaseLatency& l) { return l.up_trans_ns; });
  row("Up Stack", [](const PhaseLatency& l) { return l.up_stack_ns; });
  row("Total", [](const PhaseLatency& l) { return l.total_ns(); });
}

inline void PrintRatios(const std::vector<std::string>& mode_names,
                        const std::vector<PhaseLatency>& lat,
                        const std::vector<double>& paper_totals_us, size_t baseline_index) {
  std::printf("\n%-10s %14s %14s %18s %18s\n", "mode", "total(ns)", "vs " "baseline",
              "paper total(us)", "paper ratio");
  for (size_t i = 0; i < lat.size(); i++) {
    std::printf("%-10s %14.1f %14.2f %18.1f %18.2f\n", mode_names[i].c_str(),
                lat[i].total_ns(), lat[i].total_ns() / lat[baseline_index].total_ns(),
                paper_totals_us[i], paper_totals_us[i] / paper_totals_us[baseline_index]);
  }
}

}  // namespace ensemble

#endif  // ENSEMBLE_BENCH_BENCH_COMMON_H_
