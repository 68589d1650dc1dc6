// End-to-end overload control: sustained 10x offered load against a sharded
// channel runtime, manager ON vs OFF, against a 1x baseline.
//
// Workload: two 4-member groups whose members alternate between 2 workers;
// each delivery burns a fixed spin (the "application") so worker capacity is
// known and 10x genuinely exceeds it.  The main thread paces cast waves at a
// fixed interval; 1x posts one cast per member per wave, 10x posts ten for
// each member of the flood group.  Every payload carries a send
// timestamp, so delivery latency is measured end to end through whatever
// queueing each configuration allows to build up.
//
// What must reproduce (the acceptance bar, enforced via the exit code):
//   - manager ON holds live payload bytes under the configured byte
//     watermark while OFF balloons past it (bounded memory),
//   - ON keeps delivered p99 within 5x of the 1x baseline (graceful
//     degradation) while OFF's p99 collapses into queueing delay,
//   - every task the pacing loop posted ran by Stop(), on every row, and
//   - every ladder rung fires at least once, visible both as an
//     overload.action.* counter and as a span in TRACE_overload.json.
//
// Emits BENCH_overload.json, which also records the dispatch signal's
// per-poll distribution for every row (the manager reads it each poll); the
// ON run also exports TRACE_overload.json.
// `--smoke` shrinks the measurement windows for CI; the checks still apply.

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
#include "src/obs/trace.h"
#include "src/overload/manager.h"
#include "src/runtime/runtime.h"
#include "src/util/bytes.h"

namespace ensemble {
namespace {

constexpr int kWorkers = 2;
// Two 4-member groups: group 0 is the measured high-priority traffic (always
// paced at 1x), group 1 is low-priority and carries the offered-load
// multiplier.  Graduated degradation means the manager sacrifices group 1
// (shrink, then pause) to keep group 0's delivered tail close to baseline.
constexpr int kMembers = 8;
constexpr int kGroupSize = 4;  // Casts fan out to 3 peers within the group.
constexpr size_t kMsgSize = 512;      // 8-byte timestamp + padding; below
                                      // frag_max so casts never fragment.
constexpr uint64_t kWaveGapUs = 200;  // Pacing interval between cast waves.
constexpr uint64_t kDeliverSpinNs = 5000;  // Per-delivery application work.
constexpr size_t kMaxSamples = 200000;
constexpr const char* kTracePath = "TRACE_overload.json";

// The byte watermark the ON run must respect and the OFF run must blow
// through.  The ladder itself is driven by dispatch backlog (deliveries
// lagging behind admission), so the byte ceiling keeps honest headroom.
constexpr uint64_t kBytesHigh = 4u << 20;
// The ladder trigger: dispatch depth past 64 means deliveries are lagging
// admission badly (two full 24 KiB windows fan out to ~144 entries, while
// paced baseline waves stay under ~48 even when two waves bunch).
constexpr uint64_t kDispatchHigh = 64;

struct Row {
  std::string name;
  bool manager_on = false;
  int load_x = 1;
  double secs = 0;
  uint64_t offered = 0;    // Casts attempted by the pacing loop.
  uint64_t delivered = 0;  // Deliveries observed (3 per admitted cast).
  double goodput_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t peak_live_bytes = 0;  // Max sampled pool+heap live bytes.
  uint64_t window_sheds = 0;     // Casts refused at the send window.
  uint64_t dispatch_sheds = 0;   // Kill-watermark drop-oldest victims.
  uint64_t tasks_posted = 0;     // Cast tasks the pacing loop posted.
  uint64_t tasks_run = 0;        // Of those, tasks that ran by Stop().
  uint64_t actions[overload::kActionCount] = {0};
  // Rung engages by the signal that set the pressure (overload::Signal).
  uint64_t engaged_by[overload::kSignalCount] = {0};
  uint64_t polls = 0;
  // The dispatch signal's reading per manager poll (log2 histogram) and
  // the largest reading.
  obs::Sample dispatch;
  uint64_t dispatch_max = 0;
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

Row RunConfig(const std::string& name, bool manager_on, int load_x,
              double measure_secs, bool write_trace) {
  Row row;
  row.name = name;
  row.manager_on = manager_on;
  row.load_x = load_x;

  std::vector<std::vector<uint64_t>> samples(kMembers);
  for (auto& s : samples) {
    s.reserve(kMaxSamples);
  }

  ShardRuntimeConfig config;
  config.backend = ShardBackend::kChannel;
  config.num_workers = kWorkers;
  config.ep.mode = StackMode::kMachine;
  // A reliability stack WITH stability collection (no total ordering, which
  // would confound the latency story): without collect, mnak retains every
  // cast forever and live bytes grow with total traffic instead of tracking
  // genuine in-flight load.
  config.ep.layers = {LayerId::kTop,    LayerId::kCollect, LayerId::kFrag,
                      LayerId::kPt2ptw, LayerId::kMflow,   LayerId::kPt2pt,
                      LayerId::kMnak,   LayerId::kBottom};
  config.ep.params.local_loopback = false;
  // The overload subsystem is the flow control under test: open the stack's
  // own credit windows wide so mflow/pt2ptw ack clocking can't queue casts
  // inside the stack and confound the measured latency.
  config.ep.params.mflow_window = 1u << 20;
  config.ep.params.pt2pt_window = 1u << 20;
  config.ep.timer_interval = Millis(1);
  config.trace_enabled = write_trace;
  config.overload.enabled = manager_on;
  config.overload.poll_interval = Micros(200);
  config.overload.bytes_high = kBytesHigh;
  config.overload.dispatch_high = kDispatchHigh;
  config.overload.window_bytes = 24u << 10;
  config.overload.window_min_bytes = 4u << 10;
  // Kill-shed stays a memory backstop, not a latency tool: channel casts are
  // mnak-reliable, so every drop comes back as a timer-paced retransmission.
  config.overload.kill_dispatch_keep = 1024;
  config.overload.low_priority_groups = {1};  // The flood group is expendable.
  // Narrow hysteresis bands: the steady shrunk-window state sits near 500
  // per-mille, and the upper rungs must release as soon as depth falls back
  // there, not hold through it (a held pause_group stalls admission and puts
  // milliseconds on the delivered tail).
  config.overload.ladder[0] = {500, 450};  // tighten_flush
  config.overload.ladder[1] = {600, 520};  // shrink_window
  config.overload.ladder[2] = {750, 600};  // pause_group
  config.overload.ladder[3] = {950, 800};  // kill_shed
  config.on_deliver = [&](int member, const Event& ev) {
    if (ev.type != EventType::kDeliverCast) {
      return;
    }
    Bytes flat = ev.payload.Flatten();
    if (member < kGroupSize && flat.size() >= sizeof(uint64_t)) {
      // Only the high-priority group's deliveries enter the latency story.
      uint64_t sent_at;
      std::memcpy(&sent_at, flat.data(), sizeof(sent_at));
      auto& mine = samples[static_cast<size_t>(member)];
      if (mine.size() < kMaxSamples) {
        mine.push_back(NowNanos() - sent_at);
      }
    }
    // The application: a fixed spin per delivery, so capacity is known and a
    // 10x offered load genuinely exceeds what the workers can absorb.
    uint64_t until = NowNanos() + kDeliverSpinNs;
    while (NowNanos() < until) {
    }
  };

  // Both groups span both workers, so the flood group's deliveries compete
  // with the measured group's for the same worker time.  Whole-group
  // placement would put each group alone on a worker, and casts reach only
  // their own group: the flood would never touch the measured group.
  for (int m = 0; m < kMembers; m++) {
    config.initial_shard.push_back(m % kWorkers);
  }
  std::atomic<uint64_t> tasks_run{0};
  ShardRuntime rt(config);
  if (!rt.Build(kMembers, kGroupSize)) {
    std::printf("build failed for %s\n", name.c_str());
    return row;
  }
  obs::MetricsSnapshot before = rt.SnapshotMetrics();
  rt.Start();

  // Paced offered load: every wave posts `load_x` casts per member, then
  // sleeps the gap.  The live-bytes envelope is sampled once per wave.
  uint64_t heap_base = GlobalHeapBufferStats().bytes.live();
  uint64_t t0 = NowNanos();
  uint64_t deadline = t0 + static_cast<uint64_t>(measure_secs * 1e9);
  while (NowNanos() < deadline) {
    for (int m = 0; m < kMembers; m++) {
      // The measured group always runs at 1x; the flood group carries the
      // offered-load multiplier.
      int casts = m < kGroupSize ? 1 : load_x;
      rt.PostToMember(m, [casts, &tasks_run](GroupEndpoint& ep) {
        for (int i = 0; i < casts; i++) {
          ep.Cast(Iovec(StampedPayload()));
        }
        tasks_run.fetch_add(1, std::memory_order_relaxed);
      });
      row.tasks_posted++;
      row.offered += static_cast<uint64_t>(casts);
    }
    uint64_t live = GlobalHeapBufferStats().bytes.live();
    live = live > heap_base ? live - heap_base : 0;
    row.peak_live_bytes = std::max(row.peak_live_bytes, live);
    std::this_thread::sleep_for(std::chrono::microseconds(kWaveGapUs));
  }
  uint64_t t1 = NowNanos();
  // Let in-flight traffic land (OFF runs carry a deep backlog) so latency
  // percentiles include the queue tail, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(manager_on ? 50 : 500));
  rt.Stop();
  if (write_trace && rt.WriteTrace(kTracePath)) {
    std::printf("wrote %s\n", kTracePath);
  }

  row.secs = static_cast<double>(t1 - t0) / 1e9;
  row.delivered = rt.total_delivered();
  row.goodput_per_sec = static_cast<double>(row.delivered) / row.secs;
  row.tasks_run = tasks_run.load(std::memory_order_relaxed);
  obs::MetricsSnapshot snap = rt.SnapshotMetrics().DeltaSince(before);
  row.window_sheds = snap.Value("ep.window_shed");
  row.dispatch_sheds = snap.Value("overload.dispatch_shed");
  row.polls = snap.Value("overload.polls");
  for (int a = 0; a < overload::kActionCount; a++) {
    std::string key = std::string("overload.action.") +
                      overload::ActionName(static_cast<overload::Action>(a));
    row.actions[a] = snap.Value(key);
  }
  for (int s = 0; s < overload::kSignalCount; s++) {
    std::string key = std::string("overload.engaged_by.") +
                      overload::SignalName(static_cast<overload::Signal>(s));
    row.engaged_by[s] = snap.Value(key);
  }
  if (const obs::Sample* dispatch = snap.Find("overload.signal.dispatch")) {
    row.dispatch = *dispatch;
  }
  row.dispatch_max = snap.Value("overload.signal_peak.dispatch");

  std::vector<uint64_t> merged;
  for (const auto& s : samples) {
    merged.insert(merged.end(), s.begin(), s.end());
  }
  std::sort(merged.begin(), merged.end());
  row.p50_us = Percentile(merged, 0.50);
  row.p99_us = Percentile(merged, 0.99);
  return row;
}

void PrintRow(const Row& r) {
  std::printf("%-12s %5dx %12.0f %10.1f %10.1f %10.2f %8llu %8llu %8llu\n",
              r.name.c_str(), r.load_x, r.goodput_per_sec, r.p50_us, r.p99_us,
              static_cast<double>(r.peak_live_bytes) / (1 << 20),
              static_cast<unsigned long long>(r.window_sheds),
              static_cast<unsigned long long>(r.dispatch_sheds),
              static_cast<unsigned long long>(r.tasks_posted - r.tasks_run));
}

void WriteJson(const std::vector<Row>& rows, const std::vector<std::string>& checks,
               bool all_passed) {
  obs::JsonWriter w;
  w.BeginObject();
  AppendBenchHeader(w, "overload");
  w.KV("msg_bytes", static_cast<uint64_t>(kMsgSize));
  w.KV("members", kMembers).KV("workers", kWorkers);
  w.KV("deliver_spin_ns", kDeliverSpinNs);
  w.KV("bytes_high", kBytesHigh);
  w.Key("rows").BeginArray();
  for (const Row& r : rows) {
    w.BeginObject();
    w.KV("name", r.name);
    w.KV("manager_on", r.manager_on ? 1 : 0);
    w.KV("load_x", r.load_x);
    w.KV("seconds", r.secs);
    w.KV("offered_casts", r.offered);
    w.KV("delivered", r.delivered);
    w.KV("goodput_per_sec", r.goodput_per_sec);
    w.KV("p50_us", r.p50_us).KV("p99_us", r.p99_us);
    w.KV("peak_live_bytes", r.peak_live_bytes);
    w.KV("window_sheds", r.window_sheds);
    w.KV("dispatch_sheds", r.dispatch_sheds);
    w.KV("tasks_posted", r.tasks_posted).KV("tasks_run", r.tasks_run);
    w.KV("overload_polls", r.polls);
    // p50/p99 are log2 bucket upper bounds; mean and max are exact.
    w.Key("dispatch_signal").BeginObject();
    w.KV("polls", r.dispatch.count).KV("mean", r.dispatch.Mean());
    w.KV("p50_le", r.dispatch.Percentile(0.50)).KV("p99_le", r.dispatch.Percentile(0.99));
    w.KV("max", r.dispatch_max);
    w.Key("polls_by_bucket_le").BeginObject();
    for (size_t i = 0; i < r.dispatch.buckets.size(); i++) {
      if (r.dispatch.buckets[i] > 0) {
        w.KV(std::to_string(obs::LatencyHistogram::BucketCeil(i)), r.dispatch.buckets[i]);
      }
    }
    w.EndObject();
    w.EndObject();
    w.Key("actions").BeginObject();
    for (int a = 0; a < overload::kActionCount; a++) {
      w.KV(overload::ActionName(static_cast<overload::Action>(a)), r.actions[a]);
    }
    w.EndObject();
    w.Key("engaged_by").BeginObject();
    for (int s = 0; s < overload::kSignalCount; s++) {
      w.KV(overload::SignalName(static_cast<overload::Signal>(s)), r.engaged_by[s]);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("checks").BeginArray();
  for (const std::string& c : checks) {
    w.Value(c);
  }
  w.EndArray();
  w.KV("passed", all_passed ? 1 : 0);
  w.EndObject();
  WriteJsonFile("BENCH_overload.json", w.Take());
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
  const double base_secs = smoke ? 0.3 : 1.0;
  const double load_secs = smoke ? 0.5 : 1.5;

  std::printf(
      "Overload control at sustained 10x offered load (channel backend, "
      "%d members / %d workers, %zu-byte casts, %lluns per-delivery spin%s)\n",
      kMembers, kWorkers, kMsgSize,
      static_cast<unsigned long long>(kDeliverSpinNs), smoke ? ", smoke" : "");
  std::printf("\n%-12s %6s %12s %10s %10s %10s %8s %8s %8s\n", "config", "load",
              "goodput/s", "p50_us", "p99_us", "peak_MiB", "winshed", "qshed",
              "unrun");

  std::vector<Row> rows;
  rows.push_back(RunConfig("baseline", /*manager_on=*/true, /*load_x=*/1,
                           base_secs, /*write_trace=*/false));
  rows.push_back(RunConfig("overload_on", /*manager_on=*/true, /*load_x=*/10,
                           load_secs, /*write_trace=*/true));
  rows.push_back(RunConfig("overload_off", /*manager_on=*/false, /*load_x=*/10,
                           load_secs, /*write_trace=*/false));
  for (const Row& r : rows) {
    PrintRow(r);
  }
  const obs::Sample& signal = rows[0].dispatch;
  std::printf("\nbaseline dispatch signal over %llu polls (dispatch_high %llu): mean %.1f, "
              "p50 <= %llu, p99 <= %llu, max %llu\n",
              static_cast<unsigned long long>(signal.count),
              static_cast<unsigned long long>(kDispatchHigh), signal.Mean(),
              static_cast<unsigned long long>(signal.Percentile(0.50)),
              static_cast<unsigned long long>(signal.Percentile(0.99)),
              static_cast<unsigned long long>(rows[0].dispatch_max));
  const Row& base = rows[0];
  const Row& on = rows[1];
  const Row& off = rows[2];

  // The acceptance bar, recorded in the artifact and enforced via exit code.
  std::vector<std::string> checks;
  bool ok = true;
  auto check = [&](bool passed, const std::string& what) {
    checks.push_back((passed ? "PASS: " : "FAIL: ") + what);
    std::printf("%s\n", checks.back().c_str());
    ok = ok && passed;
  };
  std::printf("\n");
  check(on.delivered > 0 && base.delivered > 0, "both runs made progress");
  for (const Row& r : rows) {
    check(r.tasks_run == r.tasks_posted,
          "every task the pacing loop posted ran (" + r.name + ")");
  }
  check(on.peak_live_bytes < kBytesHigh,
        "manager ON holds live bytes under the byte watermark");
  check(off.peak_live_bytes > on.peak_live_bytes,
        "manager OFF queues more memory than ON at the same load");
  check(on.window_sheds > 0, "send windows shed at the source under 10x");
  bool all_actions = true;
  for (int a = 0; a < overload::kActionCount; a++) {
    all_actions = all_actions && on.actions[a] > 0;
  }
  check(all_actions, "every ladder rung engaged at least once");
  double limit_us = 5.0 * base.p99_us;
  check(base.p99_us > 0 && on.p99_us <= limit_us,
        "manager ON p99 within 5x of the 1x baseline (" +
            std::to_string(on.p99_us) + "us vs limit " +
            std::to_string(limit_us) + "us)");
  check(off.p99_us > on.p99_us,
        "manager OFF p99 degrades past ON at the same load");

  WriteJson(rows, checks, ok);
  return ok ? 0 : 1;
}
