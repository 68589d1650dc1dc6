#include "src/scenario/scenario.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>

#include "src/app/harness.h"
#include "src/runtime/runtime.h"
#include "src/scenario/span_check.h"
#include "src/spec/monitors.h"
#include "src/util/rng.h"

namespace ensemble {
namespace scenario {

namespace {

// ---- Generator building blocks ---------------------------------------------

std::vector<LayerId> MembershipStack() {
  return {LayerId::kPartialAppl, LayerId::kIntra, LayerId::kElect,  LayerId::kSync,
          LayerId::kSuspect,     LayerId::kPt2pt, LayerId::kMnak,   LayerId::kBottom};
}

// The total-order stack with optional injected bugs: fifo_buggy slides in
// under the application; total_buggy replaces the real total layer.
std::vector<LayerId> OrderedStack(const ScenarioConfig& cfg) {
  std::vector<LayerId> layers = TenLayerStack();
  if (cfg.inject_total_bug) {
    std::replace(layers.begin(), layers.end(), LayerId::kTotal, LayerId::kTotalBuggy);
  }
  if (cfg.inject_fifo_bug) {
    layers.insert(layers.begin() + 1, LayerId::kFifoBuggy);
  }
  return layers;
}

std::vector<LayerId> ChurnStack(const ScenarioConfig& cfg) {
  std::vector<LayerId> layers = MembershipStack();
  if (cfg.inject_fifo_bug) {
    layers.insert(layers.begin() + 1, LayerId::kFifoBuggy);
  }
  return layers;
}

LayerParams FastDetection() {
  LayerParams p;
  p.suspect_max_idle = 3;
  p.heartbeat_interval = Millis(2);
  return p;
}

std::string Payload(const std::string& gtag, int member, size_t seq) {
  std::ostringstream os;
  os << gtag << ".m" << member << ".c" << seq;
  return os.str();
}

uint64_t TotalDeliveries(const GroupHarness& g) {
  uint64_t n = 0;
  for (int m = 0; m < g.n(); m++) {
    n += g.deliveries(m).size();
  }
  return n;
}

uint64_t TotalViews(const GroupHarness& g) {
  uint64_t n = 0;
  for (int m = 0; m < g.n(); m++) {
    n += g.views(m).size();
  }
  return n;
}

// Runs the simulation in slices until two consecutive slices make no
// delivery or view progress (bounded by max_slices).  With retransmission
// timers rescheduling forever, "run until the queue empties" never
// terminates — quiescence of the observable trace is the stop signal.
void DrainGroup(GroupHarness& g, VTime slice, int max_slices) {
  uint64_t last = ~0ull;
  int quiet = 0;
  for (int i = 0; i < max_slices && quiet < 2; i++) {
    g.Run(slice);
    uint64_t now = TotalDeliveries(g) + TotalViews(g);
    quiet = (now == last) ? quiet + 1 : 0;
    last = now;
  }
}

struct OpLog {
  ScenarioResult* r;
  std::string gtag;
  void operator()(const std::string& op) const {
    r->schedule.push_back(gtag + ": " + op);
  }
};

void AddViolations(ScenarioResult& r, const std::string& gtag, uint64_t seed,
                   const char* oracle, const MonitorResult& m) {
  if (m.ok) {
    return;
  }
  r.ok = false;
  for (const auto& v : m.violations) {
    std::ostringstream os;
    os << "[" << gtag << " seed=0x" << std::hex << seed << std::dec << " " << oracle
       << "] " << v;
    r.violations.push_back(os.str());
  }
}

// ---- Virtual-synchrony oracle over the harness view journal ----------------
//
// Members that install the same view AND transition together to the same
// next view must have delivered the same multiset of casts while that view
// was installed.  Pairing by (vid, member list) on both the view and its
// successor keeps the check sound when a partition sends members into
// different successor views.
//
// Boundary soundness: per-view delivery attribution is only meaningful at
// COORDINATED boundaries, where the sync layer flushed before the install.
// Admin installs (StartAll / AddMember / SwitchAll: vid.coord == 0) happen
// out-of-band with casts still in flight, so a message can land before the
// switch on one member and after it on another; any view whose start or cut
// is such a boundary is skipped.  Protocol views (intra stamps vid.coord
// with the coordinator's endpoint id, always nonzero) and the pre-traffic
// initial view are checkable starts.
bool SameView(const ViewRef& a, const ViewRef& b) {
  return a->vid == b->vid && a->members == b->members;
}

bool CoordinatedInstall(const ViewRef& v) { return v->vid.coord != 0; }

bool CheckableViewStart(const ViewRef& v) {
  return CoordinatedInstall(v) || v->vid.counter <= 1;  // Initial view: no traffic yet.
}

MonitorResult CheckVsyncPairs(const GroupHarness& g, const std::vector<int>& members) {
  MonitorResult result;
  // The membership stack has no `local` layer, so a sender never sees a
  // delivery event for its own cast; when comparing members a and b, drop
  // payloads either of them originated (the origin index is baked into the
  // payload as ".m<i>.").
  auto third_party = [](const std::vector<std::string>& payloads, int a, int b) {
    std::string ta = ".m" + std::to_string(a) + ".";
    std::string tb = ".m" + std::to_string(b) + ".";
    std::vector<std::string> out;
    for (const std::string& p : payloads) {
      if (p.find(ta) == std::string::npos && p.find(tb) == std::string::npos) {
        out.push_back(p);
      }
    }
    return out;
  };
  for (size_t x = 0; x < members.size(); x++) {
    for (size_t y = x + 1; y < members.size(); y++) {
      int a = members[x];
      int b = members[y];
      const auto& va = g.views(a);
      const auto& vb = g.views(b);
      for (size_t ka = 0; ka + 1 < va.size(); ka++) {
        if (!CheckableViewStart(va[ka]) || !CoordinatedInstall(va[ka + 1])) {
          continue;
        }
        for (size_t kb = 0; kb + 1 < vb.size(); kb++) {
          if (!SameView(va[ka], vb[kb]) || !SameView(va[ka + 1], vb[kb + 1])) {
            continue;
          }
          MonitorResult one = CheckVirtualSynchrony(
              {third_party(g.CastPayloadsInView(a, ka), a, b),
               third_party(g.CastPayloadsInView(b, kb), a, b)});
          if (!one.ok) {
            std::ostringstream os;
            os << "members " << a << " and " << b << " disagree on view "
               << va[ka]->vid.counter << " (" << va[ka]->nmembers()
               << " members): " << one.violations.front();
            result.ok = false;
            result.violations.push_back(os.str());
          }
        }
      }
    }
  }
  return result;
}

// ---- Simulated-plane runners -----------------------------------------------

void RunLossBurstGroup(const ScenarioConfig& cfg, uint64_t seed,
                       const std::string& gtag, ScenarioResult& r) {
  Rng rng(seed);
  OpLog op{&r, gtag};
  HarnessConfig hc;
  hc.n = cfg.group_size;
  hc.ep.layers = OrderedStack(cfg);
  hc.ep.params.local_loopback = true;
  hc.net = NetworkConfig::Perfect();
  hc.net.jitter = Micros(20);
  hc.net.seed = rng.Next();
  GroupHarness g(hc);
  g.StartAll();

  std::vector<std::vector<std::string>> sent(static_cast<size_t>(hc.n));
  bool faulty = false;
  for (int round = 0; round < cfg.rounds; round++) {
    if (!faulty && rng.Chance(0.35)) {
      double drop = rng.Double() * 0.30;
      double dup = rng.Double() * 0.15;
      double reorder = rng.Double() * 0.30;
      g.network().SetFaults(drop, dup, reorder);
      faulty = true;
      r.loss_bursts++;
      std::ostringstream os;
      os << "round " << round << " faults on drop=" << drop << " dup=" << dup
         << " reorder=" << reorder;
      op(os.str());
    } else if (faulty && rng.Chance(0.30)) {
      g.network().SetFaults(0, 0, 0);
      faulty = false;
      op("round " + std::to_string(round) + " faults off");
    }
    for (int c = 0; c < cfg.casts_per_round; c++) {
      int s = static_cast<int>(rng.Below(static_cast<uint64_t>(hc.n)));
      auto& mine = sent[static_cast<size_t>(s)];
      mine.push_back(Payload(gtag, s, mine.size()));
      g.CastFrom(s, mine.back());
      r.casts_sent++;
    }
    g.Run(Millis(2));
  }
  // Repair phase: faults off, then one closing cast per member — delivering
  // it forces NAK-based recovery of any dropped predecessors, so the streams
  // have no unrecoverable lost tail.
  g.network().SetFaults(0, 0, 0);
  op("faults off; closing casts");
  for (int m = 0; m < hc.n; m++) {
    auto& mine = sent[static_cast<size_t>(m)];
    mine.push_back(Payload(gtag, m, mine.size()));
    g.CastFrom(m, mine.back());
    r.casts_sent++;
  }
  DrainGroup(g, Millis(100), 60);

  AddViolations(r, gtag, seed, "fifo", CheckReliableFifo(g, sent, /*include_self=*/true));
  AddViolations(r, gtag, seed, "nodup", CheckNoDuplicates(g));
  AddViolations(r, gtag, seed, "total", CheckTotalOrderAgreement(g));
  r.deliveries += TotalDeliveries(g);
  r.views_installed += TotalViews(g);
  r.groups_run++;
}

void RunPartitionHealGroup(const ScenarioConfig& cfg, uint64_t seed,
                           const std::string& gtag, ScenarioResult& r) {
  Rng rng(seed);
  OpLog op{&r, gtag};
  HarnessConfig hc;
  hc.n = std::max(cfg.group_size, 4);
  hc.ep.layers = OrderedStack(cfg);
  hc.ep.params.local_loopback = true;
  hc.net = NetworkConfig::Perfect();
  hc.net.jitter = Micros(20);
  hc.net.seed = rng.Next();
  GroupHarness g(hc);
  g.StartAll();

  // Random two-sided split.
  std::vector<int> order(static_cast<size_t>(hc.n));
  for (int i = 0; i < hc.n; i++) {
    order[static_cast<size_t>(i)] = i;
  }
  for (size_t i = order.size(); i > 1; i--) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  size_t cut_at = 1 + rng.Below(static_cast<uint64_t>(hc.n - 1));
  std::vector<int> side_a(order.begin(), order.begin() + static_cast<long>(cut_at));
  std::vector<int> side_b(order.begin() + static_cast<long>(cut_at), order.end());

  auto set_partition = [&](bool up) {
    for (int a : side_a) {
      for (int b : side_b) {
        g.network().SetLinkUp(g.member(a).id(), g.member(b).id(), up);
      }
    }
  };

  std::vector<std::vector<std::string>> sent(static_cast<size_t>(hc.n));
  auto cast_round = [&]() {
    for (int c = 0; c < cfg.casts_per_round; c++) {
      int s = static_cast<int>(rng.Below(static_cast<uint64_t>(hc.n)));
      auto& mine = sent[static_cast<size_t>(s)];
      mine.push_back(Payload(gtag, s, mine.size()));
      g.CastFrom(s, mine.back());
      r.casts_sent++;
    }
    g.Run(Millis(2));
  };

  int p1 = cfg.rounds / 3;
  int p2 = (2 * cfg.rounds) / 3;
  for (int round = 0; round < cfg.rounds; round++) {
    if (round == p1) {
      set_partition(false);
      r.partitions++;
      std::ostringstream os;
      os << "round " << round << " partition {" << side_a.size() << "|" << side_b.size()
         << "}";
      op(os.str());
    }
    if (round == p2) {
      set_partition(true);
      op("round " + std::to_string(round) + " heal");
    }
    cast_round();
  }
  // Closing casts after heal force gap repair on both sides.
  for (int m = 0; m < hc.n; m++) {
    auto& mine = sent[static_cast<size_t>(m)];
    mine.push_back(Payload(gtag, m, mine.size()));
    g.CastFrom(m, mine.back());
    r.casts_sent++;
  }
  DrainGroup(g, Millis(100), 80);

  AddViolations(r, gtag, seed, "fifo", CheckReliableFifo(g, sent, /*include_self=*/true));
  AddViolations(r, gtag, seed, "nodup", CheckNoDuplicates(g));
  AddViolations(r, gtag, seed, "total", CheckTotalOrderAgreement(g));
  r.deliveries += TotalDeliveries(g);
  r.views_installed += TotalViews(g);
  r.groups_run++;
}

void RunChurnStormGroup(const ScenarioConfig& cfg, uint64_t seed,
                        const std::string& gtag, ScenarioResult& r) {
  Rng rng(seed);
  OpLog op{&r, gtag};
  HarnessConfig hc;
  hc.n = std::max(cfg.group_size, 4);
  hc.ep.layers = ChurnStack(cfg);
  hc.ep.params = FastDetection();
  if (cfg.inject_fifo_bug) {
    hc.ep.params.fifo_bug_period = 3;
  }
  hc.ep.timer_interval = Millis(2);
  hc.net = NetworkConfig::Perfect();
  hc.net.seed = rng.Next();
  GroupHarness g(hc);
  g.StartAll();
  g.Run(Millis(20));  // First heartbeats before the storm.

  std::set<int> alive;
  std::set<int> ever_crashed;
  for (int i = 0; i < hc.n; i++) {
    alive.insert(i);
  }
  std::vector<std::vector<std::string>> sent;
  sent.resize(static_cast<size_t>(hc.n));
  int max_members = hc.n + std::max(2, cfg.rounds / 4);

  for (int round = 0; round < cfg.rounds; round++) {
    // Traffic first: casts race whatever membership protocol activity is
    // still in flight from the previous round's churn, then get a few
    // simulated milliseconds to land (the perfect-network flight time is
    // microseconds, so nothing straddles the next cut — the stack's sync
    // layer blocks senders before a view install but does not flush
    // laggards' deliveries, so a cast in flight AT the cut instant would
    // make per-view attribution genuinely diverge).
    for (int c = 0; c < cfg.casts_per_round; c++) {
      size_t pick = rng.Below(alive.size());
      auto it = alive.begin();
      std::advance(it, static_cast<long>(pick));
      int s = *it;
      auto& mine = sent[static_cast<size_t>(s)];
      mine.push_back(Payload(gtag, s, mine.size()));
      g.CastFrom(s, mine.back());
      r.casts_sent++;
    }
    g.Run(Millis(5));
    // Churn impulses: a crash, a join, or both (the storm), with quorum
    // floor so the group never dwindles below 3 live members.
    if (alive.size() > 3 && rng.Chance(0.30)) {
      size_t pick = rng.Below(alive.size());
      auto it = alive.begin();
      std::advance(it, static_cast<long>(pick));
      int victim = *it;
      alive.erase(it);
      ever_crashed.insert(victim);
      g.Crash(victim);
      r.crashes++;
      op("round " + std::to_string(round) + " crash m" + std::to_string(victim));
    }
    if (g.n() < max_members && rng.Chance(0.25)) {
      int idx = g.AddMember();
      alive.insert(idx);
      sent.emplace_back();
      r.joins++;
      op("round " + std::to_string(round) + " join m" + std::to_string(idx));
    }
    g.Run(Millis(40));  // Detection (3 × 2ms heartbeats) + view agreement.
  }
  DrainGroup(g, Millis(100), 60);

  // Oracles judge every member that never crashed (including joiners): the
  // subsequence-mode FIFO check tolerates a joiner missing early casts, and
  // vsync pairing skips uncoordinated admin boundaries on its own.
  std::vector<int> full_participants;
  for (int i = 0; i < g.n(); i++) {
    if (ever_crashed.count(i) == 0) {
      full_participants.push_back(i);
    }
  }
  std::vector<int> live_now(alive.begin(), alive.end());

  AddViolations(r, gtag, seed, "fifo-prefix",
                CheckFifoPrefixAmong(g, full_participants, sent,
                                     /*complete_origins=*/{},
                                     /*include_self=*/false,
                                     /*require_gap_free=*/false));
  AddViolations(r, gtag, seed, "nodup-payload", CheckNoDuplicatePayloads(g, live_now));
  AddViolations(r, gtag, seed, "vsync", CheckVsyncPairs(g, full_participants));
  r.deliveries += TotalDeliveries(g);
  r.views_installed += TotalViews(g);
  r.groups_run++;
}

// ---- Runtime-plane runner (shard skew flips under the span oracle) ---------

void RunShardSkewComponent(const ScenarioConfig& cfg, uint64_t seed,
                           const std::string& gtag, ScenarioResult& r) {
  Rng rng(seed);
  OpLog op{&r, gtag};
  ShardRuntimeConfig rc;
  rc.backend = ShardBackend::kChannel;
  rc.num_workers = std::max(cfg.shard_workers, 2);
  rc.ep.layers = FourLayerStack();
  rc.ep.mode = StackMode::kMachine;
  rc.ep.params.local_loopback = false;
  rc.ep.params.stable_interval = 1u << 30;
  rc.ep.timer_interval = Millis(1);
  rc.trace_enabled = true;
  // Hot-path events (layer hops, timer fires) share the rings with the span
  // events; the post-run handoff quiesce adds ~200ms of timer traffic, so
  // size for the whole run — the span oracle needs a complete trace.
  rc.trace_capacity = 1u << 19;
  // In-group oracle: each cast carries its sender's member index, and every
  // delivery must come from the receiver's own pair (members m and m ^ 1).
  std::atomic<uint64_t> foreign{0};
  rc.on_deliver = [&foreign](int member, const Event& ev) {
    Bytes flat = ev.payload.Flatten();
    uint32_t sender = 0;
    if (flat.size() == sizeof(sender)) {
      std::memcpy(&sender, flat.data(), sizeof(sender));
    }
    if (flat.size() != sizeof(sender) || sender / 2 != static_cast<uint32_t>(member) / 2) {
      foreign.fetch_add(1, std::memory_order_relaxed);
    }
  };

  int n = std::max(cfg.shard_members, 4) & ~1;  // Even: pair groups.
  // Skewed start: every pair on one generator-chosen shard.
  int hot = static_cast<int>(rng.Below(static_cast<uint64_t>(rc.num_workers)));
  rc.initial_shard.assign(static_cast<size_t>(n), hot);
  op("skewed placement: all " + std::to_string(n) + " members on shard " +
     std::to_string(hot));

  ShardRuntime rt(rc);
  if (!rt.Build(n, /*group_size=*/2)) {
    r.ok = false;
    r.violations.push_back("[" + gtag + "] runtime Build failed");
    return;
  }
  rt.Start();

  std::vector<uint64_t> want(static_cast<size_t>(n), 0);
  int flips_left = cfg.skew_flips;
  for (int round = 0; round < cfg.rounds; round++) {
    for (int c = 0; c < cfg.casts_per_round * 4; c++) {
      int m = static_cast<int>(rng.Below(static_cast<uint64_t>(n)));
      rt.PostToMember(m, [m](GroupEndpoint& ep) {
        uint32_t sender = static_cast<uint32_t>(m);
        ep.Cast(Iovec(Bytes::Copy(&sender, sizeof(sender))));
      });
      want[static_cast<size_t>(m ^ 1)]++;  // Pair peer delivers it.
      r.casts_sent++;
    }
    if (flips_left > 0 && rng.Chance(0.7)) {
      // Skew flip: move a batch of members to a new generator-chosen shard
      // while their traffic is in flight.
      int to = static_cast<int>(rng.Below(static_cast<uint64_t>(rc.num_workers)));
      int batch = 1 + static_cast<int>(rng.Below(3));
      for (int k = 0; k < batch; k++) {
        int m = static_cast<int>(rng.Below(static_cast<uint64_t>(n)));
        rt.MigrateMember(m, to);
        op("round " + std::to_string(round) + " migrate m" + std::to_string(m) +
           " -> shard " + std::to_string(to));
      }
      flips_left--;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool complete = false;
  while (!complete && std::chrono::steady_clock::now() < deadline) {
    complete = true;
    for (int m = 0; m < n; m++) {
      if (rt.delivered(m) < want[static_cast<size_t>(m)]) {
        complete = false;
        break;
      }
    }
    if (!complete) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  // Let in-flight handoffs land: a migration scheduled in the last round can
  // still be between handoff_start and adopt, and Stop() would run the adopt
  // after tracing is disabled — an open span that is shutdown ordering, not
  // a scheduler bug.  Steal count stable for 200ms == quiesced; a genuinely
  // stuck handoff rides to the deadline and the span checker flags it.
  uint64_t last_steals = rt.steals();
  auto stable_since = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    uint64_t s = rt.steals();
    auto now = std::chrono::steady_clock::now();
    if (s != last_steals) {
      last_steals = s;
      stable_since = now;
    } else if (now - stable_since > std::chrono::milliseconds(200)) {
      break;
    }
  }
  rt.Stop();
  r.migrations += rt.steals();
  r.deliveries += rt.total_delivered();

  if (!complete) {
    r.ok = false;
    for (int m = 0; m < n; m++) {
      if (rt.delivered(m) < want[static_cast<size_t>(m)]) {
        std::ostringstream os;
        os << "[" << gtag << " seed=0x" << std::hex << seed << std::dec
           << " completeness] member " << m << " delivered " << rt.delivered(m)
           << " of " << want[static_cast<size_t>(m)];
        r.violations.push_back(os.str());
      }
    }
  }
  if (uint64_t crossed = foreign.load(); crossed > 0) {
    r.ok = false;
    std::ostringstream os;
    os << "[" << gtag << " seed=0x" << std::hex << seed << std::dec << " in-group] " << crossed
       << " deliveries came from outside the receiver's pair";
    r.violations.push_back(os.str());
  }
  if (!rt.TraceComplete()) {
    r.ok = false;
    r.violations.push_back("[" + gtag + " span] trace ring overwrote events; raise trace_capacity");
  }
  SpanCheckResult span = CheckSpanShapes(rt.TraceEvents());
  if (!span.ok) {
    r.ok = false;
    for (const auto& v : span.violations) {
      std::ostringstream os;
      os << "[" << gtag << " seed=0x" << std::hex << seed << std::dec << " span] " << v;
      r.violations.push_back(os.str());
    }
  }
  {
    std::ostringstream os;
    os << "span census: " << span.migrations_completed << " migrations, "
       << span.overload_engages << " overload engages";
    op(os.str());
  }
  // The run is always traced; a failing run leaves the evidence on disk.
  if (!r.ok && !cfg.artifact_dir.empty()) {
    std::ostringstream path;
    path << cfg.artifact_dir << "/TRACE_scenario_" << std::hex << cfg.seed << ".json";
    rt.WriteTrace(path.str());
    op("trace artifact: " + path.str());
  }
}

void WriteScheduleArtifact(const ScenarioConfig& cfg, const ScenarioResult& r) {
  std::ostringstream path;
  path << cfg.artifact_dir << "/SCHEDULE_" << ScenarioClassName(cfg.cls) << "_"
       << std::hex << cfg.seed << ".txt";
  std::ofstream out(path.str());
  if (!out) {
    return;
  }
  out << r.ToString() << "\n\n# schedule\n";
  for (const auto& line : r.schedule) {
    out << line << "\n";
  }
}

}  // namespace

const char* ScenarioClassName(ScenarioClass c) {
  switch (c) {
    case ScenarioClass::kLossBurst:
      return "loss_burst";
    case ScenarioClass::kPartitionHeal:
      return "partition_heal";
    case ScenarioClass::kChurnStorm:
      return "churn_storm";
    case ScenarioClass::kShardSkew:
      return "shard_skew";
    case ScenarioClass::kSoak:
      return "soak";
  }
  return "unknown";
}

std::string ScenarioResult::ToString() const {
  std::ostringstream os;
  os << ScenarioClassName(cls) << " seed=0x" << std::hex << seed << std::dec << " "
     << (ok ? "OK" : "FAILED") << ": " << groups_run << " groups, " << casts_sent
     << " casts, " << deliveries << " deliveries, " << views_installed << " views, "
     << crashes << " crashes, " << joins << " joins, " << partitions << " partitions, "
     << loss_bursts << " loss bursts, " << migrations << " migrations";
  for (const auto& v : violations) {
    os << "\n  " << v;
  }
  return os.str();
}

ScenarioResult RunScenario(const ScenarioConfig& config) {
  ScenarioResult r;
  r.ok = true;
  r.cls = config.cls;
  r.seed = config.seed;

  switch (config.cls) {
    case ScenarioClass::kLossBurst:
      RunLossBurstGroup(config, config.seed, "loss", r);
      break;
    case ScenarioClass::kPartitionHeal:
      RunPartitionHealGroup(config, config.seed, "part", r);
      break;
    case ScenarioClass::kChurnStorm:
      RunChurnStormGroup(config, config.seed, "churn", r);
      break;
    case ScenarioClass::kShardSkew:
      RunShardSkewComponent(config, config.seed, "skew", r);
      break;
    case ScenarioClass::kSoak: {
      // Independent child seeds drawn up front: group k's schedule depends
      // only on (seed, k), so one group's behavior never perturbs another's.
      Rng master(config.seed);
      std::vector<uint64_t> child(static_cast<size_t>(config.num_groups));
      for (auto& s : child) {
        s = master.Next();
      }
      uint64_t shard_seed = master.Next();
      for (int i = 0; i < config.num_groups; i++) {
        uint64_t cs = child[static_cast<size_t>(i)];
        std::string gtag = "g" + std::to_string(i);
        switch (cs % 4) {
          case 0:
          case 1:
            RunLossBurstGroup(config, cs, gtag + ".loss", r);
            break;
          case 2:
            RunPartitionHealGroup(config, cs, gtag + ".part", r);
            break;
          case 3:
            RunChurnStormGroup(config, cs, gtag + ".churn", r);
            break;
        }
      }
      RunShardSkewComponent(config, shard_seed, "skew", r);
      break;
    }
  }

  if (!r.ok && !config.artifact_dir.empty()) {
    WriteScheduleArtifact(config, r);
  }
  return r;
}

SweepResult RunSeedSweep(ScenarioConfig config, uint64_t base_seed, int count,
                         int64_t wall_clock_budget_ms, std::ostream* log) {
  SweepResult sweep;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < count; i++) {
    config.seed = base_seed + static_cast<uint64_t>(i);
    ScenarioResult r = RunScenario(config);
    sweep.runs++;
    if (!r.ok) {
      sweep.failures++;
      sweep.failing_seeds.push_back(config.seed);
      if (log != nullptr) {
        *log << "scenario FAILED, reproduce with seed=0x" << std::hex << config.seed
             << std::dec << "\n"
             << r.ToString() << "\n";
      }
    }
    auto spent = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    if (spent >= wall_clock_budget_ms) {
      if (log != nullptr && i + 1 < count) {
        *log << "seed sweep stopped after " << sweep.runs << "/" << count
             << " seeds (wall-clock budget " << wall_clock_budget_ms << "ms)\n";
      }
      break;
    }
  }
  return sweep;
}

}  // namespace scenario
}  // namespace ensemble
