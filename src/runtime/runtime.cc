#include "src/runtime/runtime.h"

#include <algorithm>
#include <chrono>

#include "src/obs/stats_adapters.h"
#include "src/util/logging.h"

namespace ensemble {

namespace {
// The runtime whose worker loop the calling thread runs (set by WorkerLoop);
// any other thread — the harness main thread, a bench driver — posts from
// outside and waits on the destination's task depth.
thread_local const ShardRuntime* tls_rt = nullptr;

// Work-stealing thresholds (config.steal switches the policy on), measured
// on the 8:1 skewed placement of bench_skew (EXPERIMENTS.md "Skewed
// placement").
// Consecutive zero-event poll cycles before a fully idle worker looks for a
// victim: an empty shard adopts work quickly.
constexpr int kStealIdleLoops = 2;
// A victim's load signal (events-per-cycle EWMA + task depth) must reach this
// many events per cycle.
constexpr uint64_t kStealMinVictimLoad = 4;
// A busy-but-underloaded worker also steals when some shard's load signal is
// at least this multiple of its own (one quiet group next to a shard running
// eight hot ones).
constexpr double kStealMinImbalance = 3.0;
// Minimum pause between two steal attempts by the same thief.
constexpr VTime kStealCooldown = Millis(10);
}  // namespace

// ---- ShardRuntime ----------------------------------------------------------

ShardRuntime::ShardRuntime(ShardRuntimeConfig config) : config_(std::move(config)) {
  int w = std::max(1, config_.num_workers);
  for (int s = 0; s < w; s++) {
    auto worker = std::make_unique<Worker>();
    worker->trace = std::make_unique<obs::TraceRing>(config_.trace_capacity,
                                                     static_cast<uint16_t>(s));
    if (config_.backend == ShardBackend::kUdp) {
      auto udp = std::make_unique<UdpNetwork>();
      udp->set_backend_config(config_.net);
      worker->net = std::move(udp);
    } else {
      worker->net = std::make_unique<ChannelNetwork>(&mailboxes_,
                                                     config_.overload.kill_dispatch_keep);
    }
    workers_.push_back(std::move(worker));
  }
}

ShardRuntime::~ShardRuntime() { Stop(); }

bool ShardRuntime::Build(int n, int group_size) {
  ENS_CHECK(!started_);
  if (group_size <= 0 || group_size > n) {
    group_size = n;
  }
  int w = num_workers();
  int num_groups = (n + group_size - 1) / group_size;
  // Groups land whole on a shard (their traffic stays shard-local: casts and
  // sends address only the group's own members) unless there are fewer groups
  // than workers — then members spread round-robin so a single big group
  // still exercises every core.
  bool spread_members = num_groups < w;

  owner_of_ = std::make_unique<std::atomic<int>[]>(static_cast<size_t>(n));
  for (auto& worker : workers_) {
    worker->resident.assign(static_cast<size_t>(n), 0);
  }

  for (int i = 0; i < n; i++) {
    int group = i / group_size;
    int shard = spread_members ? i % w : group % w;
    if (static_cast<size_t>(i) < config_.initial_shard.size()) {
      shard = std::clamp(config_.initial_shard[static_cast<size_t>(i)], 0, w - 1);
    }
    EndpointId id{static_cast<uint64_t>(i + 1)};
    auto ep = std::make_unique<GroupEndpoint>(
        id, workers_[static_cast<size_t>(shard)]->net.get(), config_.ep);
    int member = i;
    ep->OnDeliver([this, member](const Event& ev) {
      // Delivery credits the sender's group window (application traffic is
      // intra-group, so the receiving member shares the sender's window).
      overload::SendWindow* win =
          members_[static_cast<size_t>(member)]->send_window();
      if (win != nullptr) {
        win->Release(ev.payload.size());
      }
      if (config_.on_deliver) {
        config_.on_deliver(member, ev);
      }
    });
    members_.push_back(std::move(ep));
    owner_of_[static_cast<size_t>(i)].store(shard, std::memory_order_relaxed);
    Worker& owner = *workers_[static_cast<size_t>(shard)];
    owner.resident[static_cast<size_t>(i)] = 1;
    owner.resident_count.fetch_add(1, std::memory_order_relaxed);
    all_ids_.push_back(id);
    if (static_cast<size_t>(group) >= groups_.size()) {
      groups_.emplace_back();
    }
    groups_[static_cast<size_t>(group)].push_back(i);
  }

  if (config_.backend == ShardBackend::kUdp) {
    auto udp = [this](int s) -> UdpNetwork& {
      return static_cast<UdpNetwork&>(*workers_[static_cast<size_t>(s)]->net);
    };
    for (int s = 0; s < w; s++) {
      if (!udp(s).ok()) {
        return false;
      }
    }
    // Publish every endpoint's port on every *other* shard's network: the
    // kernel becomes the cross-shard data plane.
    for (int i = 0; i < n; i++) {
      int owner = ShardOf(i);
      EndpointId id = all_ids_[static_cast<size_t>(i)];
      uint16_t port = udp(owner).PortOf(id);
      for (int s = 0; s < w; s++) {
        if (s != owner) {
          udp(s).AddPeer(id, port);
        }
      }
    }
  }
  SetupOverload();
  RegisterMetrics();
  return true;
}

void ShardRuntime::SetupOverload() {
  if (!config_.overload.enabled) {
    return;
  }
  overload_mgr_ = std::make_unique<overload::OverloadManager>(
      config_.overload, static_cast<int>(groups_.size()));
  // Gate every member's Cast/Send on its group's shared send window.
  for (size_t g = 0; g < groups_.size(); g++) {
    overload::SendWindow* win = overload_mgr_->window(static_cast<int>(g));
    for (int member : groups_[g]) {
      members_[static_cast<size_t>(member)]->SetSendWindow(win);
    }
  }
  overload::OverloadSignals sig;
  sig.live_bytes = [this]() {
    // Buffered bytes process-wide: heap chunks (channel backend payloads,
    // oversized buffers) plus every shard's receive-pool chunks in flight.
    uint64_t bytes = GlobalHeapBufferStats().bytes.live();
    for (const auto& worker : workers_) {
      bytes += worker->net->buffered_bytes();
    }
    return bytes;
  };
  sig.dispatch_backlog = [this]() {
    // Admitted load only: packets waiting in a shard's resident mailboxes.
    // Queued tasks are offered load the send windows have not admitted yet.
    uint64_t depth = 0;
    for (const auto& worker : workers_) {
      depth = std::max(depth, worker->net->dispatch_depth());
    }
    return depth;
  };
  sig.timer_backlog = [this]() {
    uint64_t depth = 0;
    for (const auto& worker : workers_) {
      depth = std::max(depth, worker->net->timer_depth());
    }
    return depth;
  };
  sig.delivered_total = [this]() { return total_delivered(); };
  overload_mgr_->InstallSignals(std::move(sig));

  overload::OverloadActions act;
  act.set_pressure = [this](int level) {
    // Atomic per-backend store; safe from whichever worker evaluates.
    for (const auto& worker : workers_) {
      worker->net->SetPressure(level);
    }
  };
  act.flush_all = [this]() {
    // Tighten-flush engage: kick every shard to emit staged traffic now
    // instead of waiting out its periodic flush deadline.
    for (int s = 0; s < num_workers(); s++) {
      Post(s, [this, s]() {
        Worker& w = *workers_[static_cast<size_t>(s)];
        for (int m = 0; m < n(); m++) {
          if (w.resident[static_cast<size_t>(m)] != 0) {
            members_[static_cast<size_t>(m)]->Flush();
          }
        }
      });
    }
  };
  overload_mgr_->InstallActions(std::move(act));
}

void ShardRuntime::RegisterMetrics() {
  using namespace obs;  // NOLINT: adapter call site.
  for (int s = 0; s < num_workers(); s++) {
    Worker& w = *workers_[static_cast<size_t>(s)];
    std::string shard_tag = "shard" + std::to_string(s);
    w.net->RegisterMetrics(metrics_, shard_tag);
    metrics_.Counter("task.pushed", &w.inbox.stats().pushed);
    metrics_.Counter("task.popped", &w.inbox.stats().popped);
    metrics_.Counter("sched.events", &w.stats.events);
    metrics_.Counter("sched.busy_ns", &w.stats.busy_ns);
    metrics_.Counter("sched.loops", &w.stats.loops);
    metrics_.Counter("sched.steals_in", &w.stats.steals_in);
    metrics_.Counter("sched.steals_out", &w.stats.steals_out);
    // Per-shard gauges: placement and load are meaningless summed.
    Worker* wp = &w;
    metrics_.Gauge("sched." + shard_tag + ".resident", [wp]() {
      return static_cast<int64_t>(wp->resident_count.load(std::memory_order_relaxed));
    });
    metrics_.Gauge("sched." + shard_tag + ".load_ewma_x256", [wp]() {
      return static_cast<int64_t>(wp->load_ewma.load(std::memory_order_relaxed));
    });
  }
  metrics_.Counter("sched.steals", &steals_completed_);
  metrics_.Counter("sched.steal_requests", &steal_requests_);
  metrics_.HistogramSource("sched.delivery_latency_ns", &delivery_latency_);
  metrics_.HistogramSource("sched.steal_duration_ns", &steal_duration_);
  for (const auto& member : members_) {
    RegisterEndpointStats(metrics_, &member->stats());
  }
  if (overload_mgr_ != nullptr) {
    overload_mgr_->RegisterMetrics(metrics_);
    for (const auto& worker : workers_) {
      ShardNetwork* net = worker->net.get();
      metrics_.CounterFn("overload.dispatch_shed", [net]() { return net->overload_sheds(); });
    }
  }
  RegisterGlobalStats(metrics_);
}

void ShardRuntime::Start() {
  ENS_CHECK(!started_);
  ENS_CHECK_MSG(!members_.empty(), "Build() before Start()");
  started_ = true;
  // Views install (and bypass routes compile) on this thread, before any
  // worker exists; thread creation publishes everything to the workers.
  for (const std::vector<int>& group : groups_) {
    auto view = std::make_shared<View>();
    view->vid = ViewId{0, 1};
    for (int member : group) {
      view->members.push_back(all_ids_[static_cast<size_t>(member)]);
    }
    for (int member : group) {
      members_[static_cast<size_t>(member)]->Start(view);
    }
  }
  if (config_.trace_enabled) {
    obs::SetTraceEnabled(true);
  }
  for (int s = 0; s < num_workers(); s++) {
    workers_[static_cast<size_t>(s)]->thread = std::thread([this, s] { WorkerLoop(s); });
  }
}

void ShardRuntime::Stop() {
  if (!started_ || joined_) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  for (int s = 0; s < num_workers(); s++) {
    WakeWorker(s);
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
  if (config_.trace_enabled) {
    // This runtime flipped the global gate on; turn it off so back-to-back
    // runs in one process (benches sweep configs) don't trace unasked.
    obs::SetTraceEnabled(false);
  }
  joined_ = true;
  // Post-join sweep: worker A's final drain may have pushed into worker B's
  // task queue or mailboxes after B already exited, and a handoff interrupted
  // mid-protocol may still have its adopt task queued.  Single-threaded now,
  // so drain every shard until quiescent (bounded — deliveries can re-enqueue
  // a few times).
  for (int sweep = 0; sweep < 1000; sweep++) {
    size_t activity = 0;
    for (int s = 0; s < num_workers(); s++) {
      activity += DrainInbox(s);
      activity += DrainDeferred(s);
      if (config_.backend == ShardBackend::kChannel) {
        // No timers: must converge.
        activity += static_cast<ChannelNetwork&>(*workers_[static_cast<size_t>(s)]->net)
                        .DrainQueues();
      }
    }
    if (activity == 0) {
      break;
    }
  }
}

// ---- Posting ---------------------------------------------------------------

Waker& ShardRuntime::WakerOf(int shard) {
  return workers_[static_cast<size_t>(shard)]->net->waker();
}

void ShardRuntime::WakeWorker(int shard) { WakerOf(shard).NotifyCoalesced(); }

void ShardRuntime::PostMsg(int shard, ShardMsg msg) {
  Worker& w = *workers_[static_cast<size_t>(shard)];
  msg.post_ns = NowNanos();
  if (tls_rt != this && started_) {
    // From outside the runtime: the one producer that can outrun the workers
    // waits for the destination to drain.  Once Stop() begins nobody drains
    // until the post-join sweep, which takes whatever is queued.
    while (w.inbox.depth() >= kOutsidePostDepth && !stop_.load(std::memory_order_acquire)) {
      WakeWorker(shard);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  int member = msg.member;
  size_t depth = w.inbox.Push(std::move(msg));
  ENS_TRACE(kRingPush, member, static_cast<uint64_t>(shard), depth);
  WakeWorker(shard);
}

void ShardRuntime::Post(int shard, std::function<void()> task) {
  ShardMsg msg;
  msg.task = std::move(task);
  PostMsg(shard, std::move(msg));
}

void ShardRuntime::PostToMember(int member, std::function<void(GroupEndpoint&)> fn) {
  ShardMsg msg;
  msg.member = member;
  msg.member_task = std::move(fn);
  PostMsg(ShardOf(member), std::move(msg));
}

// ---- Worker loop -----------------------------------------------------------

void ShardRuntime::ProcessMsg(int shard, ShardMsg msg) {
  Worker& w = *workers_[static_cast<size_t>(shard)];
  if (msg.post_ns != 0) {
    delivery_latency_.Observe(NowNanos() - msg.post_ns);
    msg.post_ns = 0;  // A re-route (below) restamps rather than double-counts.
  }
  if (msg.member >= 0) {
    int owner = ShardOf(msg.member);
    if (owner != shard) {
      PostMsg(owner, std::move(msg));  // Migrated between post and drain.
      return;
    }
    if (!w.resident[static_cast<size_t>(msg.member)]) {
      w.deferred.push_back(std::move(msg));  // Adoption still in flight.
      return;
    }
    msg.member_task(*members_[static_cast<size_t>(msg.member)]);
    return;
  }
  if (msg.task) {
    msg.task();
  }
}

size_t ShardRuntime::DrainInbox(int shard) {
  Worker& w = *workers_[static_cast<size_t>(shard)];
  // Run only what is queued now: tasks posted meanwhile (a re-route back
  // here, a task that posts to its own shard) wait for the next loop.
  w.inbox.TakeAll(&w.batch);
  size_t n = w.batch.size();
  for (ShardMsg& msg : w.batch) {
    ProcessMsg(shard, std::move(msg));
  }
  w.batch.clear();
  if (n > 0) {
    ENS_TRACE(kRingDrain, -1, n, 0);
  }
  return n;
}

size_t ShardRuntime::DrainDeferred(int shard) {
  Worker& w = *workers_[static_cast<size_t>(shard)];
  if (w.deferred.empty()) {
    return 0;
  }
  size_t rounds = w.deferred.size();
  size_t done = 0;
  for (size_t i = 0; i < rounds; i++) {
    ShardMsg msg = std::move(w.deferred.front());
    w.deferred.pop_front();
    int owner = ShardOf(msg.member);
    if (owner == shard && !w.resident[static_cast<size_t>(msg.member)] && !joined_) {
      w.deferred.push_back(std::move(msg));  // Adoption still in flight.
      continue;
    }
    if (owner != shard) {
      PostMsg(owner, std::move(msg));
    } else {
      msg.member_task(*members_[static_cast<size_t>(msg.member)]);
    }
    done++;
  }
  return done;
}

void ShardRuntime::PublishLoad(int shard, size_t events, uint64_t busy_ns) {
  Worker& w = *workers_[static_cast<size_t>(shard)];
  uint64_t prev = w.load_ewma.load(std::memory_order_relaxed);
  int64_t delta = static_cast<int64_t>(events * kEwmaScale) - static_cast<int64_t>(prev);
  w.load_ewma.store(static_cast<uint64_t>(static_cast<int64_t>(prev) + delta / 8),
                    std::memory_order_relaxed);
  w.stats.loops++;
  if (events > 0) {
    w.stats.events += events;
    w.stats.busy_ns += busy_ns;
  }
}

void ShardRuntime::IdleBlock(int shard) {
  Worker& w = *workers_[static_cast<size_t>(shard)];
  if (w.inbox.depth() != 0) {
    return;
  }
  w.net->IdleWait(config_.poll_slice);
}

void ShardRuntime::WorkerLoop(int shard) {
  tls_rt = this;
  Worker& w = *workers_[static_cast<size_t>(shard)];
  obs::InstallThreadTraceRing(w.trace.get());
  int idle_streak = 0;
  uint64_t last_steal_ns = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    uint64_t t0 = NowNanos();
    size_t events = DrainDeferred(shard);
    events += DrainInbox(shard);
    events += w.net->Poll();
    if (overload_mgr_ != nullptr) {
      // Deadline-elected: exactly one worker wins the CAS per poll interval,
      // so manager overhead does not scale with shard count.
      overload_mgr_->MaybePoll(NowNanos());
    }
    if (events > 0) {
      PublishLoad(shard, events, NowNanos() - t0);
      idle_streak = 0;
      MaybeSteal(shard, idle_streak, &last_steal_ns);  // Imbalance trigger.
      continue;
    }
    PublishLoad(shard, 0, 0);
    idle_streak++;
    MaybeSteal(shard, idle_streak, &last_steal_ns);
    IdleBlock(shard);
  }
  // Drain-out: pending tasks and staged traffic are processed so
  // Stop() leaves deterministic, fully-flushed state behind.
  DrainDeferred(shard);
  DrainInbox(shard);
  w.net->Poll();
  obs::InstallThreadTraceRing(nullptr);
  tls_rt = nullptr;
}

// ---- Work stealing ---------------------------------------------------------

void ShardRuntime::MaybeSteal(int shard, int idle_streak, uint64_t* last_attempt_ns) {
  if (!config_.steal || num_workers() < 2) {
    return;
  }
  uint64_t now = NowNanos();
  if (now - *last_attempt_ns < kStealCooldown) {
    return;
  }
  if (steal_inflight_.load(std::memory_order_acquire)) {
    return;
  }
  Worker& me = *workers_[static_cast<size_t>(shard)];
  uint64_t own = me.load_ewma.load(std::memory_order_relaxed);
  // Two triggers: a worker that has been fully idle for kStealIdleLoops
  // cycles takes anything above the load floor; a busy worker only moves on a
  // sustained kStealMinImbalance : 1 skew against it (8 hot groups next door
  // while it runs one quiet one).
  bool idle_trigger = idle_streak >= kStealIdleLoops;
  uint64_t threshold = kStealMinVictimLoad * kEwmaScale;
  double ratio_floor = kStealMinImbalance * static_cast<double>(std::max<uint64_t>(own, 1));
  int victim = -1;
  uint64_t best = 0;
  for (int s = 0; s < num_workers(); s++) {
    if (s == shard) {
      continue;
    }
    Worker& v = *workers_[static_cast<size_t>(s)];
    if (v.resident_count.load(std::memory_order_relaxed) < 2) {
      continue;  // Moving a lone endpoint just relocates the hotspot.
    }
    uint64_t score = v.load_ewma.load(std::memory_order_relaxed) +
                     v.inbox.depth() * kEwmaScale;
    if (score < threshold || score <= best) {
      continue;
    }
    if (!idle_trigger && static_cast<double>(score) < ratio_floor) {
      continue;
    }
    best = score;
    victim = s;
  }
  if (victim < 0) {
    return;
  }
  *last_attempt_ns = now;
  if (steal_inflight_.exchange(true, std::memory_order_acq_rel)) {
    return;  // Lost the race to another thief.
  }
  steal_requests_++;
  ENS_TRACE(kStealRequest, -1, static_cast<uint64_t>(victim), best);
  int thief = shard;
  Post(victim, [this, victim, thief] { HandleStealRequest(victim, thief); });
}

void ShardRuntime::HandleStealRequest(int victim, int thief) {
  // Victim thread: pick the hottest GROUP fully resident here (cumulative
  // deliveries are the cheapest heat signal we already maintain) and hand off
  // every one of its endpoints.  Moving whole groups keeps their internal
  // traffic shard-local after the steal — splitting a group would convert its
  // hottest links into cross-shard ones, the opposite of load shedding.
  Worker& w = *workers_[static_cast<size_t>(victim)];
  int pick = -1;
  uint64_t best = 0;
  size_t resident_groups = 0;
  for (size_t g = 0; g < groups_.size(); g++) {
    bool all_here = true;
    uint64_t heat = 1;
    for (int m : groups_[g]) {
      if (!w.resident[static_cast<size_t>(m)]) {
        all_here = false;
        break;
      }
      heat += delivered(m);
    }
    if (!all_here) {
      continue;
    }
    resident_groups++;
    if (heat > best) {
      best = heat;
      pick = static_cast<int>(g);
    }
  }
  if (resident_groups < 2 || pick < 0) {
    // Decline: the load signal was stale, or shedding our only whole group
    // would just relocate the hotspot.
    ENS_TRACE(kStealDecline, -1, static_cast<uint64_t>(thief), 0);
    steal_inflight_.store(false, std::memory_order_release);
    return;
  }
  const std::vector<int>& members = groups_[static_cast<size_t>(pick)];
  for (size_t i = 0; i < members.size(); i++) {
    // steal_inflight_ clears when the LAST member's adoption completes.
    StartHandoff(victim, members[i], thief, /*from_steal=*/i + 1 == members.size());
  }
}

void ShardRuntime::MigrateMember(int member, int to) {
  ENS_CHECK_MSG(started_, "MigrateMember before Start()");
  if (to < 0 || to >= num_workers() || member < 0 || member >= n()) {
    return;
  }
  int owner = ShardOf(member);
  Post(owner, [this, owner, member, to] { StartHandoff(owner, member, to, false); });
}

void ShardRuntime::StartHandoff(int shard, int member, int thief, bool from_steal) {
  int owner = ShardOf(member);
  if (owner != shard) {
    // The member moved between post and drain: chase it.
    Post(owner, [this, owner, member, thief, from_steal] {
      StartHandoff(owner, member, thief, from_steal);
    });
    return;
  }
  Worker& w = *workers_[static_cast<size_t>(shard)];
  if (thief == shard || !w.resident[static_cast<size_t>(member)]) {
    if (from_steal) {
      steal_inflight_.store(false, std::memory_order_release);
    }
    return;  // Already there, or a handoff for it is already in flight.
  }
  ENS_TRACE(kHandoffStart, member, static_cast<uint64_t>(thief), 0);
  uint64_t start_ns = NowNanos();  // → sched.steal_duration_ns at FinishAdopt.
  GroupEndpoint& ep = *members_[static_cast<size_t>(member)];
  ep.BeginRebind();  // Flush staged traffic; invalidate timers on our heap.
  w.resident[static_cast<size_t>(member)] = 0;
  w.resident_count.fetch_sub(1, std::memory_order_relaxed);
  w.stats.steals_out++;
  EndpointId id = all_ids_[static_cast<size_t>(member)];

  // One protocol for both backends, as for a socket: release the binding,
  // publish the new owner, adopt on the thief.  The endpoint's queue — the
  // UDP socket with its kernel receive queue, or the channel mailbox — keeps
  // everything in flight in order meanwhile, and UDP's Release keeps the port
  // as a peer here so our endpoints still reach it.
  ShardNetwork::ReleasedEndpoint released = w.net->Release(id);
  owner_of_[static_cast<size_t>(member)].store(thief, std::memory_order_release);
  Post(thief, [this, thief, member, released, from_steal, start_ns] {
    FinishAdopt(thief, member, released, from_steal, start_ns);
  });
}

void ShardRuntime::FinishAdopt(int shard, int member, ShardNetwork::ReleasedEndpoint released,
                               bool from_steal, uint64_t start_ns) {
  Worker& w = *workers_[static_cast<size_t>(shard)];
  w.net->Adopt(all_ids_[static_cast<size_t>(member)], std::move(released));
  // Queued packets are delivered by our next Poll, after this rebind, so a
  // delivery that re-enters Send (the application echoes) goes out through
  // OUR backend, never the victim's.
  members_[static_cast<size_t>(member)]->FinishRebind(w.net.get());
  w.resident[static_cast<size_t>(member)] = 1;
  w.resident_count.fetch_add(1, std::memory_order_relaxed);
  w.stats.steals_in++;
  steals_completed_++;
  if (start_ns != 0) {
    steal_duration_.Observe(NowNanos() - start_ns);
  }
  ENS_TRACE(kAdopt, member, static_cast<uint64_t>(shard), 0);
  if (from_steal) {
    steal_inflight_.store(false, std::memory_order_release);
  }
  // Deferred member tasks for this member run at the next loop top.
}

// ---- Stats -----------------------------------------------------------------

uint64_t ShardRuntime::total_delivered() const {
  uint64_t total = 0;
  for (const auto& member : members_) {
    total += member->stats().delivered.value();
  }
  return total;
}

bool ShardRuntime::WriteTrace(const std::string& path) const {
  std::vector<const obs::TraceRing*> rings;
  rings.reserve(workers_.size());
  for (const auto& worker : workers_) {
    rings.push_back(worker->trace.get());
  }
  return obs::WriteChromeTrace(path, rings);
}

std::vector<obs::TraceEvent> ShardRuntime::TraceEvents() const {
  std::vector<const obs::TraceRing*> rings;
  rings.reserve(workers_.size());
  for (const auto& worker : workers_) {
    rings.push_back(worker->trace.get());
  }
  return obs::MergeTraceEvents(rings);
}

bool ShardRuntime::TraceComplete() const {
  for (const auto& worker : workers_) {
    if (worker->trace->dropped() > 0) {
      return false;
    }
  }
  return true;
}

ShardLoad ShardRuntime::LoadOf(int shard) const {
  const Worker& w = *workers_[static_cast<size_t>(shard)];
  ShardLoad out;
  out.events = w.stats.events.value();
  out.busy_ns = w.stats.busy_ns.value();
  out.loops = w.stats.loops.value();
  out.resident = w.resident_count.load(std::memory_order_relaxed);
  out.ewma = static_cast<double>(w.load_ewma.load(std::memory_order_relaxed)) /
             static_cast<double>(kEwmaScale);
  return out;
}

}  // namespace ensemble
