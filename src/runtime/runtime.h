// ShardRuntime — multi-core execution of many single-threaded endpoints.
//
// The paper's Ensemble stacks ran one event loop per process; this runtime
// scales the same machinery across cores without giving up the paper's
// single-threaded-stack discipline: N worker threads, each owning a disjoint
// set of GroupEndpoints plus its *own* network and timer heap, so every
// protocol stack, bypass route, transport packer, and buffer pool is touched
// by exactly one thread and the hot paths keep running lock-free.
//
// A worker drives its network through one contract, ShardNetwork
// (src/net/shard_network.h): Poll, IdleWait, timers, the waker, Release and
// Adopt, its own metrics and overload readings.  Two networks implement it,
// UdpNetwork and the in-process ChannelNetwork; the runtime names the backend
// only to construct it, to publish UDP ports across shards in Build(), and in
// the channel-only post-Stop sweep.
//
// Cross-shard traffic is confined to two kinds of queue, both the same shape
// (a mutex-guarded deque with a relaxed depth mirror; any thread pushes, the
// owner swaps the contents out and wakes after the push):
//
//   - one TASK queue per worker, swapped out at the top of each poll loop.
//     It carries harness control (start/stop/injected sends), member-targeted
//     work, steal requests and handoff steps.
//   - each endpoint's own queue for packets: for the UDP backend a real
//     socket (AddPeer() teaches each shard's UdpNetwork the ports of
//     endpoints living on other shards, so cross-shard datagrams are ordinary
//     loopback sends that land on the owning shard's socket); for the
//     in-process channel backend a mailbox (channel_network.h) that any
//     shard pushes into by endpoint id.
//
// Idle workers block in their network's IdleWait (UDP: sockets + eventfd
// wakeup; channel: eventfd only) instead of spinning; posting a task or
// pushing a packet wakes the owner through the network's COALESCED waker: a
// burst of posts between two of the owner's drain cycles costs one eventfd
// write.
//
// A worker never waits to post, so two workers flooding each other cannot
// deadlock.  A thread outside the runtime (the harness, a bench's pacing
// loop) is the one producer that can outrun the workers: it sleep-polls
// while the destination already holds kOutsidePostDepth tasks, which keeps
// the queue's memory bounded.
//
// Adaptive scheduling (work stealing): every worker publishes a relaxed
// events-per-cycle EWMA plus task-depth and busy-time accounting from its
// poll loop.  An idle worker that observes a sustained imbalance posts a
// steal request to the hottest shard; the victim quiesces one whole
// GroupEndpoint (flush staged traffic, invalidate its timers via a rebind
// epoch) and hands ownership to the thief over the task queues — the
// stack itself never sees a second thread.  Both backends hand off the same
// way: release the endpoint's binding (one ShardNetwork::ReleasedEndpoint),
// publish the new owner, adopt on the thief.  The endpoint's queue — the
// socket with its kernel receive queue, or the mailbox — stays put and keeps
// everything in flight in order, so nothing is lost or reordered across the
// migration.
//
// Lifecycle: construct → Build(n) → Start() → Post*/run → Stop().  Build and
// Start run on the caller's thread before any worker exists; after Start(),
// endpoints may only be touched from their owning worker (use PostToMember).
// After Stop() joins the workers, the caller may read everything again.

#ifndef ENSEMBLE_SRC_RUNTIME_RUNTIME_H_
#define ENSEMBLE_SRC_RUNTIME_RUNTIME_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/app/endpoint.h"
#include "src/net/udp.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/overload/manager.h"
#include "src/runtime/channel_network.h"
#include "src/util/waker.h"

namespace ensemble {

enum class ShardBackend {
  kUdp,      // Real kernel loopback sockets (the measured hot path).
  kChannel,  // In-process mailboxes only: the sharded analog of the simulator,
             // used by stress tests and environments without sockets.
};

struct ShardRuntimeConfig {
  ShardBackend backend = ShardBackend::kUdp;
  int num_workers = 1;
  EndpointConfig ep;
  NetBackendConfig net;          // UDP datapath backend + batch size.
  VTime poll_slice = Millis(5);  // Max idle block per worker loop iteration.
  // Work stealing: an idle or underloaded worker pulls whole groups off the
  // hottest shard (thresholds are fixed in runtime.cc).  Default off so
  // static placement, and every test's traffic accounting, is unchanged.
  bool steal = false;
  // End-to-end overload control (src/overload/): per-group send windows on
  // every member, a manager polled from the shard loops, and graduated
  // backpressure into the backends.  Default off: no gate, no polling.
  overload::OverloadConfig overload;
  // Optional explicit member → shard assignment (overrides the round-robin
  // group placement; entries clamped to [0, num_workers)).  The skew bench
  // uses it to build deliberately imbalanced placements.
  std::vector<int> initial_shard;
  // Optional application tap, called on the OWNING WORKER THREAD for every
  // delivery (after the built-in per-member counter).  Must not touch other
  // shards' state; payload slices must not outlive the callback unless
  // copied (receive buffers are pool-backed and shard-local).
  std::function<void(int member, const Event&)> on_deliver;
  // Per-shard trace ring size in events (rounded up to a power of two).
  size_t trace_capacity = 8192;
  // Flip the global trace switch on at Start().  Off keeps the hot-path cost
  // at one predicted branch; the compile-out build removes even that.
  bool trace_enabled = false;
};

// One task in a worker's queue: a control task, or a member-targeted task
// (re-routed if the member migrated between post and drain).  Packets never
// ride the task queues; they go straight to the destination endpoint's queue.
struct ShardMsg {
  std::function<void()> task;
  std::function<void(GroupEndpoint&)> member_task;
  int member = -1;    // >= 0: member_task target.
  uint64_t post_ns = 0;  // PostMsg stamp → sched.delivery_latency_ns.
};

struct TaskQueueStats {
  RelaxedCounter pushed;  // Tasks posted.
  RelaxedCounter popped;  // Tasks taken by the owner.
};

// One worker's task queue, built like a channel Mailbox: any thread pushes
// under the lock, and the owning worker takes everything queued at once.
// Unbounded and never refuses a push, so a poster never waits inside it;
// per-producer FIFO because one producer's pushes are serialized by the lock.
class TaskQueue {
 public:
  // Any thread.  Returns the depth after the push.
  size_t Push(ShardMsg msg) {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(msg));
    depth_.store(queue_.size(), std::memory_order_release);
    stats_.pushed++;
    return queue_.size();
  }
  // Owner: swaps everything queued now into `out`, which must be empty.
  void TakeAll(std::deque<ShardMsg>* out) {
    if (depth_.load(std::memory_order_acquire) == 0) {
      return;  // A push racing this load wakes the owner; the next take gets it.
    }
    std::lock_guard<std::mutex> lock(mu_);
    out->swap(queue_);
    depth_.store(0, std::memory_order_relaxed);
    stats_.popped += out->size();
  }
  // Relaxed mirror of the queue length, readable from any thread.
  size_t depth() const { return depth_.load(std::memory_order_relaxed); }
  const TaskQueueStats& stats() const { return stats_; }

 private:
  std::mutex mu_;
  std::deque<ShardMsg> queue_;  // Guarded by mu_.
  std::atomic<size_t> depth_{0};
  TaskQueueStats stats_;
};

// Per-shard load snapshot (relaxed reads; exact after Stop()).
struct ShardLoad {
  uint64_t events = 0;   // Cumulative events processed.
  uint64_t busy_ns = 0;  // Cumulative non-idle loop time.
  uint64_t loops = 0;    // Poll-loop iterations.
  int resident = 0;      // Endpoints currently owned.
  double ewma = 0;       // Events-per-cycle EWMA (the steal signal).
};

class ShardRuntime {
 public:
  // Tasks a thread outside the runtime may leave queued on one worker before
  // its next post waits for the worker to drain.  Workers never wait.
  static constexpr size_t kOutsidePostDepth = 1024;

  explicit ShardRuntime(ShardRuntimeConfig config);
  ~ShardRuntime();

  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  // Creates `n` endpoints partitioned into groups of `group_size` consecutive
  // members (0 = one group of everyone); each group is a separate view with
  // its own protocol session.  Groups are distributed round-robin across
  // shards so a group's traffic stays shard-local; when there are fewer
  // groups than workers (e.g. the single all-members group), members are
  // spread round-robin instead so every worker has work.
  // `config.initial_shard` overrides both.  Returns false if a backend
  // resource failed (no sockets).  Main thread, before Start().
  bool Build(int n, int group_size = 0);

  // Installs every group's initial view (compiling bypass routes), then
  // launches the worker threads.
  void Start();

  // Signals stop, wakes every worker, joins them, and runs a final drain so
  // staged traffic and pending tasks are accounted for.  Idempotent.
  void Stop();

  int n() const { return static_cast<int>(members_.size()); }
  int num_workers() const { return static_cast<int>(workers_.size()); }
  // CURRENT owner shard of a member (follows migrations; relaxed-exact).
  int ShardOf(int member) const {
    return owner_of_[static_cast<size_t>(member)].load(std::memory_order_acquire);
  }
  bool started() const { return started_; }

  // Enqueues a task on shard `s`'s queue and wakes the worker.  The task runs
  // on the worker thread at its loop top.  A worker never waits here; a
  // thread outside the runtime waits while the queue holds kOutsidePostDepth
  // tasks.
  void Post(int shard, std::function<void()> task);
  // Convenience: run `fn` on `member`'s owning worker with the endpoint.
  // Follows migrations: if the member moves between post and drain, the
  // message is re-routed to the new owner.
  void PostToMember(int member, std::function<void(GroupEndpoint&)> fn);

  // Requests migrating `member` to shard `to` (asynchronous; executes on the
  // owning worker; no-op if already there or a handoff is in flight).  The
  // same protocol the stealer uses — exposed for tests and benches.
  void MigrateMember(int member, int to);

  // Relaxed counters, safe to read from any thread while workers run:
  // deliveries (each member's GroupEndpoint::Stats::delivered) and completed
  // ownership handoffs.  Every other total is in SnapshotMetrics().
  uint64_t delivered(int member) const {
    return members_[static_cast<size_t>(member)]->stats().delivered.value();
  }
  uint64_t total_delivered() const;
  uint64_t steals() const { return steals_completed_.value(); }

  // Per-shard load snapshot (the stealing signal, exposed for benches).
  ShardLoad LoadOf(int shard) const;

  // The overload manager (nullptr unless config.overload.enabled).  Exposes
  // pressure, per-group send windows, and action counters; tests/benches may
  // also ForcePoll through it.
  overload::OverloadManager* overload_manager() { return overload_mgr_.get(); }

  // The unified metrics registry and the only aggregator of per-shard
  // counters: every network, task queue, waker, pool, endpoint and scheduler
  // counter is registered here during Build().  Callers may add their own
  // entries before Start().
  obs::MetricsRegistry& metrics() { return metrics_; }
  // Merged snapshot across shards (live = approximate, post-Stop = exact).
  obs::MetricsSnapshot SnapshotMetrics() const { return metrics_.Snapshot(); }
  // Chrome trace-event JSON of every shard's trace ring.  Meaningful content
  // requires trace_enabled (or obs::SetTraceEnabled) during the run; exact
  // after Stop().  False on I/O failure.
  bool WriteTrace(const std::string& path) const;
  // Every shard's trace events merged and time-ordered (exact after Stop(),
  // best-effort live).  Feed to CheckSpanShapes for migration/overload span
  // oracles.
  std::vector<obs::TraceEvent> TraceEvents() const;
  // True when no shard's ring overwrote events, i.e. TraceEvents() is the
  // complete emission history.  Span-shape checks are only sound when true;
  // raise ShardRuntimeConfig::trace_capacity if this comes back false.
  bool TraceComplete() const;

  // Main thread, only before Start() or after Stop().
  GroupEndpoint& member(int i) { return *members_[static_cast<size_t>(i)]; }

 private:
  static constexpr uint64_t kEwmaScale = 256;  // Fixed-point EWMA unit.

  struct ShardLoadStats {
    RelaxedCounter events;
    RelaxedCounter busy_ns;
    RelaxedCounter loops;
    RelaxedCounter steals_in;
    RelaxedCounter steals_out;
  };

  struct Worker {
    std::unique_ptr<ShardNetwork> net;  // Its waker wakes this worker.
    TaskQueue inbox;
    std::unique_ptr<obs::TraceRing> trace;  // This worker's event ring.
    std::thread thread;

    // Worker-local (owning thread only after Start).
    std::deque<ShardMsg> batch;     // DrainInbox's half of the inbox swap.
    std::deque<ShardMsg> deferred;  // Member tasks awaiting an adoption.
    std::vector<uint8_t> resident;                 // member → owned here?

    // Published for other threads (the steal signal).
    std::atomic<uint64_t> load_ewma{0};  // events/cycle × kEwmaScale.
    std::atomic<int> resident_count{0};
    ShardLoadStats stats;
  };

  void WorkerLoop(int shard);
  void RegisterMetrics();
  // Build() helper: constructs the overload manager, gates every member on
  // its group's send window, and wires signals/actions into the shards.
  void SetupOverload();
  size_t DrainInbox(int shard);
  size_t DrainDeferred(int shard);
  void ProcessMsg(int shard, ShardMsg msg);
  void PublishLoad(int shard, size_t events, uint64_t busy_ns);
  void IdleBlock(int shard);
  void MaybeSteal(int shard, int idle_streak, uint64_t* last_attempt_ns);
  void HandleStealRequest(int victim, int thief);
  // Handoff steps; the first argument names the worker each runs on (passed
  // explicitly — the post-Stop sweep replays tasks on the main thread).
  void StartHandoff(int shard, int member, int thief, bool from_steal);
  void FinishAdopt(int shard, int member, ShardNetwork::ReleasedEndpoint released,
                   bool from_steal, uint64_t start_ns);

  void WakeWorker(int shard);
  Waker& WakerOf(int shard);
  void PostMsg(int shard, ShardMsg msg);

  ShardRuntimeConfig config_;
  // Channel backend: every endpoint's mailbox.  Before workers, whose
  // networks point into it.
  MailboxTable mailboxes_;
  // Workers before members: member destructors detach from worker-owned nets.
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<GroupEndpoint>> members_;
  std::unique_ptr<std::atomic<int>[]> owner_of_;  // member index → owner shard.
  std::vector<EndpointId> all_ids_;     // member index → id.
  std::vector<std::vector<int>> groups_;  // group → member indices.
  std::unique_ptr<overload::OverloadManager> overload_mgr_;

  std::atomic<bool> steal_inflight_{false};  // One migration at a time.
  RelaxedCounter steals_completed_;
  RelaxedCounter steal_requests_;
  // Hot-path distributions (Observe is three relaxed increments; the one
  // NowNanos stamp per posted task is noise next to the queue+wakeup cost, so
  // these stay inside the tracing-off budget).
  obs::LatencyHistogram delivery_latency_;  // Task post → ProcessMsg, ns.
  obs::LatencyHistogram steal_duration_;    // StartHandoff → FinishAdopt, ns.

  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool joined_ = false;

  // Observability.  The registry holds pointers into workers_/members_, both
  // destroyed after it — declaration order here is irrelevant because the
  // registry itself never dereferences outside Snapshot(), which callers may
  // not invoke during destruction.
  obs::MetricsRegistry metrics_;
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_RUNTIME_RUNTIME_H_
