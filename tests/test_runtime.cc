// ShardRuntime: multi-core execution of single-threaded protocol stacks.
//
// The channel-backend tests run everywhere (no sockets needed) and double as
// the ThreadSanitizer targets (ci/run_tier1.sh --tsan); the UDP-backend
// tests skip when the environment has no sockets.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "src/net/udp.h"
#include "src/net/udp_uring.h"
#include "src/runtime/runtime.h"
#include "src/scenario/span_check.h"
#include "src/util/rng.h"

namespace ensemble {
namespace {

bool UdpAvailable() {
  UdpNetwork probe;
  probe.Attach(EndpointId{1}, [](const Packet&) {});
  return probe.ok();
}

EndpointConfig FastEndpointConfig() {
  EndpointConfig ep;
  ep.layers = FourLayerStack();
  ep.mode = StackMode::kMachine;
  ep.params.local_loopback = false;
  ep.params.stable_interval = 1u << 30;
  ep.timer_interval = Millis(1);
  return ep;
}

// Waits until `pred` holds or `ms` elapses; returns whether it held.
template <typename Pred>
bool WaitUntil(Pred pred, int ms) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Mailbox semantics on two bare channel networks (one thread): delivery on
// the owner's Poll in push order, drop-oldest past the shed keep under kill
// pressure, refused pushes once detached, and depth summed per owner.
TEST(ChannelNetworkTest, MailboxShedsOldestAndRefusesAfterDetach) {
  MailboxTable table;
  ChannelNetwork a(&table, /*shed_keep=*/3);
  ChannelNetwork b(&table);
  std::vector<uint8_t> got;
  b.Attach(EndpointId{2},
           [&got](const Packet& p) { got.push_back(p.datagram.data()[0]); });
  a.Attach(EndpointId{1}, [](const Packet&) {});
  a.SetPressure(2);
  for (uint8_t i = 0; i < 5; i++) {
    Bytes one = Bytes::CopyString(std::string(1, static_cast<char>(i)));
    a.Send(EndpointId{1}, EndpointId{2}, Iovec(one));
  }
  EXPECT_EQ(b.dispatch_depth(), 3u);  // Resident on b, whoever pushed.
  EXPECT_EQ(a.dispatch_depth(), 0u);
  EXPECT_EQ(a.overload_sheds(), 2u);
  EXPECT_EQ(a.Poll(), 0u);  // Nothing resident on `a` is waiting.
  EXPECT_EQ(b.Poll(), 3u);
  EXPECT_EQ(got, (std::vector<uint8_t>{2, 3, 4}));  // Newest three, in order.

  b.Detach(EndpointId{2});
  a.Send(EndpointId{1}, EndpointId{2}, Iovec(Bytes::CopyString("late")));
  a.Send(EndpointId{1}, EndpointId{9}, Iovec(Bytes::CopyString("nobody")));
  EXPECT_EQ(b.Poll(), 0u);
  EXPECT_EQ(a.stats().dropped.value(), 2u + 2u);  // Two sheds, two refusals.
  EXPECT_EQ(got.size(), 3u);
}

// The ShardNetwork contract on both backends, driven through the base class
// alone: timers fire from Poll in due order, an idle sleep ends at the next
// timer or at a waker poke from another thread, and Release/Adopt moves an
// endpoint's delivery to another network together with what is in flight.
class ShardNetworkTest : public ::testing::TestWithParam<const char*> {
 protected:
  bool udp() const { return std::string(GetParam()) == "udp"; }
  std::unique_ptr<ShardNetwork> Make() {
    if (!udp()) {
      return std::make_unique<ChannelNetwork>(&table_);
    }
    return std::make_unique<UdpNetwork>();
  }

  MailboxTable table_;
};

TEST_P(ShardNetworkTest, TimersIdleWaitAndHandoffThroughTheBase) {
  if (udp() && !UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
  std::unique_ptr<ShardNetwork> a = Make();
  std::unique_ptr<ShardNetwork> b = Make();
  std::vector<std::string> got;
  a->Attach(EndpointId{1}, [](const Packet&) {});
  a->Attach(EndpointId{2}, [&got](const Packet& p) { got.push_back(p.datagram.ToString()); });

  std::vector<int> fired;
  a->ScheduleTimer(Millis(2), [&fired] { fired.push_back(2); });
  a->ScheduleTimer(0, [&fired] { fired.push_back(0); });
  a->ScheduleTimer(Seconds(600), [&fired] { fired.push_back(600); });
  EXPECT_EQ(a->timer_depth(), 3u);
  EXPECT_EQ(a->Poll(), 1u);  // The due one only.
  uint64_t t0 = NowNanos();
  a->IdleWait(Seconds(30));  // Bounded by the 2 ms timer.
  EXPECT_LT(NowNanos() - t0, Seconds(10));
  for (int spins = 0; spins < 100000 && fired.size() < 2; spins++) {
    a->Poll();
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 2}));
  EXPECT_EQ(a->timer_depth(), 1u);

  // Only the 600 s timer is left: a poke from another thread ends the sleep.
  std::thread poker([&a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    a->waker().NotifyCoalesced();
  });
  t0 = NowNanos();
  a->IdleWait(Seconds(30));
  poker.join();
  EXPECT_LT(NowNanos() - t0, Seconds(10));

  a->Send(EndpointId{1}, EndpointId{2}, Iovec(Bytes::CopyString("in-flight")));
  a->Flush();
  ShardNetwork::ReleasedEndpoint released = a->Release(EndpointId{2});
  ASSERT_TRUE(released.valid);
  EXPECT_EQ(released.fd >= 0, udp());  // The socket travels.
  EXPECT_FALSE(a->Release(EndpointId{2}).valid);  // No longer resident on `a`.
  b->Adopt(EndpointId{2}, std::move(released));
  a->Send(EndpointId{1}, EndpointId{2}, Iovec(Bytes::CopyString("after")));
  a->Flush();
  // The channel mailbox stays put and now counts toward its new owner.
  EXPECT_EQ(b->dispatch_depth(), udp() ? 0u : 2u);
  for (int spins = 0; spins < 100000 && got.size() < 2; spins++) {
    a->Poll();
    b->Poll();
  }
  EXPECT_EQ(got, (std::vector<std::string>{"in-flight", "after"}));
  EXPECT_EQ(a->stats().delivered.value(), 0u);
  EXPECT_EQ(b->stats().delivered.value(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ShardNetworkTest, ::testing::Values("channel", "udp"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// A worker's task queue reports its length through a relaxed depth mirror
// (the steal score and the outside-poster bound read it), and a take hands
// over everything queued, in push order.
TEST(TaskQueueTest, DepthMirrorTracksPushesAndTakes) {
  TaskQueue queue;
  std::vector<int> ran;
  for (int i = 0; i < 3; i++) {
    ShardMsg msg;
    msg.task = [&ran, i] { ran.push_back(i); };
    EXPECT_EQ(queue.Push(std::move(msg)), static_cast<size_t>(i + 1));
    EXPECT_EQ(queue.depth(), static_cast<size_t>(i + 1));
  }
  std::deque<ShardMsg> batch;
  queue.TakeAll(&batch);
  EXPECT_EQ(queue.depth(), 0u);
  for (ShardMsg& msg : batch) {
    msg.task();
  }
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2}));
  batch.clear();
  queue.TakeAll(&batch);  // Empty queue: nothing handed over.
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(queue.stats().pushed.value(), 3u);
  EXPECT_EQ(queue.stats().popped.value(), 3u);
}

// Multi-producer property of a worker's task queue: P producer threads each
// push a tagged ascending sequence while one consumer takes batches and runs
// them.  Checks: per-producer FIFO, nothing lost, nothing duplicated.
TEST(TaskQueueTest, MultiProducerFifoPerProducerNoLossNoDup) {
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 20000;
  TaskQueue queue;
  uint64_t got = 0;  // Written by each task, on the consumer thread.

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; p++) {
    producers.emplace_back([&queue, &got, p] {
      Rng rng(0xABCD + static_cast<uint64_t>(p));
      for (uint64_t i = 0; i < kPerProducer; i++) {
        uint64_t tagged = (static_cast<uint64_t>(p) << 32) | i;
        ShardMsg msg;
        msg.task = [&got, tagged] { got = tagged; };
        queue.Push(std::move(msg));
        if (rng.Chance(0.01)) {
          std::this_thread::yield();  // Jitter the interleaving.
        }
      }
    });
  }

  uint64_t next_expected[kProducers] = {0, 0, 0, 0};
  uint64_t total = 0;
  std::deque<ShardMsg> batch;
  while (total < kProducers * kPerProducer) {
    queue.TakeAll(&batch);
    if (batch.empty()) {
      std::this_thread::yield();
      continue;
    }
    for (ShardMsg& msg : batch) {
      msg.task();
      int p = static_cast<int>(got >> 32);
      uint64_t seq = got & 0xFFFFFFFFull;
      ASSERT_LT(p, kProducers);
      ASSERT_EQ(seq, next_expected[p]) << "producer " << p << " order broken";
      next_expected[p]++;
      total++;
    }
    batch.clear();
  }
  for (auto& t : producers) {
    t.join();
  }
  queue.TakeAll(&batch);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(queue.depth(), 0u);
  for (int p = 0; p < kProducers; p++) {
    EXPECT_EQ(next_expected[p], kPerProducer);
  }
  EXPECT_EQ(queue.stats().pushed.value(), kProducers * kPerProducer);
  EXPECT_EQ(queue.stats().popped.value(), kProducers * kPerProducer);
}

TEST(ShardRuntimeTest, ChannelBackendCastCrossesShards) {
  ShardRuntimeConfig config;
  config.backend = ShardBackend::kChannel;
  config.num_workers = 2;
  config.ep = FastEndpointConfig();

  ShardRuntime rt(config);
  ASSERT_TRUE(rt.Build(4));  // One 4-member group spread over 2 shards.
  EXPECT_NE(rt.ShardOf(0), rt.ShardOf(1));  // Members alternate shards.
  rt.Start();
  for (int i = 0; i < 4; i++) {
    rt.PostToMember(i, [](GroupEndpoint& ep) {
      ep.Cast(Iovec(Bytes::CopyString("hello-across")));
    });
  }
  bool done = WaitUntil([&] { return rt.total_delivered() >= 4u * 3u; }, 5000);
  rt.Stop();
  EXPECT_TRUE(done);
  for (int i = 0; i < 4; i++) {
    EXPECT_EQ(rt.delivered(i), 3u) << "member " << i;
  }
  // Members live on both shards, yet the casts crossed through mailboxes:
  // the task queues carried exactly the 4 posted tasks.
  obs::MetricsSnapshot snap = rt.SnapshotMetrics();
  EXPECT_EQ(snap.Value("task.pushed"), 4u);
  EXPECT_EQ(snap.Value("task.pushed"), snap.Value("task.popped"));  // Final drain ran.
}

TEST(ShardRuntimeTest, GroupsStayShardLocal) {
  ShardRuntimeConfig config;
  config.backend = ShardBackend::kChannel;
  config.num_workers = 2;
  config.ep = FastEndpointConfig();

  ShardRuntime rt(config);
  // 4 groups of 2: each pair shares a shard, so pair traffic stays local.
  ASSERT_TRUE(rt.Build(8, /*group_size=*/2));
  for (int g = 0; g < 4; g++) {
    EXPECT_EQ(rt.ShardOf(2 * g), rt.ShardOf(2 * g + 1)) << "group " << g;
  }
  rt.Start();
  // Pt2pt send to the pair partner: rank 0 sends to rank 1 and vice versa,
  // so all payload traffic is shard-local.
  for (int i = 0; i < 8; i++) {
    Rank peer = (i % 2 == 0) ? 1 : 0;
    rt.PostToMember(i, [peer](GroupEndpoint& ep) {
      ep.Send(peer, Iovec(Bytes::CopyString("pairwise")));
    });
  }
  bool done = WaitUntil([&] { return rt.total_delivered() >= 8u; }, 5000);
  rt.Stop();
  EXPECT_TRUE(done);
  // Packets never ride the task queues: they carried only the 8 posted tasks.
  obs::MetricsSnapshot snap = rt.SnapshotMetrics();
  EXPECT_EQ(snap.Value("net.dropped"), 0u);
  EXPECT_EQ(snap.Value("task.pushed"), 8u);
}

TEST(ShardRuntimeTest, OnDeliverTapRunsOnOwningWorker) {
  ShardRuntimeConfig config;
  config.backend = ShardBackend::kChannel;
  config.num_workers = 2;
  config.ep = FastEndpointConfig();
  std::atomic<uint64_t> tapped{0};
  config.on_deliver = [&](int member, const Event& ev) {
    if (ev.type == EventType::kDeliverCast) {
      tapped.fetch_add(1, std::memory_order_relaxed);
    }
  };

  ShardRuntime rt(config);
  ASSERT_TRUE(rt.Build(2));
  rt.Start();
  rt.PostToMember(0, [](GroupEndpoint& ep) {
    ep.Cast(Iovec(Bytes::CopyString("tap")));
  });
  bool done = WaitUntil([&] { return rt.delivered(1) >= 1u; }, 5000);
  rt.Stop();
  EXPECT_TRUE(done);
  EXPECT_GE(tapped.load(), 1u);
}

// The TSan target: sustained traffic from every member across 4 workers with
// packing + batching on, harness posts racing worker loops, stats read live
// while workers run.  Any cross-shard ordering bug shows up here.
TEST(ShardRuntimeStressTest, MultiWorkerSustainedTrafficIsRaceFree) {
  ShardRuntimeConfig config;
  config.backend = ShardBackend::kChannel;
  config.num_workers = 4;
  config.ep = FastEndpointConfig();
  config.ep.pack_messages = true;
  config.ep.pack_window = 8;

  ShardRuntime rt(config);
  constexpr int kMembers = 8;
  constexpr int kRounds = 25;
  ASSERT_TRUE(rt.Build(kMembers));  // One group spread across all 4 shards.
  rt.Start();
  for (int round = 0; round < kRounds; round++) {
    for (int i = 0; i < kMembers; i++) {
      rt.PostToMember(i, [round](GroupEndpoint& ep) {
        ep.Cast(Iovec(Bytes::CopyString("r" + std::to_string(round))));
      });
    }
    // Live cross-thread reads while the workers churn (the point of TSan).
    (void)rt.total_delivered();
    (void)rt.SnapshotMetrics();
  }
  const uint64_t want = static_cast<uint64_t>(kMembers) * (kMembers - 1) * kRounds;
  bool done = WaitUntil([&] { return rt.total_delivered() >= want; }, 20000);
  rt.Stop();
  EXPECT_TRUE(done) << "delivered " << rt.total_delivered() << " of " << want;
  EXPECT_EQ(rt.total_delivered(), want);
  obs::MetricsSnapshot snap = rt.SnapshotMetrics();
  EXPECT_EQ(snap.Value("task.pushed"), snap.Value("task.popped"));
}

TEST(ShardRuntimeTest, UdpBackendCastCrossesShards) {
  if (!UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
  ShardRuntimeConfig config;
  config.backend = ShardBackend::kUdp;
  config.num_workers = 2;
  config.ep = FastEndpointConfig();

  ShardRuntime rt(config);
  ASSERT_TRUE(rt.Build(4));
  rt.Start();
  for (int i = 0; i < 4; i++) {
    rt.PostToMember(i, [](GroupEndpoint& ep) {
      ep.Cast(Iovec(Bytes::CopyString("kernel-plane")));
    });
  }
  bool done = WaitUntil([&] { return rt.total_delivered() >= 4u * 3u; }, 5000);
  rt.Stop();
  EXPECT_TRUE(done) << "delivered " << rt.total_delivered();
  obs::MetricsSnapshot snap = rt.SnapshotMetrics();
  EXPECT_GT(snap.Value("net.sent"), 0u);
  EXPECT_GT(snap.Value("net.delivered"), 0u);
}

TEST(ShardRuntimeTest, UdpBackendWithBatchingAndPacking) {
  if (!UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
  ShardRuntimeConfig config;
  config.backend = ShardBackend::kUdp;
  config.num_workers = 2;
  config.ep = FastEndpointConfig();
  config.ep.pack_messages = true;
  config.ep.pack_window = 8;
  config.net = NetBackendConfig::Batched(16);

  ShardRuntime rt(config);
  constexpr int kMembers = 4;
  constexpr int kCasts = 10;
  ASSERT_TRUE(rt.Build(kMembers));
  rt.Start();
  for (int i = 0; i < kMembers; i++) {
    for (int c = 0; c < kCasts; c++) {
      rt.PostToMember(i, [](GroupEndpoint& ep) {
        ep.Cast(Iovec(Bytes::CopyString("burst")));
      });
    }
  }
  const uint64_t want = static_cast<uint64_t>(kMembers) * (kMembers - 1) * kCasts;
  bool done = WaitUntil([&] { return rt.total_delivered() >= want; }, 10000);
  rt.Stop();
  EXPECT_TRUE(done) << "delivered " << rt.total_delivered() << " of " << want;
}

// Same sharded workload, io_uring datapath: every worker's UdpNetwork runs
// the ring engine (multishot recv + batched GSO sends), cross-shard traffic
// flows entirely through io_uring_enter, and the packed casts still land.
TEST(ShardRuntimeTest, UdpBackendOverUringRings) {
  if (!UdpAvailable() || !UringEngine::Available()) {
    GTEST_SKIP() << "no io_uring in this environment";
  }
  ShardRuntimeConfig config;
  config.backend = ShardBackend::kUdp;
  config.num_workers = 2;
  config.ep = FastEndpointConfig();
  config.ep.pack_messages = true;
  config.ep.pack_window = 8;
  config.net = NetBackendConfig::Uring(16);

  ShardRuntime rt(config);
  constexpr int kMembers = 4;
  constexpr int kCasts = 10;
  ASSERT_TRUE(rt.Build(kMembers));
  rt.Start();
  for (int i = 0; i < kMembers; i++) {
    for (int c = 0; c < kCasts; c++) {
      rt.PostToMember(i, [](GroupEndpoint& ep) {
        ep.Cast(Iovec(Bytes::CopyString("burst")));
      });
    }
  }
  const uint64_t want = static_cast<uint64_t>(kMembers) * (kMembers - 1) * kCasts;
  bool done = WaitUntil([&] { return rt.total_delivered() >= want; }, 10000);
  rt.Stop();
  EXPECT_TRUE(done) << "delivered " << rt.total_delivered() << " of " << want;
  obs::MetricsSnapshot snap = rt.SnapshotMetrics();
  EXPECT_GT(snap.Value("net.uring_enters"), 0u);
  EXPECT_GT(snap.Value("net.uring_sqes"), 0u);
  EXPECT_EQ(snap.Value("net.send_syscalls"), 0u);  // No sendmsg/sendmmsg ran.
  EXPECT_EQ(snap.Value("net.dropped"), 0u);
}

// The scheduler histograms fill from the hot path: every ring task observes
// into sched.delivery_latency_ns, every completed handoff into
// sched.steal_duration_ns.
TEST(ShardRuntimeTest, SchedHistogramsFillFromHotPath) {
  ShardRuntimeConfig config;
  config.backend = ShardBackend::kChannel;
  config.num_workers = 2;
  config.ep = FastEndpointConfig();

  ShardRuntime rt(config);
  ASSERT_TRUE(rt.Build(4));
  rt.Start();
  for (int i = 0; i < 4; i++) {
    rt.PostToMember(i, [](GroupEndpoint& ep) {
      ep.Cast(Iovec(Bytes::CopyString("ping")));
    });
  }
  ASSERT_TRUE(WaitUntil([&] { return rt.total_delivered() >= 12u; }, 5000));
  rt.MigrateMember(0, 1);
  ASSERT_TRUE(WaitUntil([&] { return rt.ShardOf(0) == 1; }, 5000));
  rt.Stop();

  obs::MetricsSnapshot snap = rt.metrics().Snapshot();
  const obs::Sample* latency = snap.Find("sched.delivery_latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->count, 0u);
  EXPECT_GT(latency->sum, 0u);
  const obs::Sample* steal = snap.Find("sched.steal_duration_ns");
  ASSERT_NE(steal, nullptr);
  EXPECT_EQ(steal->count, rt.steals());
  EXPECT_GT(steal->sum, 0u);
}

// ---- Adaptive scheduler: handoff, stealing, task floods ---------------------

// Sequence-stamped pair traffic driven from the on_deliver tap: each member
// sends monotonically numbered messages to its pair partner and checks that
// what it receives is exactly 0,1,2,... — any loss or per-sender reorder
// (e.g. across an ownership handoff) trips `in_order`.
struct SeqTap {
  std::atomic<uint64_t> next_tx[8]{};
  std::atomic<uint64_t> next_rx[8]{};
  std::atomic<bool> in_order{true};
  std::atomic<bool> echo{true};
};

Bytes SeqPayload(uint64_t seq) {
  Bytes b = Bytes::Allocate(16);
  std::memset(b.MutableData(), 0, 16);
  std::memcpy(b.MutableData(), &seq, sizeof(seq));
  return b;
}

void WireSeqTap(ShardRuntimeConfig* config, SeqTap* tap,
                std::vector<GroupEndpoint*>* eps) {
  config->on_deliver = [tap, eps](int member, const Event& ev) {
    if (ev.type != EventType::kDeliverSend) {
      return;
    }
    Bytes flat = ev.payload.Flatten();
    uint64_t seq = 0;
    std::memcpy(&seq, flat.data(), sizeof(seq));
    if (seq != tap->next_rx[member].fetch_add(1, std::memory_order_relaxed)) {
      tap->in_order.store(false, std::memory_order_relaxed);
    }
    if (!tap->echo.load(std::memory_order_relaxed)) {
      return;
    }
    Rank partner = member % 2 == 0 ? 1 : 0;
    uint64_t out = tap->next_tx[member].fetch_add(1, std::memory_order_relaxed);
    (*eps)[static_cast<size_t>(member)]->Send(partner, Iovec(SeqPayload(out)));
  };
}

// Migration oracle over the merged trace rings: every handoff_start must
// close with an adopt on the shard it aimed at, with no overlapping spans
// per member — the *shape* is the scheduler contract; the count of completed
// spans is just its cardinality.  The rings also carry hot-path events and
// overwrite oldest-first, so when the free-running echo traffic wrapped a
// ring (or tracing is compiled out) the check degrades to the raw steal
// counter instead of judging a truncated trace.
void ExpectMigrationSpans(ShardRuntime& rt, size_t want_completed) {
  if (!obs::kTraceCompiledIn || !rt.TraceComplete()) {
    EXPECT_EQ(rt.steals(), want_completed);
    return;
  }
  SpanCheckResult spans = CheckSpanShapes(rt.TraceEvents());
  EXPECT_TRUE(spans.ok) << spans.ToString();
  EXPECT_EQ(spans.migrations_completed, want_completed) << spans.ToString();
  EXPECT_EQ(spans.migrations_open, 0u) << spans.ToString();
}

// Prime a pair's even member with `window` in-flight messages.
void PrimePair(ShardRuntime* rt, SeqTap* tap, int even_member, int window) {
  rt->PostToMember(even_member, [tap, even_member, window](GroupEndpoint& ep) {
    for (int i = 0; i < window; i++) {
      uint64_t seq =
          tap->next_tx[even_member].fetch_add(1, std::memory_order_relaxed);
      ep.Send(1, Iovec(SeqPayload(seq)));
    }
  });
}

// One handoff protocol on every datapath: the channel mailbox and the UDP
// socket over eager, mmsg and uring.  A pair exchanges sequence-stamped
// traffic while both members move to shard 1 one at a time (the pair
// straddles shards in between) and back, and the stream must stay gapless
// and lossless.  The `channel_timers_off` instance runs with no endpoint
// timers and a 30 s idle block: a push that woke a stale owner would stall
// it, with no timer tick to rescue the packet.  The `uring_unavailable`
// instance requests uring with io_uring forced unavailable, so the mmsg
// fallback runs on every host and must keep the same guarantees.
struct Datapath {
  const char* name;
  ShardBackend backend;
  NetBackend net;     // Requested UDP datapath.
  NetBackend active;  // What every shard's backend_active must report.
  bool timers_off;
  bool uring_unavailable;
};

void PrintTo(const Datapath& path, std::ostream* os) { *os << path.name; }

// Sets `config` up for `path` on FastEndpointConfig endpoints.  Returns why
// the datapath cannot run in this environment, or "" when it can.
std::string ConfigureDatapath(const Datapath& path, ShardRuntimeConfig* config) {
  config->backend = path.backend;
  config->ep = FastEndpointConfig();
  if (path.timers_off) {
    config->ep.timer_interval = 0;
    config->poll_slice = Seconds(30);
  }
  if (path.backend != ShardBackend::kUdp) {
    return "";
  }
  if (!UdpAvailable()) {
    return "no UDP sockets in this environment";
  }
  if (path.active == NetBackend::kUring && !UringEngine::Available()) {
    return "no io_uring in this environment";
  }
  switch (path.net) {
    case NetBackend::kMmsg: config->net = NetBackendConfig::Batched(16); break;
    case NetBackend::kUring: config->net = NetBackendConfig::Uring(16); break;
    default: config->net = NetBackendConfig::Eager(); break;
  }
  return "";
}

class ShardRuntimeHandoffTest : public ::testing::TestWithParam<Datapath> {
 protected:
  void SetUp() override {
    if (GetParam().uring_unavailable) {
      UringEngine::ForceAvailabilityForTest(0);
    }
  }
  void TearDown() override { UringEngine::ForceAvailabilityForTest(-1); }
};

TEST_P(ShardRuntimeHandoffTest, MigrateKeepsFifoWithTrafficInFlight) {
  const Datapath& path = GetParam();
  ShardRuntimeConfig config;
  if (std::string why = ConfigureDatapath(path, &config); !why.empty()) {
    GTEST_SKIP() << why;
  }
  config.num_workers = 2;
  config.ep.params.pt2pt_window = 1u << 30;
  config.trace_enabled = true;        // Migration spans judged from the trace.
  config.trace_capacity = 1u << 18;  // Hot-path events share the rings.
  SeqTap tap;
  std::vector<GroupEndpoint*> eps(4, nullptr);
  WireSeqTap(&config, &tap, &eps);

  ShardRuntime rt(config);
  ASSERT_TRUE(rt.Build(4, /*group_size=*/2));  // Pair (0,1) on shard 0.
  ASSERT_EQ(rt.ShardOf(0), 0);
  ASSERT_EQ(rt.ShardOf(1), 0);
  for (int i = 0; i < 4; i++) {
    eps[static_cast<size_t>(i)] = &rt.member(i);
  }
  rt.Start();
  PrimePair(&rt, &tap, 0, 8);
  ASSERT_TRUE(WaitUntil([&] { return rt.total_delivered() >= 100u; }, 5000));

  for (int to : {1, 0}) {
    rt.MigrateMember(0, to);
    rt.MigrateMember(1, to);
    ASSERT_TRUE(WaitUntil(
        [&] { return rt.ShardOf(0) == to && rt.ShardOf(1) == to; }, 5000));
    uint64_t mark = rt.total_delivered();
    ASSERT_TRUE(WaitUntil([&] { return rt.total_delivered() >= mark + 100u; }, 5000));
  }

  tap.echo.store(false);
  // Echo off stops new sends.  Wait for both streams to quiesce BEFORE
  // Stop(): datagrams still sitting in kernel queues at shutdown would read
  // as loss.
  ASSERT_TRUE(WaitUntil(
      [&] {
        return tap.next_rx[1].load() == tap.next_tx[0].load() &&
               tap.next_rx[0].load() == tap.next_tx[1].load();
      },
      5000));
  rt.Stop();
  EXPECT_TRUE(tap.in_order.load()) << "per-sender FIFO broke across a handoff";
  ExpectMigrationSpans(rt, 4u);  // Four matched handoff→adopt spans.
  // Lossless: everything each member sent arrived at its partner.
  EXPECT_EQ(tap.next_rx[1].load(), tap.next_tx[0].load());
  EXPECT_EQ(tap.next_rx[0].load(), tap.next_tx[1].load());
  obs::MetricsSnapshot snap = rt.SnapshotMetrics();
  EXPECT_EQ(snap.Value("net.dropped"), 0u);
  // Every shard's net.shard<N>.backend_active names the datapath that ran
  // (eager on the channel backend, mmsg where uring was refused).
  for (int s = 0; s < rt.num_workers(); s++) {
    std::string name = "net.shard" + std::to_string(s) + ".backend_active";
    const obs::Sample* active = snap.Find(name);
    ASSERT_NE(active, nullptr) << name;
    EXPECT_EQ(active->value, static_cast<uint64_t>(path.active)) << name;
  }
  // A gauge never merges across sources, so two shards registering one
  // name would hide all but the last: every gauge has exactly one source.
  for (const obs::Sample& sample : snap.samples) {
    if (sample.kind == obs::MetricKind::kGauge) {
      EXPECT_EQ(sample.sources, 1) << sample.name;
    }
  }
}

// A cast reaches the members of the sender's view and nothing else: two
// pair groups share the runtime (one shard, then one shard each), member 0
// casts, and only its partner delivers.  Every group starts in the same view
// id, so a cast that reached the other pair would be delivered there.
TEST_P(ShardRuntimeHandoffTest, CastReachesOnlyItsGroup) {
  constexpr uint64_t kCasts = 10;
  for (int workers : {1, 2}) {
    SCOPED_TRACE(std::to_string(workers) + " worker(s)");
    ShardRuntimeConfig config;
    if (std::string why = ConfigureDatapath(GetParam(), &config); !why.empty()) {
      GTEST_SKIP() << why;
    }
    config.num_workers = workers;
    ShardRuntime rt(config);
    ASSERT_TRUE(rt.Build(4, /*group_size=*/2));  // Groups {0,1} and {2,3}.
    rt.Start();
    for (uint64_t i = 0; i < kCasts; i++) {
      rt.PostToMember(0, [](GroupEndpoint& ep) {
        ep.Cast(Iovec(Bytes::CopyString("in-group")));
      });
    }
    bool done = WaitUntil([&] { return rt.delivered(1) >= kCasts; }, 5000);
    // Give a misrouted cast the same time again to land before judging.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    rt.Stop();
    EXPECT_TRUE(done);
    EXPECT_EQ(rt.delivered(1), kCasts);
    EXPECT_EQ(rt.delivered(0), 0u);  // No local loopback.
    EXPECT_EQ(rt.delivered(2), 0u);
    EXPECT_EQ(rt.delivered(3), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Datapaths, ShardRuntimeHandoffTest,
    ::testing::Values(Datapath{"channel", ShardBackend::kChannel, NetBackend::kEager,
                               NetBackend::kEager, false, false},
                      Datapath{"channel_timers_off", ShardBackend::kChannel,
                               NetBackend::kEager, NetBackend::kEager, true, false},
                      Datapath{"eager", ShardBackend::kUdp, NetBackend::kEager,
                               NetBackend::kEager, false, false},
                      Datapath{"mmsg", ShardBackend::kUdp, NetBackend::kMmsg,
                               NetBackend::kMmsg, false, false},
                      Datapath{"uring", ShardBackend::kUdp, NetBackend::kUring,
                               NetBackend::kUring, false, false},
                      Datapath{"uring_unavailable", ShardBackend::kUdp, NetBackend::kUring,
                               NetBackend::kMmsg, false, true}),
    [](const ::testing::TestParamInfo<Datapath>& info) {
      return std::string(info.param.name);
    });

// Stealing policy end to end: all four pairs start on shard 0, the idle
// worker notices and pulls whole groups over until both shards carry load.
TEST(ShardRuntimeTest, StealingRebalancesSkewedPlacement) {
  ShardRuntimeConfig config;
  config.backend = ShardBackend::kChannel;
  config.num_workers = 2;
  config.ep = FastEndpointConfig();
  config.ep.params.pt2pt_window = 1u << 30;
  config.initial_shard = std::vector<int>(8, 0);  // Everyone on shard 0.
  config.steal = true;
  config.trace_enabled = true;
  config.trace_capacity = 1u << 18;
  SeqTap tap;
  std::vector<GroupEndpoint*> eps(8, nullptr);
  WireSeqTap(&config, &tap, &eps);

  ShardRuntime rt(config);
  ASSERT_TRUE(rt.Build(8, /*group_size=*/2));
  for (int i = 0; i < 8; i++) {
    ASSERT_EQ(rt.ShardOf(i), 0);
    eps[static_cast<size_t>(i)] = &rt.member(i);
  }
  rt.Start();
  for (int p = 0; p < 4; p++) {
    PrimePair(&rt, &tap, 2 * p, 8);
  }
  // One whole-group steal = two member adoptions.
  bool rebalanced = WaitUntil(
      [&] { return rt.steals() >= 2 && rt.LoadOf(1).resident >= 2; }, 10000);
  tap.echo.store(false);
  rt.Stop();
  EXPECT_TRUE(rebalanced) << "steals=" << rt.steals();
  obs::MetricsSnapshot snap = rt.SnapshotMetrics();
  EXPECT_GE(snap.Value("sched.steal_requests"), 1u);
  EXPECT_GT(snap.Value("waker.notifies"), 0u);  // Posts woke sleeping workers.
  if (obs::kTraceCompiledIn && rt.TraceComplete()) {
    // Policy-driven steals: the count varies with timing and another may be
    // mid-flight at Stop(), but every completed span must be well shaped and
    // the whole-group rebalance needs at least two of them.
    SpanCheckOptions opts;
    opts.require_migrations_closed = false;
    SpanCheckResult spans = CheckSpanShapes(rt.TraceEvents(), opts);
    EXPECT_TRUE(spans.ok) << spans.ToString();
    EXPECT_GE(spans.migrations_completed, 2u) << spans.ToString();
  }
  EXPECT_GE(rt.LoadOf(1).resident, 2);
  // Groups move whole: pairs still share a shard after rebalancing.
  for (int p = 0; p < 4; p++) {
    EXPECT_EQ(rt.ShardOf(2 * p), rt.ShardOf(2 * p + 1)) << "pair " << p;
  }
  EXPECT_TRUE(tap.in_order.load());
}

// Worker-to-worker task floods: each wave posts one task to each member of a
// pair split across both shards, and that task posts `per_wave`
// sequence-stamped tasks to its partner.  Every flood task checks it runs in
// per-sender order.
void FloodPartnerTasks(ShardRuntime* rt, SeqTap* tap, int waves, int per_wave) {
  for (int wave = 0; wave < waves; wave++) {
    for (int m = 0; m < 2; m++) {
      rt->PostToMember(m, [rt, tap, m, per_wave](GroupEndpoint&) {
        int partner = 1 - m;
        for (int i = 0; i < per_wave; i++) {
          uint64_t seq = tap->next_tx[m].fetch_add(1, std::memory_order_relaxed);
          rt->PostToMember(partner, [tap, partner, seq](GroupEndpoint&) {
            if (seq != tap->next_rx[partner].fetch_add(1, std::memory_order_relaxed)) {
              tap->in_order.store(false, std::memory_order_relaxed);
            }
          });
        }
      });
    }
  }
}

uint64_t FloodTasksRun(const SeqTap& tap) {
  return tap.next_rx[0].load() + tap.next_rx[1].load();
}

// Two workers post hard at each other: one burst, or ten sustained waves from
// both directions.  A worker never waits to post, so neither can wedge the
// other; both drain, and every task runs in per-sender order.
struct Flood {
  const char* name;
  int waves;
  int per_wave;
};

void PrintTo(const Flood& flood, std::ostream* os) { *os << flood.name; }

class ShardRuntimeFloodTest : public ::testing::TestWithParam<Flood> {};

TEST_P(ShardRuntimeFloodTest, WorkerToWorkerFloodDrainsInOrder) {
  const Flood& flood = GetParam();
  ShardRuntimeConfig config;
  config.backend = ShardBackend::kChannel;
  config.num_workers = 2;
  config.ep = FastEndpointConfig();
  SeqTap tap;

  ShardRuntime rt(config);
  ASSERT_TRUE(rt.Build(2));  // One pair spread across both shards.
  ASSERT_NE(rt.ShardOf(0), rt.ShardOf(1));
  rt.Start();
  FloodPartnerTasks(&rt, &tap, flood.waves, flood.per_wave);
  const uint64_t total = 2ull * static_cast<uint64_t>(flood.waves * flood.per_wave);
  bool done = WaitUntil([&] { return FloodTasksRun(tap) >= total; }, 20000);
  rt.Stop();
  EXPECT_TRUE(done) << "ran " << FloodTasksRun(tap);
  EXPECT_TRUE(tap.in_order.load());
  obs::MetricsSnapshot snap = rt.SnapshotMetrics();
  EXPECT_EQ(snap.Value("task.pushed"), snap.Value("task.popped"));
}

INSTANTIATE_TEST_SUITE_P(
    Floods, ShardRuntimeFloodTest,
    ::testing::Values(Flood{"one_burst", 1, 400}, Flood{"ten_waves", 10, 400}),
    [](const ::testing::TestParamInfo<Flood>& info) {
      return std::string(info.param.name);
    });

// The one producer that can outrun the workers is a thread outside the
// runtime.  It floods one worker with tasks slower than its posts, so its
// posts wait while that queue holds kOutsidePostDepth tasks: the depth after
// every push (the kRingPush event's b field, read from this thread's own
// trace ring) reaches the bound and never passes it, and every task runs.
TEST(ShardRuntimeTest, OutsideThreadFloodStaysWithinDepthBound) {
  ShardRuntimeConfig config;
  config.backend = ShardBackend::kChannel;
  config.num_workers = 2;
  config.ep = FastEndpointConfig();
  config.trace_enabled = true;
  constexpr size_t kBound = ShardRuntime::kOutsidePostDepth;
  constexpr size_t kTasks = 3 * kBound;
  obs::TraceRing mine(4 * kTasks, /*shard=*/0);
  std::atomic<uint64_t> ran{0};

  ShardRuntime rt(config);
  ASSERT_TRUE(rt.Build(2));
  rt.Start();
  obs::InstallThreadTraceRing(&mine);
  for (size_t i = 0; i < kTasks; i++) {
    rt.Post(0, [&ran] {
      uint64_t until = NowNanos() + 20'000;
      while (NowNanos() < until) {
      }
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  obs::InstallThreadTraceRing(nullptr);
  bool done = WaitUntil([&] { return ran.load() >= kTasks; }, 20000);
  rt.Stop();
  EXPECT_TRUE(done) << "ran " << ran.load() << " of " << kTasks;
  EXPECT_EQ(ran.load(), kTasks);
  obs::MetricsSnapshot snap = rt.SnapshotMetrics();
  EXPECT_EQ(snap.Value("task.pushed"), kTasks);
  EXPECT_EQ(snap.Value("task.popped"), kTasks);
  if (obs::kTraceCompiledIn) {
    ASSERT_EQ(mine.dropped(), 0u);
    size_t pushes = 0;
    uint64_t peak = 0;
    for (const obs::TraceEvent& e : mine.Snapshot()) {
      if (e.kind == static_cast<uint16_t>(obs::TraceKind::kRingPush)) {
        pushes++;
        peak = std::max(peak, e.b);
      }
    }
    EXPECT_EQ(pushes, kTasks);
    EXPECT_EQ(peak, kBound);  // Reached, so the wait ran; never passed.
  }
}

// TSan target: repeated ownership handoffs while every pair keeps traffic in
// flight and the main thread reads live stats.  Any missing synchronization
// in the steal/task-queue/wakeup paths shows up here.
TEST(ShardRuntimeStressTest, MigrationUnderSustainedTrafficIsRaceFree) {
  ShardRuntimeConfig config;
  config.backend = ShardBackend::kChannel;
  config.num_workers = 4;
  config.ep = FastEndpointConfig();
  config.ep.params.pt2pt_window = 1u << 30;
  SeqTap tap;
  std::vector<GroupEndpoint*> eps(8, nullptr);
  WireSeqTap(&config, &tap, &eps);

  ShardRuntime rt(config);
  ASSERT_TRUE(rt.Build(8, /*group_size=*/2));  // Pair p starts on shard p.
  for (int i = 0; i < 8; i++) {
    eps[static_cast<size_t>(i)] = &rt.member(i);
  }
  rt.Start();
  for (int p = 0; p < 4; p++) {
    PrimePair(&rt, &tap, 2 * p, 4);
  }
  for (int round = 0; round < 16; round++) {
    int pair = round % 4;
    int to = (rt.ShardOf(2 * pair) + 1) % 4;
    rt.MigrateMember(2 * pair, to);
    rt.MigrateMember(2 * pair + 1, to);
    // Live cross-thread reads while handoffs and traffic churn.
    (void)rt.total_delivered();
    (void)rt.SnapshotMetrics();
    (void)rt.LoadOf(pair);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  ASSERT_TRUE(WaitUntil([&] { return rt.total_delivered() >= 1000u; }, 20000));
  tap.echo.store(false);
  rt.Stop();
  EXPECT_TRUE(tap.in_order.load()) << "loss or reorder across migrations";
  EXPECT_GE(rt.steals(), 1u);
  obs::MetricsSnapshot snap = rt.SnapshotMetrics();
  EXPECT_EQ(snap.Value("task.pushed"), snap.Value("task.popped"));
}

}  // namespace
}  // namespace ensemble
