// Integration tests: real-socket UDP loopback behind the Network interface.

#include <arpa/inet.h>
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/app/endpoint.h"
#include "src/app/harness.h"
#include "src/net/udp.h"
#include "src/net/udp_uring.h"
#include "src/trans/transport.h"
#include "src/util/rng.h"

namespace ensemble {

// A stable name for a backend parameter: gtest would otherwise print the raw
// bytes, padding included, which differ between builds.
void PrintTo(const NetBackendConfig& config, std::ostream* os) {
  *os << NetBackendName(config.backend) << " batch=" << config.batch;
}

namespace {

bool UdpAvailable() {
  UdpNetwork probe;
  probe.Attach(EndpointId{1}, [](const Packet&) {});
  return probe.ok();
}

// True when the io_uring backend can actually run here (kernel support and
// not compiled out).  Tests that need the real rings skip otherwise; the
// fallback test runs everywhere.
bool UringAvailable() { return UdpAvailable() && UringEngine::Available(); }

TEST(UdpNetworkTest, RawSendReceive) {
  if (!UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
  UdpNetwork net;
  std::vector<std::pair<uint64_t, std::string>> received;
  net.Attach(EndpointId{1}, [&](const Packet& p) {
    received.push_back({p.src.id, p.datagram.ToString()});
  });
  net.Attach(EndpointId{2}, [&](const Packet& p) {
    received.push_back({p.src.id, p.datagram.ToString()});
  });
  ASSERT_TRUE(net.ok());
  EXPECT_NE(net.PortOf(EndpointId{1}), 0);
  EXPECT_NE(net.PortOf(EndpointId{1}), net.PortOf(EndpointId{2}));

  net.Send(EndpointId{1}, EndpointId{2}, Iovec(Bytes::CopyString("over-the-kernel")));
  net.PollFor(Millis(50));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].first, 1u);  // Source attributed via port map.
  EXPECT_EQ(received[0].second, "over-the-kernel");
}

TEST(UdpNetworkTest, ScatterGatherSendIsReassembledByKernel) {
  if (!UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
  UdpNetwork net;
  std::string got;
  net.Attach(EndpointId{1}, [](const Packet&) {});
  net.Attach(EndpointId{2}, [&](const Packet& p) { got = p.datagram.ToString(); });
  Iovec gather;
  gather.Append(Bytes::CopyString("part1-"));
  gather.Append(Bytes::CopyString("part2-"));
  gather.Append(Bytes::CopyString("part3"));
  net.Send(EndpointId{1}, EndpointId{2}, gather);
  net.PollFor(Millis(50));
  EXPECT_EQ(got, "part1-part2-part3");  // One datagram, gathered by sendmsg.
}

TEST(UdpNetworkTest, TimersFireFromPoll) {
  if (!UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
  UdpNetwork net;
  net.Attach(EndpointId{1}, [](const Packet&) {});
  int fired = 0;
  net.ScheduleTimer(Millis(1), [&] { fired++; });
  net.ScheduleTimer(Seconds(60), [&] { fired += 100; });  // Not yet.
  net.PollFor(Millis(30));
  EXPECT_EQ(fired, 1);
}

TEST(UdpNetworkTest, TimerHeapFiresInDueOrder) {
  if (!UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
  UdpNetwork net;
  net.Attach(EndpointId{1}, [](const Packet&) {});
  std::vector<int> order;
  // Scheduled out of order; the min-heap must fire them by due time, with
  // FIFO tiebreak for equal deadlines.
  net.ScheduleTimer(Millis(9), [&] { order.push_back(9); });
  net.ScheduleTimer(Millis(1), [&] { order.push_back(1); });
  net.ScheduleTimer(Millis(5), [&] { order.push_back(5); });
  net.ScheduleTimer(Millis(5), [&] { order.push_back(6); });  // Same due: after 5.
  net.ScheduleTimer(Millis(3), [&] { order.push_back(3); });
  net.PollFor(Millis(40));
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 6, 9}));
}

TEST(UdpNetworkTest, BatchedSendsStageUntilFlush) {
  if (!UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
  UdpNetwork net;
  net.set_backend_config(NetBackendConfig::Batched(64));
  std::vector<std::string> received;
  net.Attach(EndpointId{1}, [](const Packet&) {});
  net.Attach(EndpointId{2}, [&](const Packet& p) {
    received.push_back(p.datagram.ToString());
  });
  for (int i = 0; i < 5; i++) {
    net.Send(EndpointId{1}, EndpointId{2}, Iovec(Bytes::CopyString("b-" + std::to_string(i))));
  }
  // Below the 64-datagram threshold: nothing on the wire yet.
  EXPECT_EQ(net.stats().sent, 0u);
  net.Flush();
  EXPECT_EQ(net.stats().sent, 5u);
  net.PollFor(Millis(50));
  ASSERT_EQ(received.size(), 5u);
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ(received[static_cast<size_t>(i)], "b-" + std::to_string(i));
  }
  EXPECT_EQ(net.stats().send_syscalls, 1u);  // One sendmmsg for all five.
  EXPECT_EQ(net.stats().batched_datagrams, 5u);
  EXPECT_EQ(net.stats().max_send_batch, 5u);
}

TEST(UdpNetworkTest, BatchedRingAutoFlushesAtThreshold) {
  if (!UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
  UdpNetwork net;
  net.set_backend_config(NetBackendConfig::Batched(4));
  size_t got = 0;
  net.Attach(EndpointId{1}, [](const Packet&) {});
  net.Attach(EndpointId{2}, [&](const Packet&) { got++; });
  for (int i = 0; i < 4; i++) {
    net.Send(EndpointId{1}, EndpointId{2}, Iovec(Bytes::CopyString("x")));
  }
  EXPECT_EQ(net.stats().sent, 4u);  // Ring hit the threshold: already flushed.
  net.PollFor(Millis(50));
  EXPECT_EQ(got, 4u);
}

TEST(UdpNetworkTest, PooledReceiveReusesChunksAndPreservesPayload) {
  if (!UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
  UdpNetwork net;
  net.set_backend_config(NetBackendConfig::Batched(8));
  std::vector<std::string> received;
  net.Attach(EndpointId{1}, [](const Packet&) {});
  net.Attach(EndpointId{2}, [&](const Packet& p) {
    received.push_back(p.datagram.ToString());  // Drops the ref → recycles.
  });
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < 8; i++) {
      net.Send(EndpointId{1}, EndpointId{2},
               Iovec(Bytes::CopyString("r" + std::to_string(round) + "-" + std::to_string(i))));
    }
    size_t want = static_cast<size_t>(round + 1) * 8;
    for (int spins = 0; spins < 100000 && received.size() < want; spins++) {
      net.Poll();
    }
  }
  ASSERT_EQ(received.size(), 24u);
  EXPECT_EQ(received.front(), "r0-0");
  EXPECT_EQ(received.back(), "r2-7");
  // Batched receive: strictly fewer recv syscalls than messages.
  EXPECT_LT(net.stats().recv_syscalls, 24u);
  // Chunks released by the deliver callback came back through the pool.
  EXPECT_GT(net.recv_pool_stats().recycled, 0u);
}

TEST(UdpGroupTest, MachGroupOverRealSockets) {
  if (!UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
  // The same GroupEndpoint that runs on the simulator runs over the kernel.
  UdpNetwork net;
  EndpointConfig config;
  config.mode = StackMode::kMachine;
  config.layers = TenLayerStack();
  config.params.local_loopback = false;
  config.timer_interval = Millis(2);

  GroupEndpoint a(EndpointId{1}, &net, config);
  GroupEndpoint b(EndpointId{2}, &net, config);
  std::vector<std::string> delivered;
  b.OnDeliver([&](const Event& ev) { delivered.push_back(ev.payload.Flatten().ToString()); });

  auto view = std::make_shared<View>();
  view->vid = ViewId{0, 1};
  view->members = {EndpointId{1}, EndpointId{2}};
  a.Start(view);
  b.Start(view);

  for (int i = 0; i < 10; i++) {
    a.Cast(Iovec(Bytes::CopyString("udp-" + std::to_string(i))));
    net.PollFor(Millis(2));
  }
  net.PollFor(Millis(100));

  ASSERT_EQ(delivered.size(), 10u);
  EXPECT_EQ(delivered[0], "udp-0");
  EXPECT_EQ(delivered[9], "udp-9");
  EXPECT_GT(a.stats().bypass_down, 0u);
  EXPECT_GT(b.stats().bypass_up, 0u);
}

TEST(UdpGroupTest, PackedBatchedMachGroupOverRealSockets) {
  if (!UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
  // The full batched hot path at once: bypass-compiled casts emit compressed
  // wire into the transport packer, packed datagrams land in the sendmmsg
  // staging ring, and the receiver unpacks out of pooled recvmmsg buffers
  // back through the compressed fast path.
  UdpNetwork net;
  net.set_backend_config(NetBackendConfig::Batched(16));
  EndpointConfig config;
  config.mode = StackMode::kMachine;
  config.layers = TenLayerStack();
  config.params.local_loopback = false;
  config.timer_interval = Millis(2);
  config.pack_messages = true;
  config.pack_window = 8;

  GroupEndpoint a(EndpointId{1}, &net, config);
  GroupEndpoint b(EndpointId{2}, &net, config);
  std::vector<std::string> delivered;
  b.OnDeliver([&](const Event& ev) { delivered.push_back(ev.payload.Flatten().ToString()); });

  auto view = std::make_shared<View>();
  view->vid = ViewId{0, 1};
  view->members = {EndpointId{1}, EndpointId{2}};
  a.Start(view);
  b.Start(view);

  for (int i = 0; i < 24; i++) {
    a.Cast(Iovec(Bytes::CopyString("pb-" + std::to_string(i))));
  }
  a.Flush();
  net.PollFor(Millis(100));

  ASSERT_EQ(delivered.size(), 24u);
  EXPECT_EQ(delivered[0], "pb-0");
  EXPECT_EQ(delivered[23], "pb-23");
  EXPECT_GT(a.stats().bypass_down, 0u);
  EXPECT_GT(b.stats().bypass_up, 0u);
  EXPECT_GT(b.stats().packed_in, 0u);
  EXPECT_GT(net.stats().packed_datagrams, 0u);
  EXPECT_GT(net.stats().send_batches, 0u);
}

// Regression (drain-hook flush): with packing on and periodic timers OFF, a
// message staged by a deliver callback *during a socket drain* must still go
// out when Poll() finishes — previously it sat in the pack buffer until the
// next timer tick, which never came.
TEST(UdpGroupTest, PackedReplyFromDeliverFlushesWithoutTimers) {
  if (!UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
  UdpNetwork net;
  EndpointConfig config;
  config.mode = StackMode::kMachine;
  config.layers = FourLayerStack();
  config.params.local_loopback = false;
  config.timer_interval = 0;  // No periodic flush: drain hooks must carry it.
  config.pack_messages = true;
  config.pack_window = 64;  // Never reached by one reply: only hooks flush.

  GroupEndpoint a(EndpointId{1}, &net, config);
  GroupEndpoint b(EndpointId{2}, &net, config);
  std::vector<std::string> a_got;
  a.OnDeliver([&](const Event& ev) { a_got.push_back(ev.payload.Flatten().ToString()); });
  b.OnDeliver([&](const Event& ev) {
    // Staged into b's pack buffer mid-drain; no timer will ever flush it.
    b.Cast(Iovec(Bytes::CopyString("reply")));
  });

  auto view = std::make_shared<View>();
  view->vid = ViewId{0, 1};
  view->members = {EndpointId{1}, EndpointId{2}};
  a.Start(view);
  b.Start(view);

  a.Cast(Iovec(Bytes::CopyString("ping")));
  a.Flush();
  net.PollFor(Millis(100));

  ASSERT_EQ(a_got.size(), 1u);
  EXPECT_EQ(a_got[0], "reply");
}

// Regression (FlushAll trailing flush): in the simulator, the last member's
// FlushPacked stages datagrams after every per-member net flush already ran;
// FlushAll must close the batching boundary once more so a burst staged with
// no subsequent timer tick is still delivered by the drain loop.
TEST(UdpGroupTest, HarnessFlushAllFlushesLastMembersPack) {
  HarnessConfig config;
  config.n = 2;
  config.ep.mode = StackMode::kMachine;
  config.ep.layers = FourLayerStack();
  config.ep.params.local_loopback = false;
  config.ep.timer_interval = 0;  // Only FlushAll may flush.
  config.ep.pack_messages = true;
  config.ep.pack_window = 64;

  GroupHarness harness(config);
  harness.StartAll();
  harness.CastFrom(1, "staged-by-last-member");  // Last member: the old gap.
  harness.FlushAll();
  harness.RunAll();
  ASSERT_EQ(harness.CastPayloads(0).size(), 1u);
  EXPECT_EQ(harness.CastPayloads(0)[0], "staged-by-last-member");
}

TEST(UdpGroupTest, Pt2ptSendsOverRealSockets) {
  if (!UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
  UdpNetwork net;
  EndpointConfig config;
  config.mode = StackMode::kFunctional;
  config.layers = FourLayerStack();
  config.timer_interval = Millis(2);
  GroupEndpoint a(EndpointId{1}, &net, config);
  GroupEndpoint b(EndpointId{2}, &net, config);
  std::string got;
  b.OnDeliver([&](const Event& ev) { got = ev.payload.Flatten().ToString(); });
  auto view = std::make_shared<View>();
  view->vid = ViewId{0, 1};
  view->members = {EndpointId{1}, EndpointId{2}};
  a.Start(view);
  b.Start(view);
  a.Send(1, Iovec(Bytes::CopyString("direct")));
  net.PollFor(Millis(50));
  EXPECT_EQ(got, "direct");
}

// ---- Ownership handoff on every backend ------------------------------------

// Two networks publish each other's endpoints, then endpoint 2 moves from
// net_a to net_b and back.  After each move, datagrams in both directions —
// across the networks and within one — must arrive with Packet::src naming
// the true sender, and every network must still report each endpoint's
// original port.
class UdpHandoffTest : public ::testing::TestWithParam<NetBackendConfig> {};

TEST_P(UdpHandoffTest, SourceAndPortSurviveReleaseAdopt) {
  if (!UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
  UdpNetwork net_a;
  UdpNetwork net_b;
  net_a.set_backend_config(GetParam());
  net_b.set_backend_config(GetParam());
  std::vector<std::pair<uint64_t, uint64_t>> got;  // (dst, src) per arrival.
  auto deliver_to = [&](uint64_t dst) {
    return [&got, dst](const Packet& p) { got.push_back({dst, p.src.id}); };
  };
  net_a.Attach(EndpointId{1}, deliver_to(1));
  net_a.Attach(EndpointId{2}, deliver_to(2));
  net_b.Attach(EndpointId{3}, deliver_to(3));
  ASSERT_TRUE(net_a.ok() && net_b.ok());
  std::vector<uint16_t> ports = {0, net_a.PortOf(EndpointId{1}), net_a.PortOf(EndpointId{2}),
                                 net_b.PortOf(EndpointId{3})};
  net_a.AddPeer(EndpointId{3}, ports[3]);
  net_b.AddPeer(EndpointId{1}, ports[1]);
  net_b.AddPeer(EndpointId{2}, ports[2]);

  UdpNetwork* owner_of_2 = &net_a;
  // Sends src → dst from whichever network owns src and waits for it.
  auto exchange = [&](uint64_t src, uint64_t dst) {
    UdpNetwork* from = src == 2 ? owner_of_2 : src == 1 ? &net_a : &net_b;
    got.clear();
    from->Send(EndpointId{src}, EndpointId{dst}, Iovec(Bytes::CopyString("x")));
    from->Flush();
    for (int spins = 0; spins < 100000 && got.empty(); spins++) {
      net_a.Poll();
      net_b.Poll();
    }
    ASSERT_EQ(got.size(), 1u) << src << " -> " << dst;
    EXPECT_EQ(got[0], std::make_pair(dst, src)) << src << " -> " << dst;
  };
  for (int move = 0; move < 2; move++) {
    UdpNetwork* thief = owner_of_2 == &net_a ? &net_b : &net_a;
    auto released = owner_of_2->Release(EndpointId{2});
    ASSERT_TRUE(released.valid);
    thief->Adopt(EndpointId{2}, std::move(released));
    owner_of_2 = thief;
    for (auto [src, dst] : {std::pair{1, 2}, {2, 1}, {3, 2}, {2, 3}, {1, 3}}) {
      exchange(static_cast<uint64_t>(src), static_cast<uint64_t>(dst));
    }
    for (uint64_t ep = 1; ep <= 3; ep++) {
      EXPECT_EQ(net_a.PortOf(EndpointId{ep}), ports[ep]) << "net_a, endpoint " << ep;
      EXPECT_EQ(net_b.PortOf(EndpointId{ep}), ports[ep]) << "net_b, endpoint " << ep;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, UdpHandoffTest,
                         ::testing::Values(NetBackendConfig::Eager(),
                                           NetBackendConfig::Batched(16),
                                           NetBackendConfig::Uring(16)),
                         [](const ::testing::TestParamInfo<NetBackendConfig>& info) {
                           return std::string(NetBackendName(info.param.backend));
                         });

// Overload backpressure on the staged backends.  At level 0 the send stage
// holds datagrams until `batch` wait or Flush(); at level 1 and above every
// Send reaches the kernel on its own, with no Flush: one sendmmsg on mmsg,
// one submitted SQE on uring.
struct StagedBackend {
  const char* name;
  NetBackendConfig config;
};

void PrintTo(const StagedBackend& backend, std::ostream* os) { *os << backend.name; }

class UdpPressureTest : public ::testing::TestWithParam<StagedBackend> {};

// Kernel submissions of the send path that `net` runs.
uint64_t KernelSends(const UdpNetwork& net) {
  return net.active_backend() == NetBackend::kUring ? net.stats().uring_sqes.value()
                                                    : net.stats().send_syscalls.value();
}

TEST_P(UdpPressureTest, PressureSendsEachDatagramWithoutFlush) {
  if (!UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
  const NetBackendConfig& config = GetParam().config;
  if (config.backend == NetBackend::kUring && !UringEngine::Available()) {
    GTEST_SKIP() << "io_uring unavailable (kernel/seccomp or compiled out)";
  }
  UdpNetwork net;
  net.set_backend_config(config);
  ASSERT_EQ(net.active_backend(), config.backend);
  size_t got = 0;
  net.Attach(EndpointId{1}, [](const Packet&) {});
  net.Attach(EndpointId{2}, [&got](const Packet&) { got++; });
  net.Flush();  // uring: the receive arms go in now, not with the first send.
  auto send = [&net] { net.Send(EndpointId{1}, EndpointId{2}, Iovec(Bytes::CopyString("p"))); };

  uint64_t before = KernelSends(net);
  for (int i = 0; i < 3; i++) {
    send();
  }
  EXPECT_EQ(KernelSends(net), before) << "level 0 holds a partial batch";
  net.Flush();
  EXPECT_GT(KernelSends(net), before);

  for (int level : {1, 2}) {
    net.SetPressure(level);
    for (int i = 0; i < 4; i++) {
      uint64_t prior = KernelSends(net);
      send();
      EXPECT_GT(KernelSends(net), prior) << "level " << level << ", datagram " << i;
    }
  }

  net.SetPressure(0);
  before = KernelSends(net);
  for (size_t i = 0; i + 1 < config.batch; i++) {
    send();
  }
  EXPECT_EQ(KernelSends(net), before) << "level 0 holds again";
  send();  // The batch-th datagram flushes the stage.
  EXPECT_GT(KernelSends(net), before);

  const size_t want = 3 + 8 + config.batch;
  net.Flush();
  for (int spins = 0; spins < 100000 && got < want; spins++) {
    net.Poll();
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(net.stats().dropped.value(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, UdpPressureTest,
                         ::testing::Values(StagedBackend{"mmsg", NetBackendConfig::Batched(8)},
                                           StagedBackend{"uring", NetBackendConfig::Uring(8)}),
                         [](const ::testing::TestParamInfo<StagedBackend>& info) {
                           return std::string(info.param.name);
                         });

// ---- io_uring backend ------------------------------------------------------

TEST(UdpUringTest, RoundTripWithScatterGather) {
  if (!UringAvailable()) {
    GTEST_SKIP() << "io_uring unavailable (kernel/seccomp or compiled out)";
  }
  UdpNetwork net;
  net.set_backend_config(NetBackendConfig::Uring(16));
  ASSERT_EQ(net.active_backend(), NetBackend::kUring);
  std::vector<std::pair<uint64_t, std::string>> received;
  net.Attach(EndpointId{1}, [&](const Packet& p) {
    received.push_back({p.src.id, p.datagram.ToString()});
  });
  net.Attach(EndpointId{2}, [&](const Packet& p) {
    received.push_back({p.src.id, p.datagram.ToString()});
  });
  ASSERT_TRUE(net.ok());
  Iovec gather;
  gather.Append(Bytes::CopyString("ring-"));
  gather.Append(Bytes::CopyString("gathered"));
  net.Send(EndpointId{1}, EndpointId{2}, gather);
  net.Flush();
  EXPECT_EQ(net.stats().sent, 1u);  // Flush waited for the send CQE.
  net.PollFor(Millis(50));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].first, 1u);  // Source attributed via port map.
  EXPECT_EQ(received[0].second, "ring-gathered");
  EXPECT_GT(net.stats().uring_enters, 0u);
  EXPECT_GT(net.stats().uring_sqes, 0u);
  EXPECT_GT(net.stats().uring_cqes, 0u);
  // No classic datapath syscalls at all: the rings carried everything.
  EXPECT_EQ(net.stats().send_syscalls, 0u);
  EXPECT_EQ(net.stats().recv_syscalls, 0u);
}

TEST(UdpUringTest, StagesUntilFlushLikeMmsg) {
  if (!UringAvailable()) {
    GTEST_SKIP() << "io_uring unavailable (kernel/seccomp or compiled out)";
  }
  UdpNetwork net;
  net.set_backend_config(NetBackendConfig::Uring(64));
  std::vector<std::string> received;
  net.Attach(EndpointId{1}, [](const Packet&) {});
  net.Attach(EndpointId{2}, [&](const Packet& p) {
    received.push_back(p.datagram.ToString());
  });
  for (int i = 0; i < 5; i++) {
    net.Send(EndpointId{1}, EndpointId{2},
             Iovec(Bytes::CopyString("u-" + std::to_string(i))));
  }
  // Below the 64-datagram threshold: nothing submitted yet.
  EXPECT_EQ(net.stats().sent, 0u);
  net.Flush();
  EXPECT_EQ(net.stats().sent, 5u);
  net.PollFor(Millis(50));
  ASSERT_EQ(received.size(), 5u);
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ(received[static_cast<size_t>(i)], "u-" + std::to_string(i));
  }
  EXPECT_EQ(net.stats().batched_datagrams, 5u);
}

TEST(UdpUringTest, GsoCoalescesEqualSizeRuns) {
  if (!UringAvailable()) {
    GTEST_SKIP() << "io_uring unavailable (kernel/seccomp or compiled out)";
  }
  UdpNetwork net;
  net.set_backend_config(NetBackendConfig::Uring(64));
  ASSERT_EQ(net.active_backend(), NetBackend::kUring);
  std::vector<std::string> received;
  net.Attach(EndpointId{1}, [](const Packet&) {});
  net.Attach(EndpointId{2}, [&](const Packet& p) {
    received.push_back(p.datagram.ToString());
  });
  // 16 equal-size datagrams to one destination: one GSO super-datagram.
  for (int i = 0; i < 16; i++) {
    char tag = static_cast<char>('a' + i);
    net.Send(EndpointId{1}, EndpointId{2},
             Iovec(Bytes::CopyString(std::string(64, tag))));
  }
  net.Flush();
  EXPECT_EQ(net.stats().sent, 16u);
  for (int spins = 0; spins < 100000 && received.size() < 16; spins++) {
    net.Poll();
  }
  ASSERT_EQ(received.size(), 16u);
  for (int i = 0; i < 16; i++) {
    EXPECT_EQ(received[static_cast<size_t>(i)],
              std::string(64, static_cast<char>('a' + i)));
  }
  EXPECT_GT(net.stats().gso_sends, 0u);
  EXPECT_EQ(net.stats().gso_segments, 16u);
  // Segment boundaries survive the trip even when GRO re-coalesces them.
  EXPECT_GT(net.stats().bufring_refills, 0u);
}

// One sender (endpoint 1) and three receivers (2, 3, 4) on one uring
// network; each receiver records its datagrams in arrival order.  Build it
// only where UringAvailable().
class FanOut {
 public:
  static constexpr uint64_t kDests[] = {2, 3, 4};

  FanOut() {
    net_.set_backend_config(NetBackendConfig::Uring(64));
    EXPECT_EQ(net_.active_backend(), NetBackend::kUring);
    net_.Attach(EndpointId{1}, [](const Packet&) {});
    for (uint64_t dst : kDests) {
      net_.Attach(EndpointId{dst},
                  [this, dst](const Packet& p) { got_[dst].push_back(p.datagram.ToString()); });
    }
    EXPECT_TRUE(net_.ok());
    net_.Flush();  // The receive arms go in now, not with the first send.
  }

  UdpNetwork& net() { return net_; }

  // The i-th datagram to `dst`: `size` bytes, distinct per (dst, i).
  static std::string Datagram(uint64_t dst, size_t i, size_t size) {
    std::string d = std::to_string(dst) + ":" + std::to_string(i) + ":";
    d.resize(size, static_cast<char>('a' + (dst * 7 + i) % 26));
    return d;
  }

  // Stages round-robin over the receivers, `sizes[dst][i]` bytes for the
  // i-th datagram to `dst`, as a view cast's packs are staged; returns what
  // each receiver must get, in order.
  std::map<uint64_t, std::vector<std::string>> StageInterleaved(
      const std::map<uint64_t, std::vector<size_t>>& sizes) {
    std::map<uint64_t, std::vector<std::string>> want;
    for (size_t i = 0;; i++) {
      bool any = false;
      for (uint64_t dst : kDests) {
        const std::vector<size_t>& of = sizes.at(dst);
        if (i < of.size()) {
          want[dst].push_back(Datagram(dst, i, of[i]));
          net_.Send(EndpointId{1}, EndpointId{dst}, Iovec(Bytes::CopyString(want[dst].back())));
          any = true;
        }
      }
      if (!any) {
        return want;
      }
    }
  }

  // Polls until every wanted datagram arrived; each receiver must hold
  // exactly its own, in send order.
  void ExpectDelivered(const std::map<uint64_t, std::vector<std::string>>& want) {
    size_t total = 0;
    for (const auto& [dst, datagrams] : want) {
      total += datagrams.size();
    }
    auto received = [this] {
      size_t n = 0;
      for (const auto& [dst, datagrams] : got_) {
        n += datagrams.size();
      }
      return n;
    };
    for (int spins = 0; spins < 100000 && received() < total; spins++) {
      net_.Poll();
    }
    for (uint64_t dst : kDests) {
      EXPECT_EQ(got_[dst], want.at(dst)) << "receiver " << dst;
    }
    EXPECT_EQ(net_.stats().dropped.value(), 0u);
  }

 private:
  UdpNetwork net_;
  std::map<uint64_t, std::vector<std::string>> got_;
};

// k equal datagrams per receiver, staged d2 d3 d4 d2 d3 d4 …, leave at one
// Flush as one GSO train per receiver, and each receiver's GRO split gives
// them back intact and in send order.
TEST(UdpUringTest, FanOutFormsOneGsoTrainPerDestination) {
  if (!UringAvailable()) {
    GTEST_SKIP() << "io_uring unavailable (kernel/seccomp or compiled out)";
  }
  FanOut f;
  constexpr size_t kPerDest = 8;
  std::vector<size_t> equal(kPerDest, 64);
  auto want = f.StageInterleaved({{2, equal}, {3, equal}, {4, equal}});
  EXPECT_EQ(f.net().stats().sent.value(), 0u) << "below the batch: nothing submitted";
  f.net().Flush();
  EXPECT_EQ(f.net().stats().sent.value(), 3 * kPerDest);
  EXPECT_EQ(f.net().stats().gso_sends.value(), 3u);
  EXPECT_EQ(f.net().stats().gso_segments.value(), 3 * kPerDest);
  f.ExpectDelivered(want);
}

// A larger datagram ends its destination's run, and the run it starts takes
// the next, shorter one as its last segment: receiver 2's sizes 64 64 100 64
// 64 leave as [64 64] [100 64] [64], in that order, between the other
// receivers' trains.
TEST(UdpUringTest, FanOutLargerDatagramEndsTheRunWithoutReordering) {
  if (!UringAvailable()) {
    GTEST_SKIP() << "io_uring unavailable (kernel/seccomp or compiled out)";
  }
  FanOut f;
  std::vector<size_t> equal(5, 64);
  auto want = f.StageInterleaved({{2, {64, 64, 100, 64, 64}}, {3, equal}, {4, equal}});
  f.net().Flush();
  EXPECT_EQ(f.net().stats().sent.value(), 15u);
  EXPECT_EQ(f.net().stats().gso_sends.value(), 4u);
  EXPECT_EQ(f.net().stats().gso_segments.value(), 2u + 2u + 5u + 5u);
  f.ExpectDelivered(want);
}

// Under overload pressure the stage holds nothing: each datagram reaches the
// ring at its own Send, so no run forms.
TEST(UdpUringTest, FanOutUnderPressureSendsEachDatagramAtItsSend) {
  if (!UringAvailable()) {
    GTEST_SKIP() << "io_uring unavailable (kernel/seccomp or compiled out)";
  }
  FanOut f;
  f.net().SetPressure(1);
  std::map<uint64_t, std::vector<std::string>> want;
  for (size_t i = 0; i < 4; i++) {
    for (uint64_t dst : FanOut::kDests) {
      want[dst].push_back(FanOut::Datagram(dst, i, 64));
      uint64_t sqes = f.net().stats().uring_sqes.value();
      uint64_t sent = f.net().stats().sent.value();
      f.net().Send(EndpointId{1}, EndpointId{dst}, Iovec(Bytes::CopyString(want[dst].back())));
      EXPECT_GT(f.net().stats().uring_sqes.value(), sqes) << "datagram " << i << " to " << dst;
      f.net().Flush();
      EXPECT_EQ(f.net().stats().sent.value(), sent + 1);
    }
  }
  EXPECT_EQ(f.net().stats().gso_sends.value(), 0u);
  f.ExpectDelivered(want);
}

// A datagram too large for a provided receive chunk once the RECVMSG header,
// name and control areas are in front of it arrives truncated: it delivers
// nothing and counts one drop, and the datagram after it still arrives.
TEST(UdpUringTest, TruncatedReceiveDeliversNothingAndCountsADrop) {
  if (!UringAvailable()) {
    GTEST_SKIP() << "io_uring unavailable (kernel/seccomp or compiled out)";
  }
  UdpNetwork net;
  net.set_backend_config(NetBackendConfig::Uring(16));
  std::vector<std::string> got;
  net.Attach(EndpointId{1}, [](const Packet&) {});
  net.Attach(EndpointId{2}, [&](const Packet& p) { got.push_back(p.datagram.ToString()); });
  net.Flush();
  constexpr size_t kMaxUdpPayload = 65507;
  ASSERT_GT(kMaxUdpPayload + sizeof(RecvmsgOut) + sizeof(sockaddr_in),
            net.recv_pool().chunk_size());
  net.Send(EndpointId{1}, EndpointId{2},
           Iovec(Bytes::CopyString(std::string(kMaxUdpPayload, 'x'))));
  net.Send(EndpointId{1}, EndpointId{2}, Iovec(Bytes::CopyString("after")));
  net.Flush();
  ASSERT_EQ(net.stats().sent.value(), 2u);
  for (int spins = 0; spins < 100000 && got.empty(); spins++) {
    net.Poll();
  }
  ASSERT_EQ(got, std::vector<std::string>{"after"});
  EXPECT_EQ(net.stats().dropped.value(), 1u);
}

// ---- GRO split: the multishot RECVMSG buffer parse ---------------------------

// A receive buffer as the engine arms it: RecvmsgOut, a sockaddr_in name
// area, a 64-byte control area holding one UDP_GRO cmsg, then the payload.
// The vector is exactly the buffer's size, so a read past it trips
// AddressSanitizer.
constexpr size_t kNameLen = sizeof(sockaddr_in);
constexpr size_t kCtrlLen = 64;
constexpr size_t kHeader = sizeof(RecvmsgOut) + kNameLen + kCtrlLen;
constexpr size_t kCtrlAt = sizeof(RecvmsgOut) + kNameLen;
constexpr size_t kGroAt = kCtrlAt + CMSG_LEN(0);

template <typename T>
void Put(std::vector<uint8_t>& buf, size_t at, T value) {
  std::memcpy(buf.data() + at, &value, sizeof(value));
}

std::vector<uint8_t> RecvBuffer(uint16_t src_port, int gro, size_t payload, size_t slack) {
  std::vector<uint8_t> buf(kHeader + payload + slack);
  RecvmsgOut out{static_cast<uint32_t>(kNameLen), static_cast<uint32_t>(CMSG_SPACE(sizeof(int))),
                 static_cast<uint32_t>(payload), 0};
  Put(buf, 0, out);
  sockaddr_in from{};
  from.sin_family = AF_INET;
  from.sin_port = htons(src_port);
  Put(buf, sizeof(RecvmsgOut), from);
  cmsghdr cm{};
  cm.cmsg_len = CMSG_LEN(sizeof(int));
  cm.cmsg_level = 17;   // SOL_UDP
  cm.cmsg_type = 104;   // UDP_GRO
  Put(buf, kCtrlAt, cm);
  Put(buf, kGroAt, gro);
  for (size_t i = 0; i < payload; i++) {
    buf[kHeader + i] = static_cast<uint8_t>(i * 31 + 7);
  }
  return buf;
}

TEST(UdpRecvParseTest, GroTrainSplitsAtTheSegmentSize) {
  std::vector<uint8_t> buf = RecvBuffer(4242, 100, 250, 0);
  RecvTrain train = ParseRecvBuffer(buf.data(), buf.size(), kNameLen, kCtrlLen);
  ASSERT_TRUE(train.ok);
  EXPECT_EQ(train.src_port, 4242);
  std::vector<std::pair<size_t, size_t>> slices;
  train.ForEachDatagram([&](size_t off, size_t len) { slices.push_back({off, len}); });
  EXPECT_EQ(slices, (std::vector<std::pair<size_t, size_t>>{
                        {kHeader, 100}, {kHeader + 100, 100}, {kHeader + 200, 50}}));
}

// Seeded mutations of every header field the kernel writes: the parse reads
// nothing outside the buffer (AddressSanitizer checks that), a deliverable
// buffer's slices tile exactly its payload, and a truncated or short one
// delivers nothing.
TEST(UdpRecvParseTest, MutationSweepStaysInsideTheBuffer) {
  Rng rng(2026);
  size_t delivered = 0;
  size_t refused = 0;
  size_t split = 0;
  for (int iter = 0; iter < 20000; iter++) {
    size_t payload = static_cast<size_t>(rng.Below(3000));
    int gro = static_cast<int>(rng.Range(1, static_cast<int64_t>(payload) + 8));
    std::vector<uint8_t> buf = RecvBuffer(static_cast<uint16_t>(1 + rng.Below(65535)), gro,
                                          payload, static_cast<size_t>(rng.Below(16)));
    std::vector<uint8_t> original = buf;
    RecvmsgOut out;
    std::memcpy(&out, buf.data(), sizeof(out));
    uint64_t cmsg_len = CMSG_LEN(sizeof(int));
    // Each field mutates in about a third of the iterations.
    if (rng.Below(3) == 0) {
      out.namelen = static_cast<uint32_t>(rng.Below(3) == 0 ? rng.Next() : rng.Below(64));
    }
    if (rng.Below(3) == 0) {
      out.controllen = static_cast<uint32_t>(rng.Below(3) == 0 ? rng.Next() : rng.Below(128));
    }
    if (rng.Below(3) == 0) {
      out.payloadlen = static_cast<uint32_t>(rng.Below(3) == 0 ? rng.Next()
                                                               : rng.Below(buf.size() + 64));
    }
    if (rng.Below(3) == 0) {
      const uint32_t kFlags[] = {MSG_TRUNC, MSG_CTRUNC, static_cast<uint32_t>(rng.Next())};
      out.flags = kFlags[rng.Below(3)];
    }
    if (rng.Below(3) == 0) {
      cmsg_len = rng.Below(3) == 0 ? rng.Next() : rng.Below(96);
    }
    if (rng.Below(3) == 0) {
      gro = static_cast<int>(rng.Range(-4, static_cast<int64_t>(payload) + 64));
    }
    Put(buf, 0, out);
    Put(buf, kCtrlAt, static_cast<decltype(cmsghdr::cmsg_len)>(cmsg_len));
    Put(buf, kGroAt, gro);
    // Now and then the chunk ends before the header does.
    size_t size = rng.Below(8) == 0 ? static_cast<size_t>(rng.Below(kHeader + 1)) : buf.size();
    std::vector<uint8_t> chunk(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(size));

    RecvTrain train = ParseRecvBuffer(chunk.data(), chunk.size(), kNameLen, kCtrlLen);
    bool fits = size >= kHeader && out.payloadlen <= size - kHeader;
    bool truncated = (out.flags & (MSG_TRUNC | MSG_CTRUNC)) != 0;
    ASSERT_EQ(train.ok, fits && !truncated) << "iteration " << iter;
    size_t slices = 0;
    size_t next = kHeader;
    train.ForEachDatagram([&](size_t off, size_t len) {
      ASSERT_EQ(off, next) << "iteration " << iter;
      ASSERT_GT(len, 0u);
      ASSERT_LE(len, train.seg_size);
      ASSERT_LE(off + len, chunk.size());
      ASSERT_EQ(std::memcmp(chunk.data() + off, original.data() + off, len), 0);
      next = off + len;
      slices++;
    });
    if (!train.ok) {
      EXPECT_EQ(slices, 0u) << "iteration " << iter;
      refused++;
      continue;
    }
    delivered++;
    EXPECT_EQ(next, kHeader + out.payloadlen) << "iteration " << iter;
    bool gro_readable = out.controllen >= CMSG_LEN(sizeof(int)) &&
                        cmsg_len >= CMSG_LEN(sizeof(int)) &&
                        cmsg_len <= std::min<uint64_t>(out.controllen, kCtrlLen);
    size_t want_seg = gro_readable && gro > 0 && static_cast<size_t>(gro) < out.payloadlen
                          ? static_cast<size_t>(gro)
                          : out.payloadlen;
    EXPECT_EQ(train.seg_size, want_seg) << "iteration " << iter;
    uint16_t want_port = 0;
    if (out.namelen >= sizeof(sockaddr_in)) {
      sockaddr_in from;
      std::memcpy(&from, chunk.data() + sizeof(RecvmsgOut), sizeof(from));
      want_port = ntohs(from.sin_port);
    }
    EXPECT_EQ(train.src_port, want_port) << "iteration " << iter;
    if (slices > 1) {
      split++;
    }
  }
  // The sweep reached every outcome.
  EXPECT_GT(delivered, 1000u);
  EXPECT_GT(refused, 1000u);
  EXPECT_GT(split, 1000u);
}

TEST(UdpUringTest, TimersAndIdleWaitStillFire) {
  if (!UringAvailable()) {
    GTEST_SKIP() << "io_uring unavailable (kernel/seccomp or compiled out)";
  }
  UdpNetwork net;
  net.set_backend_config(NetBackendConfig::Uring(16));
  net.Attach(EndpointId{1}, [](const Packet&) {});
  int fired = 0;
  net.ScheduleTimer(Millis(1), [&] { fired++; });
  net.ScheduleTimer(Seconds(60), [&] { fired += 100; });  // Not yet.
  net.PollFor(Millis(30));  // Sleeps in io_uring_enter, not poll(2).
  EXPECT_EQ(fired, 1);
}

TEST(UdpUringTest, PackedMachGroupOverUringRings) {
  if (!UringAvailable()) {
    GTEST_SKIP() << "io_uring unavailable (kernel/seccomp or compiled out)";
  }
  // The full composed hot path on the uring datapath: bypass-compiled casts →
  // transport packing (kWirePacked) → GSO-coalesced ring submission → GRO/
  // multishot receive into registered pool chunks → unpack → delivery.
  UdpNetwork net;
  net.set_backend_config(NetBackendConfig::Uring(16));
  EndpointConfig config;
  config.mode = StackMode::kMachine;
  config.layers = TenLayerStack();
  config.params.local_loopback = false;
  config.timer_interval = Millis(2);
  config.pack_messages = true;
  config.pack_window = 8;

  GroupEndpoint a(EndpointId{1}, &net, config);
  GroupEndpoint b(EndpointId{2}, &net, config);
  std::vector<std::string> delivered;
  b.OnDeliver([&](const Event& ev) {
    delivered.push_back(ev.payload.Flatten().ToString());
  });

  auto view = std::make_shared<View>();
  view->vid = ViewId{0, 1};
  view->members = {EndpointId{1}, EndpointId{2}};
  a.Start(view);
  b.Start(view);

  for (int i = 0; i < 24; i++) {
    a.Cast(Iovec(Bytes::CopyString("ur-" + std::to_string(i))));
  }
  a.Flush();
  net.PollFor(Millis(100));

  ASSERT_EQ(delivered.size(), 24u);
  EXPECT_EQ(delivered[0], "ur-0");
  EXPECT_EQ(delivered[23], "ur-23");
  EXPECT_GT(net.stats().packed_datagrams, 0u);
  EXPECT_GT(net.stats().uring_cqes, 0u);
  EXPECT_EQ(net.stats().send_syscalls, 0u);
}

TEST(UdpUringTest, ReleaseAdoptHandsRingsAcrossNetworks) {
  if (!UringAvailable()) {
    GTEST_SKIP() << "io_uring unavailable (kernel/seccomp or compiled out)";
  }
  // Socket travel between two uring-backed networks (the shard-handoff
  // pattern): the multishot recv is cancelled on the victim, in-flight
  // datagrams are delivered before the fd moves, and the thief re-arms it on
  // its own ring.
  UdpNetwork net_a;
  UdpNetwork net_b;
  NetBackendConfig cfg = NetBackendConfig::Uring(8);
  net_a.set_backend_config(cfg);
  net_b.set_backend_config(cfg);
  std::vector<std::string> got;
  net_a.Attach(EndpointId{1}, [](const Packet&) {});
  net_a.Attach(EndpointId{2},
               [&](const Packet& p) { got.push_back(p.datagram.ToString()); });

  net_a.Send(EndpointId{1}, EndpointId{2}, Iovec(Bytes::CopyString("before")));
  net_a.Flush();
  net_a.PollFor(Millis(50));
  ASSERT_EQ(got.size(), 1u);

  auto released = net_a.Release(EndpointId{2});
  ASSERT_TRUE(released.valid);
  net_b.Adopt(EndpointId{2}, std::move(released));
  net_b.SetDrainHook(EndpointId{2}, nullptr);

  // Sender still on net_a reaches the endpoint now owned by net_b's rings.
  net_a.Send(EndpointId{1}, EndpointId{2}, Iovec(Bytes::CopyString("after")));
  net_a.Flush();
  for (int spins = 0; spins < 100000 && got.size() < 2; spins++) {
    net_b.Poll();
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], "after");
}

TEST(UdpUringTest, ReleaseAdoptChurnReusesRingSlots) {
  if (!UringAvailable()) {
    GTEST_SKIP() << "io_uring unavailable (kernel/seccomp or compiled out)";
  }
  // Steal-heavy churn: the endpoint bounces between two uring networks many
  // times.  Each RemoveSocket retires a ring slot and each re-Adopt must
  // reclaim one (free-list) — and every cycle the re-armed recv must still
  // deliver, proving no stale user_data or double-armed recv survives.
  UdpNetwork net_a;
  UdpNetwork net_b;
  NetBackendConfig cfg = NetBackendConfig::Uring(8);
  net_a.set_backend_config(cfg);
  net_b.set_backend_config(cfg);
  std::vector<std::string> got;
  net_a.Attach(EndpointId{1}, [](const Packet&) {});
  net_a.Attach(EndpointId{2},
               [&](const Packet& p) { got.push_back(p.datagram.ToString()); });
  UdpNetwork* owner = &net_a;
  for (int cycle = 0; cycle < 32; cycle++) {
    UdpNetwork* next = owner == &net_a ? &net_b : &net_a;
    auto released = owner->Release(EndpointId{2});
    ASSERT_TRUE(released.valid) << "cycle " << cycle;
    next->Adopt(EndpointId{2}, std::move(released));
    owner = next;
    net_a.Send(EndpointId{1}, EndpointId{2},
               Iovec(Bytes::CopyString("c" + std::to_string(cycle))));
    net_a.Flush();
    size_t want = static_cast<size_t>(cycle) + 1;
    for (int spins = 0; spins < 100000 && got.size() < want; spins++) {
      owner->Poll();
    }
    ASSERT_EQ(got.size(), want) << "cycle " << cycle;
    EXPECT_EQ(got.back(), "c" + std::to_string(cycle));
  }
}

TEST(UdpUringTest, SwitchingBackendAwayDeliversInFlight) {
  if (!UringAvailable()) {
    GTEST_SKIP() << "io_uring unavailable (kernel/seccomp or compiled out)";
  }
  // Datagrams already sent when the config flips uring→mmsg must not be lost:
  // whatever the ring pulled into provided buffers is delivered during the
  // switch-away quiesce, and whatever still sits in the socket queue is
  // drained by the successor backend (with GRO stripped).
  UdpNetwork net;
  net.set_backend_config(NetBackendConfig::Uring(16));
  ASSERT_EQ(net.active_backend(), NetBackend::kUring);
  std::vector<std::string> got;
  net.Attach(EndpointId{1}, [](const Packet&) {});
  net.Attach(EndpointId{2},
             [&](const Packet& p) { got.push_back(p.datagram.ToString()); });
  constexpr int kMsgs = 8;
  for (int i = 0; i < kMsgs; i++) {
    net.Send(EndpointId{1}, EndpointId{2},
             Iovec(Bytes::CopyString("m" + std::to_string(i))));
  }
  net.Flush();  // On the wire; not yet polled.
  net.set_backend_config(NetBackendConfig::Batched(16));
  ASSERT_EQ(net.active_backend(), NetBackend::kMmsg);
  for (int spins = 0; spins < 100000 && got.size() < kMsgs; spins++) {
    net.Poll();
  }
  ASSERT_EQ(got.size(), static_cast<size_t>(kMsgs));
  for (int i = 0; i < kMsgs; i++) {
    EXPECT_EQ(got[i], "m" + std::to_string(i));
  }
}

TEST(UdpUringTest, FallsBackToMmsgWhenUnavailable) {
  if (!UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
  // Force the probe to fail: a kUring request must silently become mmsg (one
  // LogUnsupportedOnce line) and the datapath must work unchanged.  In the
  // ENSEMBLE_URING=OFF build Available() is already false and the force is
  // redundant — the same assertions hold.
  UringEngine::ForceAvailabilityForTest(0);
  UdpNetwork net;
  net.set_backend_config(NetBackendConfig::Uring(16));
  EXPECT_EQ(net.active_backend(), NetBackend::kMmsg);
  std::string got;
  net.Attach(EndpointId{1}, [](const Packet&) {});
  net.Attach(EndpointId{2}, [&](const Packet& p) { got = p.datagram.ToString(); });
  net.Send(EndpointId{1}, EndpointId{2}, Iovec(Bytes::CopyString("fallback")));
  net.Flush();
  net.PollFor(Millis(50));
  EXPECT_EQ(got, "fallback");
  EXPECT_EQ(net.stats().uring_enters, 0u);
  EXPECT_GT(net.stats().send_syscalls, 0u);  // Classic path carried it.
  UringEngine::ForceAvailabilityForTest(-1);
}

}  // namespace
}  // namespace ensemble
