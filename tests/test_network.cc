// Unit tests: discrete-event queue and the simulated networks.

#include <gtest/gtest.h>

#include "src/net/network.h"

namespace ensemble {
namespace {

TEST(SimQueueTest, RunsInTimeOrder) {
  SimQueue q;
  std::vector<int> order;
  q.At(Millis(3), [&] { order.push_back(3); });
  q.At(Millis(1), [&] { order.push_back(1); });
  q.At(Millis(2), [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), Millis(3));
}

TEST(SimQueueTest, FifoTiebreakAtEqualTimes) {
  SimQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; i++) {
    q.At(Millis(1), [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimQueueTest, AfterIsRelativeToNow) {
  SimQueue q;
  VTime fired_at = 0;
  q.At(Millis(5), [&] {
    q.After(Millis(2), [&] { fired_at = q.now(); });
  });
  q.RunAll();
  EXPECT_EQ(fired_at, Millis(7));
}

TEST(SimQueueTest, RunUntilStopsAtLimit) {
  SimQueue q;
  int fired = 0;
  q.At(Millis(1), [&] { fired++; });
  q.At(Millis(10), [&] { fired++; });
  q.RunUntil(Millis(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), Millis(5));
  EXPECT_EQ(q.pending(), 1u);
}

TEST(SimQueueTest, PastTimesClampToNow) {
  SimQueue q;
  q.At(Millis(5), [] {});
  q.RunAll();
  bool fired = false;
  q.At(Millis(1), [&] { fired = true; });  // In the past.
  q.RunAll();
  EXPECT_TRUE(fired);
  EXPECT_EQ(q.now(), Millis(5));
}

struct NetFixture {
  SimQueue queue;
  SimNetwork net;
  std::vector<std::pair<uint64_t, std::string>> received;  // (receiver, data)

  explicit NetFixture(NetworkConfig config) : net(&queue, config) {}

  void Attach(uint64_t id) {
    net.Attach(EndpointId{id}, [this, id](const Packet& p) {
      received.push_back({id, p.datagram.ToString()});
    });
  }
  void Send(uint64_t from, uint64_t to, std::string_view data) {
    net.Send(EndpointId{from}, EndpointId{to}, Iovec(Bytes::CopyString(data)));
  }
};

TEST(SimNetworkTest, UnicastDeliversAfterLatency) {
  NetFixture f(NetworkConfig::Perfect());
  f.Attach(1);
  f.Attach(2);
  f.Send(1, 2, "hi");
  EXPECT_TRUE(f.received.empty());  // Not yet: in flight.
  f.queue.RunAll();
  ASSERT_EQ(f.received.size(), 1u);
  EXPECT_EQ(f.received[0], (std::pair<uint64_t, std::string>{2, "hi"}));
  EXPECT_EQ(f.queue.now(), NetworkConfig::Perfect().latency);
}

TEST(SimNetworkTest, UnknownDestinationDropsSilently) {
  NetFixture f(NetworkConfig::Perfect());
  f.Attach(1);
  f.Send(1, 99, "void");
  f.queue.RunAll();
  EXPECT_TRUE(f.received.empty());
}

TEST(SimNetworkTest, PerfectNetworkPreservesFifoPerPair) {
  NetFixture f(NetworkConfig::Perfect());
  f.Attach(1);
  f.Attach(2);
  for (int i = 0; i < 20; i++) {
    f.Send(1, 2, "m" + std::to_string(i));
  }
  f.queue.RunAll();
  ASSERT_EQ(f.received.size(), 20u);
  for (int i = 0; i < 20; i++) {
    EXPECT_EQ(f.received[static_cast<size_t>(i)].second, "m" + std::to_string(i));
  }
}

TEST(SimNetworkTest, DropProbabilityLosesRoughlyThatFraction) {
  NetworkConfig config;
  config.drop_prob = 0.3;
  config.seed = 99;
  NetFixture f(config);
  f.Attach(1);
  f.Attach(2);
  for (int i = 0; i < 1000; i++) {
    f.Send(1, 2, "x");
  }
  f.queue.RunAll();
  EXPECT_NEAR(static_cast<double>(f.received.size()), 700.0, 60.0);
  EXPECT_EQ(f.net.stats().dropped + f.net.stats().delivered, 1000u);
}

TEST(SimNetworkTest, DuplicationDeliversExtraCopies) {
  NetworkConfig config;
  config.dup_prob = 0.5;
  config.seed = 7;
  NetFixture f(config);
  f.Attach(1);
  f.Attach(2);
  for (int i = 0; i < 400; i++) {
    f.Send(1, 2, "d");
  }
  f.queue.RunAll();
  EXPECT_GT(f.received.size(), 500u);
  EXPECT_EQ(f.received.size(), 400 + f.net.stats().duplicated);
}

TEST(SimNetworkTest, SameSeedSameOutcome) {
  auto run = [](uint64_t seed) {
    NetworkConfig config = NetworkConfig::Lossy(0.2, 0.1, 0.2, seed);
    NetFixture f(config);
    f.Attach(1);
    f.Attach(2);
    for (int i = 0; i < 200; i++) {
      f.Send(1, 2, std::to_string(i));
    }
    f.queue.RunAll();
    std::string concat;
    for (const auto& [id, data] : f.received) {
      concat += data + ",";
    }
    return concat;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(SimNetworkTest, LinkCutBlocksBothDirections) {
  NetFixture f(NetworkConfig::Perfect());
  f.Attach(1);
  f.Attach(2);
  f.net.SetLinkUp(EndpointId{1}, EndpointId{2}, false);
  f.Send(1, 2, "a");
  f.Send(2, 1, "b");
  f.queue.RunAll();
  EXPECT_TRUE(f.received.empty());
  f.net.SetLinkUp(EndpointId{1}, EndpointId{2}, true);
  f.Send(1, 2, "c");
  f.queue.RunAll();
  ASSERT_EQ(f.received.size(), 1u);
  EXPECT_EQ(f.received[0].second, "c");
}

TEST(SimNetworkTest, NodeDownBlackholesAllTraffic) {
  NetFixture f(NetworkConfig::Perfect());
  f.Attach(1);
  f.Attach(2);
  f.Attach(3);
  f.net.SetNodeUp(EndpointId{3}, false);
  f.Send(1, 2, "x");
  f.Send(1, 3, "x");
  f.Send(3, 1, "from-dead");
  f.queue.RunAll();
  ASSERT_EQ(f.received.size(), 1u);  // Only member 2 got the cast.
  EXPECT_EQ(f.received[0].first, 2u);
}

TEST(SimNetworkTest, InFlightPacketsDieWhenLinkCutMidFlight) {
  NetFixture f(NetworkConfig::Perfect());
  f.Attach(1);
  f.Attach(2);
  f.Send(1, 2, "doomed");
  // Cut the link before the propagation delay elapses.
  f.net.SetLinkUp(EndpointId{1}, EndpointId{2}, false);
  f.queue.RunAll();
  EXPECT_TRUE(f.received.empty());
}

TEST(SimNetworkTest, GatherFlattensScatterParts) {
  NetFixture f(NetworkConfig::Perfect());
  f.Attach(1);
  f.Attach(2);
  Iovec gather;
  gather.Append(Bytes::CopyString("ab"));
  gather.Append(Bytes::CopyString("cd"));
  f.net.Send(EndpointId{1}, EndpointId{2}, gather);
  f.queue.RunAll();
  ASSERT_EQ(f.received.size(), 1u);
  EXPECT_EQ(f.received[0].second, "abcd");
}

}  // namespace
}  // namespace ensemble
