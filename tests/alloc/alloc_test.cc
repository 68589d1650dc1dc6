// Steady-state allocation counts of the compiled routes and of UdpNetwork's
// send path.
//
// This executable replaces the global operator new with a counting one, so
// it is built apart from ensemble_tests: a replaced operator new there would
// blind AddressSanitizer's new/delete checks for the whole suite.  Under a
// sanitizer the replacement is compiled out and the tests skip.
//
// A four-member MACH group on the 10-layer stack, packing on, runs over an
// in-memory network whose sends copy into pooled chunks, so the network
// itself allocates nothing once warm.  The test delivers every datagram by
// hand, sub-message by sub-message, and counts operator new only inside the
// calls that make up a bypassed message: the sender's Cast/Send and Flush,
// and each receiver's dispatch of a sender's compressed sub-message that its
// route delivered.  Control traffic (gossip between receivers, credit
// grants, acks), CCP misses and timer ticks run uncounted; they are not a
// bypassed message's path.
//
// The UDP cases run two endpoints on one real UdpNetwork per backend and
// count operator new inside Send and Flush only: the send stage, the msghdr
// builder and the kernel or ring submission.  The receiver drains between
// rounds, uncounted.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "src/app/endpoint.h"
#include "src/marshal/wire_tags.h"
#include "src/net/udp.h"
#include "src/net/udp_uring.h"
#include "src/util/pool.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ENSEMBLE_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ENSEMBLE_ALLOC_COUNTING 0
#endif
#endif
#ifndef ENSEMBLE_ALLOC_COUNTING
#define ENSEMBLE_ALLOC_COUNTING 1
#endif

namespace {
std::atomic<uint64_t> g_news{0};
}  // namespace

#if ENSEMBLE_ALLOC_COUNTING
// libstdc++'s array and nothrow forms call this one, so it sees them all.
void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace ensemble {
namespace {

// In-memory datagram network: Send copies the gathered parts into a pooled
// chunk and queues it; the test delivers.  Timers are queued too and fired
// by the test between counted windows.
class LoopNet : public Network {
 public:
  struct Queued {
    EndpointId src;
    EndpointId dst;
    Bytes datagram;
  };

  LoopNet() {
    queue_.reserve(1 << 14);
    spare_.reserve(1 << 14);
  }

  void Attach(EndpointId ep, DeliverFn deliver) override {}
  void Detach(EndpointId ep) override {}
  void Send(EndpointId src, EndpointId dst, const Iovec& gather) override {
    Bytes copy = pool_.Allocate(gather.size());
    size_t pos = 0;
    for (size_t i = 0; i < gather.part_count(); i++) {
      std::memcpy(copy.MutableData() + pos, gather.part(i).data(), gather.part(i).size());
      pos += gather.part(i).size();
    }
    queue_.push_back({src, dst, std::move(copy)});
  }
  void ScheduleTimer(VTime delay, TimerFn fn) override {
    timers_.push_back({now_ + delay, std::move(fn)});
  }
  VTime Now() const override { return now_; }

  // Advances virtual time by `dt` and runs every timer then due.
  void Tick(VTime dt) {
    now_ += dt;
    std::vector<std::pair<VTime, TimerFn>> due;
    for (size_t i = 0; i < timers_.size();) {
      if (timers_[i].first <= now_) {
        due.push_back(std::move(timers_[i]));
        timers_[i] = std::move(timers_.back());
        timers_.pop_back();
      } else {
        i++;
      }
    }
    for (auto& [at, fn] : due) {
      fn();
    }
  }

  // Hands the queued datagrams to `visit` (datagrams they cause queue up for
  // the next call); returns how many there were.
  template <typename Visit>
  size_t DeliverQueued(Visit&& visit) {
    spare_.swap(queue_);
    size_t n = spare_.size();
    for (Queued& q : spare_) {
      visit(q);
    }
    spare_.clear();
    return n;
  }

 private:
  VTime now_ = 0;
  BufferPool pool_;
  std::vector<Queued> queue_;
  std::vector<Queued> spare_;
  std::vector<std::pair<VTime, TimerFn>> timers_;
};

struct Counts {
  uint64_t messages = 0;   // Bypassed casts or sends.
  uint64_t news = 0;       // operator new calls on their paths.
  uint64_t fallbacks = 0;  // Sender sub-messages a receiver punted (uncounted).
};

class Group {
 public:
  static constexpr int kMembers = 4;

  Group() {
    EndpointConfig config;
    config.mode = StackMode::kMachine;
    config.layers = TenLayerStack();
    config.pack_messages = true;
    auto view = std::make_shared<View>();
    view->vid = ViewId{0, 1};
    for (int i = 0; i < kMembers; i++) {
      view->members.push_back(EndpointId{static_cast<uint64_t>(i + 1)});
    }
    for (int i = 0; i < kMembers; i++) {
      eps_.push_back(std::make_unique<GroupEndpoint>(
          EndpointId{static_cast<uint64_t>(i + 1)}, &net_, config));
      eps_.back()->OnDeliver([this](const Event&) { delivered_++; });
    }
    for (auto& ep : eps_) {
      ep->Start(view);
    }
  }

  GroupEndpoint& member(int i) { return *eps_[static_cast<size_t>(i)]; }

  // Runs `rounds` rounds of `burst` messages from member 0 (`send` picks
  // Send to member 1 over Cast), counting from round `warm_rounds` on.
  Counts Run(bool send, int rounds, int warm_rounds, int burst) {
    Counts c;
    Bytes payload = Bytes::Allocate(64);
    std::memset(payload.MutableData(), 0x5A, 64);
    GroupEndpoint& tx = member(0);
    for (int round = 0; round < rounds; round++) {
      bool counted = round >= warm_rounds;
      for (int i = 0; i < burst; i++) {
        uint64_t hits = tx.stats().bypass_down;
        uint64_t before = g_news.load(std::memory_order_relaxed);
        if (send) {
          tx.Send(1, Iovec(payload));
        } else {
          tx.Cast(Iovec(payload));
        }
        uint64_t news = g_news.load(std::memory_order_relaxed) - before;
        if (counted && tx.stats().bypass_down == hits + 1) {
          c.messages++;
          c.news += news;
        }
      }
      uint64_t before = g_news.load(std::memory_order_relaxed);
      tx.Flush();
      if (counted) {
        c.news += g_news.load(std::memory_order_relaxed) - before;
      }
      // Deliver until quiet; receivers' responses go out uncounted.
      while (net_.DeliverQueued([&](LoopNet::Queued& q) {
        Deliver(q, send, counted, &c);
      }) > 0) {
        for (int m = 1; m < kMembers; m++) {
          member(m).Flush();
        }
      }
      if (round % 4 == 3) {
        net_.Tick(Millis(1));
      }
    }
    return c;
  }

  uint64_t delivered() const { return delivered_; }

 private:
  void Deliver(LoopNet::Queued& q, bool send, bool counted, Counts* c) {
    GroupEndpoint& rx = member(static_cast<int>(q.dst.id - 1));
    uint32_t cast_conn = member(0).cast_route()->conn_id();
    uint32_t gossip_conn = member(0).gossip_route()->conn_id();
    auto one = [&](const Bytes& sub) {
      // A sender's data sub-message: its cast route's, or for sends the one
      // compressed route that is neither the cast nor the gossip route.
      uint32_t conn = 0;
      if (q.src.id == 1 && sub.size() >= 6 && sub[0] == kWireCompressed) {
        std::memcpy(&conn, sub.data() + 1, 4);
      }
      bool ours = send ? conn != 0 && conn != cast_conn && conn != gossip_conn
                       : conn != 0 && conn == cast_conn;
      uint64_t hits = rx.stats().bypass_up;
      uint64_t punts = rx.stats().bypass_up_fallback;
      uint64_t before = g_news.load(std::memory_order_relaxed);
      rx.InjectDatagram(sub);
      uint64_t news = g_news.load(std::memory_order_relaxed) - before;
      if (!counted || !ours) {
        return;
      }
      if (rx.stats().bypass_up == hits + 1 && rx.stats().bypass_up_fallback == punts) {
        c->news += news;
      } else {
        c->fallbacks++;
      }
    };
    if (Transport::IsPacked(q.datagram)) {
      splitter_.ForEachPacked(q.datagram, one);
    } else {
      one(q.datagram);
    }
  }

  LoopNet net_;
  std::vector<std::unique_ptr<GroupEndpoint>> eps_;
  Transport splitter_;
  uint64_t delivered_ = 0;
};

constexpr double kMaxNewsPerMessage = 0.1;

TEST(AllocTest, BypassedCastAllocatesNothingInSteadyState) {
  if (!ENSEMBLE_ALLOC_COUNTING) {
    GTEST_SKIP() << "operator new is not replaced under a sanitizer";
  }
  Group g;
  // 16 casts per round (one full pack), 1,024 rounds, the first 256 warm.
  Counts c = g.Run(/*send=*/false, 1024, 256, 16);
  double per = static_cast<double>(c.news) / static_cast<double>(c.messages);
  std::printf("bypassed casts %llu, operator new %llu (%.4f per cast), fallbacks %llu\n",
              static_cast<unsigned long long>(c.messages),
              static_cast<unsigned long long>(c.news), per,
              static_cast<unsigned long long>(c.fallbacks));
  EXPECT_GT(c.messages, 10000u);
  EXPECT_LE(per, kMaxNewsPerMessage);
  // Every cast reached every member (three receivers plus the loopback).
  EXPECT_EQ(g.delivered(), 1024u * 16u * Group::kMembers);
}

TEST(AllocTest, BypassedSendAllocatesNothingInSteadyState) {
  if (!ENSEMBLE_ALLOC_COUNTING) {
    GTEST_SKIP() << "operator new is not replaced under a sanitizer";
  }
  Group g;
  Counts c = g.Run(/*send=*/true, 1024, 256, 16);
  double per = static_cast<double>(c.news) / static_cast<double>(c.messages);
  std::printf("bypassed sends %llu, operator new %llu (%.4f per send), fallbacks %llu\n",
              static_cast<unsigned long long>(c.messages),
              static_cast<unsigned long long>(c.news), per,
              static_cast<unsigned long long>(c.fallbacks));
  EXPECT_GT(c.messages, 10000u);
  EXPECT_LE(per, kMaxNewsPerMessage);
  EXPECT_EQ(g.delivered(), 1024u * 16u);
}

// One gather of `parts` parts of 16 bytes each (a packed datagram's shape
// when `parts` is large).
Iovec Gather(size_t parts) {
  Iovec gather;
  for (size_t i = 0; i < parts; i++) {
    Bytes part = Bytes::Allocate(16);
    std::memset(part.MutableData(), static_cast<int>('a' + i % 26), 16);
    gather.Append(std::move(part));
  }
  return gather;
}

// Endpoint 1 sends rounds of `burst` copies of `gather` to each of `dests`
// receivers (endpoints 2, 3, …), interleaved as a view cast stages them, each
// round closed by Flush; returns operator new calls inside Send and Flush
// after kWarmRounds rounds.  Every datagram must arrive.
uint64_t CountUdpSendNews(UdpNetwork& net, const Iovec& gather, int burst, uint64_t dests) {
  constexpr int kRounds = 600;
  constexpr int kWarmRounds = 100;
  uint64_t received = 0;
  net.Attach(EndpointId{1}, [](const Packet&) {});
  for (uint64_t d = 2; d < 2 + dests; d++) {
    net.Attach(EndpointId{d}, [&](const Packet& p) {
      if (p.src.id == 1 && p.datagram.size() == gather.size()) {
        received++;
      }
    });
  }
  EXPECT_TRUE(net.ok());
  uint64_t news = 0;
  uint64_t sent = 0;
  for (int round = 0; round < kRounds; round++) {
    uint64_t before = g_news.load(std::memory_order_relaxed);
    for (int i = 0; i < burst; i++) {
      for (uint64_t d = 2; d < 2 + dests; d++) {
        net.Send(EndpointId{1}, EndpointId{d}, gather);
      }
    }
    net.Flush();
    if (round >= kWarmRounds) {
      news += g_news.load(std::memory_order_relaxed) - before;
    }
    sent += static_cast<uint64_t>(burst) * dests;
    for (int spins = 0; spins < 100000 && received < sent; spins++) {
      net.Poll();
    }
  }
  EXPECT_EQ(received, sent);
  for (uint64_t ep = 1; ep < 2 + dests; ep++) {
    net.Detach(EndpointId{ep});
  }
  return news;
}

// Counts a 1-part and a 48-part gather, each sent alone per Flush and in
// bursts of 8 (on uring: plain ring slots, then GSO runs), to one receiver
// and interleaved over three (on uring: one GSO run per receiver), on a
// fresh network per combination.
uint64_t CountUdpBackend(const NetBackendConfig& config, NetBackend expect_active) {
  uint64_t total = 0;
  for (size_t parts : {size_t{1}, size_t{48}}) {
    Iovec gather = Gather(parts);
    for (int burst : {1, 8}) {
      for (uint64_t dests : {uint64_t{1}, uint64_t{3}}) {
        UdpNetwork net;
        net.set_backend_config(config);
        EXPECT_EQ(net.active_backend(), expect_active);
        uint64_t news = CountUdpSendNews(net, gather, burst, dests);
        std::printf("%s: %zu-part gather, %d per flush to %llu receivers: operator new %llu\n",
                    NetBackendName(net.active_backend()), parts, burst,
                    static_cast<unsigned long long>(dests), static_cast<unsigned long long>(news));
        total += news;
      }
    }
  }
  return total;
}

bool UdpAvailable() {
  UdpNetwork probe;
  probe.Attach(EndpointId{1}, [](const Packet&) {});
  return probe.ok();
}

TEST(AllocTest, UdpEagerSendAllocatesNothingInSteadyState) {
  if (!ENSEMBLE_ALLOC_COUNTING) {
    GTEST_SKIP() << "operator new is not replaced under a sanitizer";
  }
  if (!UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
  EXPECT_EQ(CountUdpBackend(NetBackendConfig::Eager(), NetBackend::kEager), 0u);
}

TEST(AllocTest, UdpMmsgSendAllocatesNothingInSteadyState) {
  if (!ENSEMBLE_ALLOC_COUNTING) {
    GTEST_SKIP() << "operator new is not replaced under a sanitizer";
  }
  if (!UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
  EXPECT_EQ(CountUdpBackend(NetBackendConfig::Batched(16), NetBackend::kMmsg), 0u);
}

// Where io_uring is unavailable (the ENSEMBLE_URING=OFF build, or a kernel
// that refuses it) the request falls back to mmsg, which must count 0 too.
TEST(AllocTest, UdpUringSendAllocatesNothingInSteadyState) {
  if (!ENSEMBLE_ALLOC_COUNTING) {
    GTEST_SKIP() << "operator new is not replaced under a sanitizer";
  }
  if (!UdpAvailable()) {
    GTEST_SKIP() << "no UDP sockets in this environment";
  }
#if defined(ENSEMBLE_URING_OFF)
  ASSERT_FALSE(UringEngine::Available());
#endif
  NetBackend active = UringEngine::Available() ? NetBackend::kUring : NetBackend::kMmsg;
  EXPECT_EQ(CountUdpBackend(NetBackendConfig::Uring(16), active), 0u);
}

}  // namespace
}  // namespace ensemble
