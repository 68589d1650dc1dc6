// Adversarial-input robustness: everything that parses bytes off the wire
// must reject garbage without crashing or corrupting state — fuzz-style
// sweeps with deterministic seeds.

#include <gtest/gtest.h>

#include <cstring>

#include "src/app/harness.h"
#include "src/bypass/compiler.h"
#include "src/bypass/conn_table.h"
#include "src/layers/collect.h"
#include "src/marshal/generic_codec.h"
#include "src/trans/transport.h"
#include "src/util/rng.h"

namespace ensemble {
namespace {

TEST(RobustnessTest, TransportDropsEmptyAndUnknownTags) {
  Transport transport;
  EXPECT_EQ(transport.DispatchUp(Bytes()).kind, Transport::UpKind::kDrop);
  for (int tag = 0; tag < 256; tag++) {
    if (tag == kWireGeneric || tag == kWireCompressed) {
      continue;
    }
    uint8_t buf[8] = {static_cast<uint8_t>(tag), 1, 2, 3, 4, 5, 6, 7};
    EXPECT_EQ(transport.DispatchUp(Bytes::Copy(buf, sizeof(buf))).kind,
              Transport::UpKind::kDrop)
        << "tag " << tag;
  }
}

TEST(RobustnessTest, TransportDropsShortCompressedPreambles) {
  Transport transport;
  ConnTable conns;
  transport.set_conn_table(&conns);
  for (size_t len = 1; len < 6; len++) {
    std::vector<uint8_t> buf(len, 0);
    buf[0] = kWireCompressed;
    EXPECT_EQ(transport.DispatchUp(Bytes::Copy(buf.data(), len)).kind,
              Transport::UpKind::kDrop)
        << "len " << len;
  }
}

TEST(RobustnessTest, TransportDropsUnknownConnIds) {
  Transport transport;
  ConnTable conns;
  transport.set_conn_table(&conns);
  uint8_t buf[10] = {kWireCompressed, 0xAA, 0xBB, 0xCC, 0xDD, 0, 1, 2, 3, 4};
  EXPECT_EQ(transport.DispatchUp(Bytes::Copy(buf, sizeof(buf))).kind,
            Transport::UpKind::kDrop);
}

class FuzzSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSeedTest, RandomBytesNeverCrashGenericUnmarshal) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 2000; iter++) {
    size_t len = rng.Below(200);
    std::vector<uint8_t> buf(len);
    for (auto& b : buf) {
      b = static_cast<uint8_t>(rng.Next());
    }
    if (!buf.empty() && rng.Chance(0.5)) {
      buf[0] = kWireGeneric;  // Force the parser past the tag check.
    }
    Event out;
    GenericUnmarshal(Bytes::Copy(buf.data(), buf.size()), &out);  // Must not crash.
  }
}

TEST_P(FuzzSeedTest, TruncatedRealDatagramsAreRejectedNotCrashed) {
  // Take a real marshaled message and feed every truncation of it.
  GroupHarness g{[] {
    HarnessConfig c;
    c.n = 2;
    c.ep.layers = TenLayerStack();
    return c;
  }()};
  g.StartAll();
  // Produce a real datagram by catching it at the stack boundary.
  std::vector<Event> out;
  auto stack = BuildStack(EngineKind::kFunctional, TenLayerStack(), LayerParams{},
                          EndpointId{9});
  stack->set_dn_out([&out](Event ev) { out.push_back(std::move(ev)); });
  stack->set_up_out([](Event) {});
  auto view = std::make_shared<View>();
  view->vid = ViewId{0, 1};
  view->members = {EndpointId{9}, EndpointId{10}};
  stack->Init(view);
  stack->Down(Event::Cast(Iovec(Bytes::CopyString("victim"))));
  ASSERT_FALSE(out.empty());
  Bytes datagram = GenericMarshal(out[0], 0).Flatten();

  Rng rng(GetParam());
  for (size_t cut = 0; cut < datagram.size(); cut++) {
    Bytes truncated = datagram.Slice(0, cut);
    Event ev;
    GenericUnmarshal(truncated, &ev);  // Must not crash.
    // And corrupted single bytes:
    Bytes corrupted = Bytes::Copy(datagram.data(), datagram.size());
    corrupted.MutableData()[rng.Below(datagram.size())] ^= 0xFF;
    GenericUnmarshal(corrupted, &ev);
  }
}

TEST_P(FuzzSeedTest, CompressedGarbageThroughRealRoutes) {
  // Random var bytes after a VALID conn preamble: the route must either
  // deliver, fall back, or report kBad — never crash or corrupt the stack.
  auto stack = BuildStack(EngineKind::kFunctional, TenLayerStack(), LayerParams{},
                          EndpointId{1});
  stack->set_dn_out([](Event) {});
  stack->set_up_out([](Event) {});
  auto view = std::make_shared<View>();
  view->vid = ViewId{0, 1};
  view->members = {EndpointId{1}, EndpointId{2}};
  stack->Init(view);
  std::string error;
  auto route = CompileRoutePair(stack.get(), true, &error);
  ASSERT_NE(route, nullptr) << error;

  Rng rng(GetParam());
  for (int iter = 0; iter < 1000; iter++) {
    size_t len = 6 + rng.Below(40);
    std::vector<uint8_t> buf(len);
    buf[0] = kWireCompressed;
    uint32_t conn = route->conn_id();
    std::memcpy(buf.data() + 1, &conn, 4);
    buf[5] = static_cast<uint8_t>(rng.Below(3));
    for (size_t i = 6; i < len; i++) {
      buf[i] = static_cast<uint8_t>(rng.Next());
    }
    Event ev;
    route->TryUp(Bytes::Copy(buf.data(), buf.size()), 6, static_cast<Rank>(buf[5]), &ev);
    // If the random seqno happened to be the expected one the event was
    // delivered and state advanced — that is correct behavior (the bytes
    // formed a valid message); everything else must fall back or be bad.
  }
  // The stack is still functional after the garbage storm.
  stack->Down(Event::Cast(Iovec(Bytes::CopyString("still alive"))));
}

// A three-member MACH group whose member 0 has cast once, so the stability
// vectors it gossips are not all zero.
HarnessConfig MachTrio() {
  HarnessConfig config;
  config.n = 3;
  config.ep.mode = StackMode::kMachine;
  config.ep.layers = TenLayerStack();
  return config;
}

// Member 0 casts one real gossip round through its compiled route; the
// datagram is returned instead of sent.
Bytes TakeGossipDatagram(GroupEndpoint& ep) {
  auto* collect = static_cast<CollectLayer*>(ep.stack()->FindLayer(LayerId::kCollect));
  Event round = collect->TakeGossip();
  Iovec wire;
  EXPECT_TRUE(ep.gossip_route()->TryDown(round, &wire, nullptr));
  return wire.Flatten();
}

TEST_P(FuzzSeedTest, MutatedGossipDatagramsNeverCrashOrOverRead) {
  // Seeded mutations of a real compressed gossip datagram — truncated, the
  // vector's count flipped, the acks cut short, payload bytes flipped — fed
  // to a MACH member.  Each is consumed, handed to the normal path or
  // dropped.  Every mutant is an exact-size copy, so a read past its end
  // fails the asan leg.  Real traffic flows afterwards.
  GroupHarness g(MachTrio());
  g.StartAll();
  g.CastFrom(0, "warm");
  g.Run(Millis(5));
  ASSERT_NE(g.member(0).gossip_route(), nullptr);
  Bytes real = TakeGossipDatagram(g.member(0));
  size_t hdr = g.member(0).gossip_route()->wire_header_bytes();
  ASSERT_EQ(real.size(), hdr + 2 + 8 * 3);  // [count u16][3 x u64 acks].

  Rng rng(GetParam());
  for (int iter = 0; iter < 1000; iter++) {
    std::vector<uint8_t> buf(real.data(), real.data() + real.size());
    switch (rng.Below(4)) {
      case 0:  // Truncated anywhere, header included.
        buf.resize(rng.Below(buf.size()));
        break;
      case 1: {  // Count flipped.
        uint16_t n = static_cast<uint16_t>(rng.Below(65536));
        std::memcpy(buf.data() + hdr, &n, 2);
        break;
      }
      case 2:  // Acks shortened by one to three words.
        buf.resize(buf.size() - 8 * (1 + rng.Below(3)));
        break;
      default:  // A payload byte flipped.
        buf[hdr + rng.Below(buf.size() - hdr)] ^= static_cast<uint8_t>(1 + rng.Below(255));
        break;
    }
    g.member(1).InjectDatagram(Bytes::Copy(buf.data(), buf.size()));
  }
  g.CastFrom(0, "after the storm");
  g.Run(Millis(50));
  for (int m : {1, 2}) {
    auto delivered = g.CastPayloadsFrom(m, 0);
    ASSERT_FALSE(delivered.empty());
    EXPECT_EQ(delivered.back(), "after the storm");
  }
}

TEST_P(FuzzSeedTest, MutatedPackedFramingDispatchesAllOrNothing) {
  // Seeded mutations of a real kWirePacked datagram — its count, one byte of
  // a length prefix, its size — checked two ways: ForEachPacked either
  // accepts and its slices tile the datagram exactly, or rejects having
  // visited nothing; and the bytes go through a MACH member's receive path.
  GroupHarness g(MachTrio());
  g.StartAll();
  Transport packer;
  std::vector<Bytes> emitted;
  packer.EnablePacking(
      [&](const Transport::PackDest&, const Iovec& wire) { emitted.push_back(wire.Flatten()); });
  std::vector<size_t> prefix_at;
  size_t pos = 2;
  for (int i = 0; i < 3; i++) {
    Event ev = Event::Cast(Iovec(Bytes::CopyString("packed" + std::to_string(i))));
    Iovec wire;
    Event self;  // The loopback split's self-delivery.
    ASSERT_TRUE(g.member(0).cast_route()->TryDown(ev, &wire, &self));
    packer.PackCast(wire);
    prefix_at.push_back(pos);
    pos += 4 + wire.size();
  }
  packer.PackCast(Iovec(TakeGossipDatagram(g.member(0))));
  prefix_at.push_back(pos);
  packer.FlushPacked();
  ASSERT_EQ(emitted.size(), 1u);
  const Bytes& real = emitted[0];
  ASSERT_TRUE(Transport::IsPacked(real));

  Rng rng(GetParam());
  size_t accepted = 0;
  for (int iter = 0; iter < 1000; iter++) {
    std::vector<uint8_t> buf(real.data(), real.data() + real.size());
    switch (rng.Below(4)) {
      case 0:  // Count flipped.
        buf[1] = static_cast<uint8_t>(rng.Below(256));
        break;
      case 1:  // One byte of one length prefix flipped.
        buf[prefix_at[rng.Below(prefix_at.size())] + rng.Below(4)] ^=
            static_cast<uint8_t>(1 + rng.Below(255));
        break;
      case 2:  // Truncated.
        buf.resize(rng.Below(buf.size()));
        break;
      default:  // Trailing bytes.
        buf.resize(buf.size() + 1 + rng.Below(8), static_cast<uint8_t>(rng.Next()));
        break;
    }
    Bytes d = Bytes::Copy(buf.data(), buf.size());
    size_t visited = 0;
    size_t bytes = 0;
    Transport t;
    bool ok = t.ForEachPacked(d, [&](const Bytes& sub) {
      visited++;
      bytes += sub.size();
    });
    if (ok) {
      accepted++;
      EXPECT_EQ(visited, static_cast<size_t>(d[1]));
      EXPECT_EQ(2 + 4 * visited + bytes, d.size());
    } else {
      EXPECT_EQ(visited, 0u);
    }
    g.member(1).InjectDatagram(d);
  }
  EXPECT_LT(accepted, 1000u);
  g.CastFrom(0, "after the storm");
  g.Run(Millis(50));
  auto delivered = g.CastPayloadsFrom(1, 0);
  ASSERT_FALSE(delivered.empty());
  EXPECT_EQ(delivered.back(), "after the storm");
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest, ::testing::Values(101, 202, 303));

TEST(RobustnessTest, EndpointSurvivesDatagramInjection) {
  HarnessConfig config;
  config.n = 2;
  config.ep.mode = StackMode::kMachine;
  config.ep.layers = TenLayerStack();
  GroupHarness g(config);
  g.StartAll();
  Rng rng(7);
  for (int iter = 0; iter < 500; iter++) {
    size_t len = rng.Below(64);
    std::vector<uint8_t> buf(len);
    for (auto& b : buf) {
      b = static_cast<uint8_t>(rng.Next());
    }
    g.member(1).InjectDatagram(Bytes::Copy(buf.data(), buf.size()));
  }
  // Real traffic still flows afterwards.
  g.CastFrom(0, "after the storm");
  g.Run(Millis(50));
  auto delivered = g.CastPayloadsFrom(1, 0);
  ASSERT_FALSE(delivered.empty());
  EXPECT_EQ(delivered.back(), "after the storm");
}

TEST(RobustnessTest, HarnessWithZeroTimerStillDeliversOnPerfectNet) {
  HarnessConfig config;
  config.n = 2;
  config.ep.layers = FourLayerStack();
  config.ep.timer_interval = 0;  // No retransmission machinery at all.
  GroupHarness g(config);
  g.StartAll();
  g.CastFrom(0, "no-timers");
  g.Run(Millis(10));
  EXPECT_EQ(g.CastPayloads(1), (std::vector<std::string>{"no-timers"}));
}

}  // namespace
}  // namespace ensemble
