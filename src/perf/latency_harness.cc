#include "src/perf/latency_harness.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "src/bypass/hand.h"
#include "src/layers/mnak.h"
#include "src/marshal/generic_codec.h"
#include "src/perf/timer.h"
#include "src/util/logging.h"

namespace ensemble {

namespace {

// Quiet parameters: the paper's measurement conditions ("the outcome of the
// CCP checks is always the choice to run the bypass code"): no loopback, no
// flow-control grants or stability gossip within the measured horizon.
LayerParams QuietParams(LayerParams base) {
  base.local_loopback = false;
  base.mflow_window = 1u << 30;
  base.pt2pt_window = 1u << 30;
  base.stable_interval = 1u << 30;
  return base;
}

// A back-to-back sender/receiver pair with no network in between.
struct StackPair {
  std::unique_ptr<ProtocolStack> tx;
  std::unique_ptr<ProtocolStack> rx;
  std::unique_ptr<RoutePair> tx_route;
  std::unique_ptr<RoutePair> rx_route;
  std::unique_ptr<Hand4Bypass> tx_hand;
  std::unique_ptr<Hand4Bypass> rx_hand;
  MnakLayer* tx_mnak = nullptr;  // Pruned as the live stack prunes it.
  // Captured boundary events.
  std::vector<Event> tx_out;
  size_t delivered = 0;

  // Heap-allocated so the boundary-capture lambdas can safely hold `this`.
  static std::unique_ptr<StackPair> Make(StackMode mode, const std::vector<LayerId>& layers,
                                         const LayerParams& params) {
    auto pair = std::make_unique<StackPair>();
    StackPair* p = pair.get();
    EngineKind engine = mode == StackMode::kImperative ? EngineKind::kImperative
                                                       : EngineKind::kFunctional;
    p->tx = BuildStack(engine, layers, params, EndpointId{1});
    p->rx = BuildStack(engine, layers, params, EndpointId{2});
    p->tx->set_dn_out([p](Event ev) { p->tx_out.push_back(std::move(ev)); });
    p->tx->set_up_out([](Event) {});
    p->rx->set_dn_out([](Event) {});  // Receiver-side acks etc.: discarded.
    p->rx->set_up_out([p](Event ev) {
      if (ev.type == EventType::kDeliverCast || ev.type == EventType::kDeliverSend) {
        p->delivered++;
      }
    });

    auto view = std::make_shared<View>();
    view->vid = ViewId{0, 1};
    view->members = {EndpointId{1}, EndpointId{2}};
    p->tx->Init(view);
    p->rx->Init(view);
    p->tx_mnak = static_cast<MnakLayer*>(p->tx->FindLayer(LayerId::kMnak));

    std::string error;
    if (mode == StackMode::kMachine) {
      p->tx_route = CompileRoutePair(p->tx.get(), /*cast=*/true, &error);
      ENS_CHECK_MSG(p->tx_route != nullptr, error);
      p->rx_route = CompileRoutePair(p->rx.get(), /*cast=*/true, &error);
      ENS_CHECK_MSG(p->rx_route != nullptr, error);
    } else if (mode == StackMode::kHand) {
      p->tx_hand = Hand4Bypass::Create(p->tx.get(), &error);
      ENS_CHECK_MSG(p->tx_hand != nullptr, error);
      p->rx_hand = Hand4Bypass::Create(p->rx.get(), &error);
      ENS_CHECK_MSG(p->rx_hand != nullptr, error);
    }
    return pair;
  }

  // What a stability vector from the live stack's collect layer does: my
  // casts below `casts` are delivered everywhere, so mnak drops them.
  void PruneSent(uint64_t casts) {
    if (tx_mnak != nullptr) {
      tx_mnak->PruneStable({casts, 0});
    }
  }
};

// Times `cast(i)` for every i below `reps` on `timer`, pruning the sender's
// retransmission buffer outside the timed region every `interval` casts —
// the live stack's stability gossip rate (stable_interval) — so the buffer
// stays as short as it does live instead of growing over all `reps`.
template <typename Cast>
void TimedCasts(StackPair& pair, size_t reps, size_t interval, PhaseTimer* timer, Cast&& cast) {
  for (size_t begin = 0; begin < reps; begin += interval) {
    size_t end = std::min(reps, begin + interval);
    timer->Start();
    for (size_t i = begin; i < end; i++) {
      cast(i);
    }
    timer->Stop();
    pair.PruneSent(end);
  }
}

}  // namespace

PhaseLatency MeasureCodeLatency(const LatencyConfig& config) {
  const size_t reps = static_cast<size_t>(config.reps);
  const size_t prune_interval = std::max<size_t>(1, config.params.stable_interval);
  LayerParams params = QuietParams(config.params);
  auto pair_ptr = StackPair::Make(config.mode, config.layers, params);
  StackPair& pair = *pair_ptr;

  Bytes payload_bytes = Bytes::Allocate(config.msg_size);
  std::memset(payload_bytes.MutableData(), 0xA5, config.msg_size);
  Iovec payload(payload_bytes);

  PhaseTimer t_dn_stack, t_dn_trans, t_up_trans, t_up_stack;

  if (config.mode == StackMode::kImperative || config.mode == StackMode::kFunctional) {
    pair.tx_out.reserve(reps + 16);

    // Phase 1: Down Stack.
    TimedCasts(pair, reps, prune_interval, &t_dn_stack,
               [&](size_t) { pair.tx->Down(Event::Cast(payload)); });
    ENS_CHECK(pair.tx_out.size() == reps);

    // Phase 2: Down Transport (generic marshal; the scatter-gather parts go
    // to the wire as-is — the flatten below stands in for the NIC's gather
    // DMA and is outside the measured protocol code, as in the paper).
    std::vector<Iovec> wires(reps);
    t_dn_trans.Start();
    for (size_t i = 0; i < reps; i++) {
      wires[i] = GenericMarshal(pair.tx_out[i], /*sender_rank=*/0);
    }
    t_dn_trans.Stop();
    std::vector<Bytes> datagrams(reps);
    for (size_t i = 0; i < reps; i++) {
      datagrams[i] = wires[i].Flatten();
    }

    // Phase 3: Up Transport (generic unmarshal).
    std::vector<Event> ups(reps);
    t_up_trans.Start();
    for (size_t i = 0; i < reps; i++) {
      ENS_CHECK(GenericUnmarshal(datagrams[i], &ups[i]));
    }
    t_up_trans.Stop();

    // Phase 4: Up Stack.
    t_up_stack.Start();
    for (size_t i = 0; i < reps; i++) {
      pair.rx->Up(std::move(ups[i]));
    }
    t_up_stack.Stop();
    ENS_CHECK(pair.delivered == reps);
  } else if (config.mode == StackMode::kMachine) {
    std::vector<std::array<uint64_t, RoutePair::kMaxWireVars>> vars(reps);

    TimedCasts(pair, reps, prune_interval, &t_dn_stack, [&](size_t i) {
      Event ev = Event::Cast(payload);
      bool ok = pair.tx_route->DownUpdates(ev, vars[i].data(), nullptr);
      ENS_CHECK(ok);
    });

    Event proto = Event::Cast(payload);  // Payload template for BuildWire.
    std::vector<Iovec> wires(reps);
    t_dn_trans.Start();
    for (size_t i = 0; i < reps; i++) {
      pair.tx_route->BuildWire(vars[i].data(), proto, &wires[i]);
    }
    t_dn_trans.Stop();
    std::vector<Bytes> datagrams(reps);
    for (size_t i = 0; i < reps; i++) {
      datagrams[i] = wires[i].Flatten();  // NIC gather: untimed.
    }

    std::vector<std::array<uint64_t, RoutePair::kMaxWireVars>> upvars(reps);
    std::vector<size_t> payload_off(reps);
    t_up_trans.Start();
    for (size_t i = 0; i < reps; i++) {
      // Preamble parse (tag/conn/origin) + var decode.
      uint32_t conn;
      std::memcpy(&conn, datagrams[i].data() + 1, 4);
      ENS_CHECK(conn == pair.rx_route->conn_id());
      bool ok = pair.rx_route->DecodeVars(datagrams[i], 6, upvars[i].data(), &payload_off[i]);
      ENS_CHECK(ok);
    }
    t_up_trans.Stop();

    t_up_stack.Start();
    for (size_t i = 0; i < reps; i++) {
      Event out;
      RoutePair::UpResult r =
          pair.rx_route->UpFromVars(datagrams[i], payload_off[i], upvars[i].data(), 0, &out);
      ENS_CHECK(r == RoutePair::UpResult::kDelivered);
      pair.delivered++;
    }
    t_up_stack.Stop();
  } else {  // HAND
    std::vector<uint32_t> seqnos(reps);

    TimedCasts(pair, reps, prune_interval, &t_dn_stack, [&](size_t i) {
      Event ev = Event::Cast(payload);
      seqnos[i] = pair.tx_hand->DownCastUpdates(ev);
      ENS_CHECK(seqnos[i] != UINT32_MAX);
    });

    std::vector<Iovec> wires(reps);
    t_dn_trans.Start();
    for (size_t i = 0; i < reps; i++) {
      pair.tx_hand->BuildCastWire(seqnos[i], payload, &wires[i]);
    }
    t_dn_trans.Stop();
    std::vector<Bytes> datagrams(reps);
    for (size_t i = 0; i < reps; i++) {
      datagrams[i] = wires[i].Flatten();  // NIC gather: untimed.
    }

    std::vector<uint32_t> rx_seqnos(reps);
    t_up_trans.Start();
    for (size_t i = 0; i < reps; i++) {
      uint32_t conn;
      std::memcpy(&conn, datagrams[i].data() + 1, 4);
      ENS_CHECK(conn == pair.rx_hand->cast_conn_id());
      std::memcpy(&rx_seqnos[i], datagrams[i].data() + 6, 4);
    }
    t_up_trans.Stop();

    t_up_stack.Start();
    for (size_t i = 0; i < reps; i++) {
      Event out;
      RoutePair::UpResult r = pair.rx_hand->UpCastCommit(rx_seqnos[i], datagrams[i], 10, 0, &out);
      ENS_CHECK(r == RoutePair::UpResult::kDelivered);
      pair.delivered++;
    }
    t_up_stack.Stop();
  }

  PhaseLatency lat;
  double n = static_cast<double>(reps);
  lat.down_stack_ns = static_cast<double>(t_dn_stack.total_ns()) / n;
  lat.down_trans_ns = static_cast<double>(t_dn_trans.total_ns()) / n;
  lat.up_trans_ns = static_cast<double>(t_up_trans.total_ns()) / n;
  lat.up_stack_ns = static_cast<double>(t_up_stack.total_ns()) / n;
  return lat;
}

double MeasureCcpCheckNs(const std::vector<LayerId>& layers, int reps) {
  LayerParams params = QuietParams(LayerParams{});
  auto pair_ptr = StackPair::Make(StackMode::kMachine, layers, params);
  StackPair& pair = *pair_ptr;
  Bytes payload_bytes = Bytes::Allocate(4);
  std::memset(payload_bytes.MutableData(), 0, 4);
  Event ev = Event::Cast(Iovec(payload_bytes));

  volatile bool sink = false;
  PhaseTimer t;
  t.Start();
  for (int i = 0; i < reps; i++) {
    sink = pair.tx_route->CheckDownCcp(ev);
  }
  t.Stop();
  (void)sink;
  return static_cast<double>(t.total_ns()) / static_cast<double>(reps);
}

size_t RunSendRecvRounds(StackMode mode, const std::vector<LayerId>& layers, int rounds,
                         size_t msg_size) {
  LayerParams params = QuietParams(LayerParams{});
  auto pair_ptr = StackPair::Make(mode, layers, params);
  StackPair& pair = *pair_ptr;
  Bytes payload_bytes = Bytes::Allocate(msg_size);
  std::memset(payload_bytes.MutableData(), 0x5A, msg_size);
  Iovec payload(payload_bytes);

  const int prune_interval = static_cast<int>(LayerParams{}.stable_interval);
  for (int i = 0; i < rounds; i++) {
    if (i > 0 && i % prune_interval == 0) {
      pair.PruneSent(static_cast<uint64_t>(i));
    }
    if (mode == StackMode::kMachine) {
      Event ev = Event::Cast(payload);
      Iovec wire;
      ENS_CHECK(pair.tx_route->TryDown(ev, &wire, nullptr));
      Bytes datagram = wire.Flatten();
      Event out;
      RoutePair::UpResult r = pair.rx_route->TryUp(datagram, 6, 0, &out);
      ENS_CHECK(r == RoutePair::UpResult::kDelivered);
      pair.delivered++;
    } else if (mode == StackMode::kHand) {
      Event ev = Event::Cast(payload);
      Iovec wire;
      ENS_CHECK(pair.tx_hand->TryDownCast(ev, &wire));
      Bytes datagram = wire.Flatten();
      Event out;
      RoutePair::UpResult r = pair.rx_hand->TryUpCast(datagram, 6, 0, &out);
      ENS_CHECK(r == RoutePair::UpResult::kDelivered);
      pair.delivered++;
    } else {
      size_t before = pair.tx_out.size();
      pair.tx->Down(Event::Cast(payload));
      ENS_CHECK(pair.tx_out.size() == before + 1);
      Iovec wire = GenericMarshal(pair.tx_out.back(), 0);
      pair.tx_out.pop_back();
      Bytes datagram = wire.Flatten();
      Event up;
      ENS_CHECK(GenericUnmarshal(datagram, &up));
      pair.rx->Up(std::move(up));
    }
  }
  return pair.delivered;
}

}  // namespace ensemble
