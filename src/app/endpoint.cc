#include "src/app/endpoint.h"

#include <cstring>

#include "src/layers/collect.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"

namespace ensemble {

const char* StackModeName(StackMode m) {
  switch (m) {
    case StackMode::kImperative:
      return "IMP";
    case StackMode::kFunctional:
      return "FUNC";
    case StackMode::kMachine:
      return "MACH";
    case StackMode::kHand:
      return "HAND";
  }
  return "?";
}

GroupEndpoint::GroupEndpoint(EndpointId self, Network* net, EndpointConfig config)
    : self_(self), net_(net), config_(std::move(config)), transport_(&conns_) {
  EngineKind engine = config_.mode == StackMode::kImperative ? EngineKind::kImperative
                                                             : EngineKind::kFunctional;
  stack_ = BuildStack(engine, config_.layers, config_.params, self_);
  stack_->set_dn_out([this](Event ev) { HandleStackDnOut(std::move(ev)); });
  stack_->set_up_out([this](Event ev) { HandleStackUpOut(std::move(ev)); });
  if (net_ != nullptr) {
    net_->Attach(self_, [this](const Packet& p) { HandlePacket(p); });
  }
  if (config_.pack_messages && net_ != nullptr) {
    transport_.EnablePacking(
        [this](const Transport::PackDest& dest, const Iovec& wire) {
          if (dest.cast) {
            SendToView(wire);
          } else {
            net_->Send(self_, dest.dst, wire);
          }
        },
        config_.pack_window);
    // Packs staged by our deliver path (acks, NAK retransmissions, responses
    // cast from callbacks) flush when the network's receive drain ends — not
    // only on the next periodic timer, which may never come (timers off).
    net_->SetDrainHook(self_, [this] { transport_.FlushPacked(); });
  }
  alive_token_ = std::make_shared<bool>(true);
}

GroupEndpoint::~GroupEndpoint() {
  *alive_token_ = false;
  if (net_ != nullptr) {
    net_->Detach(self_);
  }
}

void GroupEndpoint::Start(ViewRef initial_view) {
  ENS_CHECK(!started_);
  started_ = true;
  view_ = initial_view;
  stack_->Init(std::move(initial_view));
  CompileBypass();
  ArmTimer();
}

void GroupEndpoint::SwitchStack(std::vector<LayerId> layers, ViewRef new_view) {
  ENS_CHECK(started_);
  ENS_CHECK_MSG(!view_ || new_view->vid.counter > view_->vid.counter,
                "stack switches must move to a later view");
  config_.layers = std::move(layers);
  gossip_origin_ = nullptr;  // Goes with the old stack.
  EngineKind engine = config_.mode == StackMode::kImperative ? EngineKind::kImperative
                                                             : EngineKind::kFunctional;
  stack_ = BuildStack(engine, config_.layers, config_.params, self_);
  stack_->set_dn_out([this](Event ev) { HandleStackDnOut(std::move(ev)); });
  stack_->set_up_out([this](Event ev) { HandleStackUpOut(std::move(ev)); });
  view_ = new_view;
  stack_->Init(std::move(new_view));
  CompileBypass();
  if (on_view_) {
    on_view_(view_);
  }
}

void GroupEndpoint::CompileBypass() {
  conns_.Clear();
  cast_route_.reset();
  send_route_.reset();
  gossip_route_.reset();
  if (gossip_origin_ != nullptr) {
    gossip_origin_->fast().gossip_routed = 0;
    gossip_origin_ = nullptr;
  }
  hand_.reset();
  if (config_.mode == StackMode::kMachine) {
    std::string error;
    cast_route_ = CompileRoutePair(stack_.get(), /*cast=*/true, &error);
    ENS_CHECK_MSG(cast_route_ != nullptr, "bypass compile failed: " << error);
    send_route_ = CompileRoutePair(stack_.get(), /*cast=*/false, &error);
    ENS_CHECK_MSG(send_route_ != nullptr, "bypass compile failed: " << error);
    ENS_CHECK(conns_.Register(cast_route_.get()));
    ENS_CHECK(conns_.Register(send_route_.get()));
    // Collect's stability gossip gets its own route wherever the layers'
    // rules compose one; otherwise it keeps the normal path.
    gossip_route_ = CompileProtoCastRoute(stack_.get(), LayerId::kCollect, nullptr);
    if (gossip_route_ != nullptr) {
      ENS_CHECK(conns_.Register(gossip_route_.get()));
      gossip_origin_ =
          static_cast<CollectLayer*>(stack_->layer(gossip_route_->origin_layer_index()));
      gossip_origin_->fast().gossip_routed = 1;
    }
  } else if (config_.mode == StackMode::kHand) {
    std::string error;
    hand_ = Hand4Bypass::Create(stack_.get(), &error);
    ENS_CHECK_MSG(hand_ != nullptr, "hand bypass unavailable: " << error);
    ENS_CHECK(conns_.Register(hand_->cast_route()));
    ENS_CHECK(conns_.Register(hand_->send_route()));
  }
}

void GroupEndpoint::ArmTimer() {
  if (net_ == nullptr || config_.timer_interval == 0) {
    return;
  }
  std::weak_ptr<bool> alive = alive_token_;
  uint64_t epoch = net_epoch_.load(std::memory_order_relaxed);
  net_->ScheduleTimer(config_.timer_interval, [this, alive, epoch]() {
    auto token = alive.lock();
    if (!token) {
      return;
    }
    // A migration leaves this callback queued on the OLD shard's timer heap;
    // it fires on the old thread after ownership moved.  The epoch check is
    // the only read it may perform then — stale means bail, touching nothing.
    if (net_epoch_.load(std::memory_order_acquire) != epoch) {
      return;
    }
    if (!*token || !alive_) {
      return;
    }
    // The quiescence gossip round takes the compiled route too.  It leaves
    // before the tick enters the stack, where the normal path would emit it:
    // the layers above collect pass timers through without emitting.
    if (gossip_origin_ != nullptr && gossip_origin_->TimerGossipDue()) {
      EmitGossip();
    }
    stack_->Down(Event::Timer(net_->Now()));
    // Timer ticks double as flush boundaries: staged packs (and the
    // network's staging rings) never outlive one timer interval.
    Flush();
    ArmTimer();
  });
}

void GroupEndpoint::BeginRebind() {
  Flush();  // Staged packs and network rings drain on the old backend.
  net_epoch_.fetch_add(1, std::memory_order_acq_rel);
}

void GroupEndpoint::FinishRebind(Network* net) {
  net_ = net;
  if (started_) {
    ArmTimer();  // Reads the post-bump epoch: the new timer chain is valid.
  }
}

void GroupEndpoint::Flush() {
  transport_.FlushPacked();
  if (net_ != nullptr) {
    net_->Flush();
  }
}

void GroupEndpoint::EmitGossip() {
  Event gossip = gossip_origin_->TakeGossip();
  Iovec wire;
  if (gossip_route_->TryDown(gossip, &wire, nullptr)) {
    EmitCastWire(wire);
    return;
  }
  stack_->DownFrom(gossip_route_->origin_layer_index() + 1, std::move(gossip));
}

void GroupEndpoint::EmitDueGossip() {
  if (gossip_origin_ != nullptr && gossip_origin_->fast().gossip_due != 0) {
    EmitGossip();
  }
}

void GroupEndpoint::EmitCastWire(const Iovec& wire) {
  if (transport_.packing()) {
    transport_.PackCast(wire);
  } else {
    SendToView(wire);
  }
}

void GroupEndpoint::SendToView(const Iovec& wire) {
  // A cast is addressed to the current view: one Send per other member, so
  // an endpoint outside the group never sees it.
  if (net_ == nullptr || !view_) {
    return;
  }
  for (EndpointId member : view_->members) {
    if (member != self_) {
      net_->Send(self_, member, wire);
    }
  }
}

void GroupEndpoint::EmitSendWire(Rank dest, const Iovec& wire) {
  if (net_ == nullptr || !view_ || dest < 0 || dest >= view_->nmembers()) {
    return;
  }
  EndpointId dst = view_->members[static_cast<size_t>(dest)];
  if (transport_.packing()) {
    transport_.PackSend(dst, wire);
  } else {
    net_->Send(self_, dst, wire);
  }
}

void GroupEndpoint::Cast(Iovec payload) {
  if (send_window_ != nullptr) {
    // Charge payload bytes × receiver fan-out: that is what the cast will
    // occupy in pooled buffers and dispatch queues until delivered.
    size_t fan = view_ != nullptr && view_->nmembers() > 1
                     ? static_cast<size_t>(view_->nmembers() - 1)
                     : 1;
    if (!send_window_->TryReserve(payload.size() * fan)) {
      stats_.window_shed++;
      ENS_TRACE(kOverloadShed, -1, 0, payload.size() * fan);
      return;
    }
  }
  stats_.casts++;
  Event ev = Event::Cast(std::move(payload));
  if (config_.mode == StackMode::kMachine && cast_route_ != nullptr) {
    Iovec wire;
    std::vector<Event> self_deliveries;
    if (cast_route_->TryDown(ev, &wire, &self_deliveries)) {
      stats_.bypass_down++;
      EmitDueGossip();  // Due only on stacks that put collect above local.
      EmitCastWire(wire);
      for (Event& self : self_deliveries) {
        HandleStackUpOut(std::move(self));
      }
      return;
    }
    stats_.bypass_down_miss++;
  } else if (config_.mode == StackMode::kHand && hand_ != nullptr) {
    Iovec wire;
    if (hand_->TryDownCast(ev, &wire)) {
      stats_.bypass_down++;
      EmitCastWire(wire);
      return;
    }
    stats_.bypass_down_miss++;
  }
  stack_->Down(std::move(ev));
}

void GroupEndpoint::Send(Rank dest, Iovec payload) {
  if (send_window_ != nullptr && !send_window_->TryReserve(payload.size())) {
    stats_.window_shed++;
    ENS_TRACE(kOverloadShed, -1, 0, payload.size());
    return;
  }
  stats_.sends++;
  Event ev = Event::Send(dest, std::move(payload));
  if (config_.mode == StackMode::kMachine && send_route_ != nullptr) {
    Iovec wire;
    if (send_route_->TryDown(ev, &wire, nullptr)) {
      stats_.bypass_down++;
      EmitSendWire(dest, wire);
      return;
    }
    stats_.bypass_down_miss++;
  } else if (config_.mode == StackMode::kHand && hand_ != nullptr) {
    Iovec wire;
    if (hand_->TryDownSend(ev, &wire)) {
      stats_.bypass_down++;
      EmitSendWire(dest, wire);
      return;
    }
    stats_.bypass_down_miss++;
  }
  stack_->Down(std::move(ev));
}

void GroupEndpoint::Leave() {
  stack_->Down(Event::OfType(EventType::kLeave));
  Flush();  // Staged goodbyes go out before we detach.
  alive_ = false;
  if (net_ != nullptr) {
    net_->Detach(self_);
  }
}

void GroupEndpoint::HandleStackDnOut(Event ev) {
  // The bottom layer emitted a message: marshal and put it on the network.
  if (net_ == nullptr || !view_) {
    return;
  }
  Rank my_rank = view_->RankOf(self_);
  Iovec wire = transport_.MarshalDown(ev, my_rank);
  if (ev.type == EventType::kCast) {
    EmitCastWire(wire);
  } else if (ev.type == EventType::kSend) {
    EmitSendWire(ev.dest, wire);
  }
}

void GroupEndpoint::HandleStackUpOut(Event ev) {
  switch (ev.type) {
    case EventType::kDeliverCast:
    case EventType::kDeliverSend:
      stats_.delivered++;
      if (on_deliver_) {
        on_deliver_(ev);
      }
      return;
    case EventType::kView:
      InstallView(ev.view);
      return;
    case EventType::kInit:
      return;  // Our own Start.
    case EventType::kExit:
      alive_ = false;
      if (net_ != nullptr) {
        net_->Detach(self_);
      }
      if (on_exit_) {
        on_exit_();
      }
      return;
    default:
      return;  // Block / Suspect / Stable / Elect: internal bookkeeping.
  }
}

void GroupEndpoint::InstallView(ViewRef v) {
  view_ = v;
  // A new view invalidates the compiled routes (the constants changed).
  if (config_.mode == StackMode::kMachine || config_.mode == StackMode::kHand) {
    CompileBypass();
  }
  if (on_view_) {
    on_view_(view_);
  }
}

void GroupEndpoint::HandlePacket(const Packet& packet) {
  if (!alive_) {
    return;
  }
  stats_.packets_in++;
  InjectDatagram(packet.datagram);
}

void GroupEndpoint::InjectDatagram(const Bytes& datagram) {
  // A packed datagram splits into complete sub-datagrams (zero-copy slices),
  // each re-dispatched as if it had arrived alone — so packed compressed
  // traffic still hits the bypass/CCP path below.  Sub-messages are never
  // themselves packed, so this recursion is one level deep.
  if (Transport::IsPacked(datagram)) {
    transport_.ForEachPacked(datagram, [this](const Bytes& sub) {
      stats_.packed_in++;
      InjectDatagram(sub);
    });
    return;
  }

  // HAND mode intercepts its own connections before the generic dispatch.
  if (config_.mode == StackMode::kHand && hand_ != nullptr && datagram.size() >= 6 &&
      datagram[0] == kWireCompressed) {
    uint32_t conn_id;
    std::memcpy(&conn_id, datagram.data() + 1, 4);
    Rank origin = static_cast<Rank>(datagram[5]);
    Event out;
    RoutePair::UpResult r;
    if (conn_id == hand_->cast_conn_id()) {
      r = hand_->TryUpCast(datagram, 6, origin, &out);
    } else if (conn_id == hand_->send_conn_id()) {
      r = hand_->TryUpSend(datagram, 6, origin, &out);
    } else {
      return;  // Unknown connection.
    }
    switch (r) {
      case RoutePair::UpResult::kDelivered:
        stats_.bypass_up++;
        HandleStackUpOut(std::move(out));
        return;
      case RoutePair::UpResult::kConsumed:
        stats_.bypass_up++;
        return;
      case RoutePair::UpResult::kFallback:
        stats_.bypass_up_fallback++;
        stack_->Up(std::move(out));
        return;
      case RoutePair::UpResult::kBad:
        return;
    }
  }

  Transport::UpResult up = transport_.DispatchUp(datagram);
  switch (up.kind) {
    case Transport::UpKind::kDelivered:
      stats_.bypass_up++;
      // A round this delivery completed goes out first, as the normal path
      // flushes its down events before its deliveries.
      EmitDueGossip();
      HandleStackUpOut(std::move(up.ev));
      return;
    case Transport::UpKind::kConsumed:
      stats_.bypass_up++;
      return;
    case Transport::UpKind::kStackEvent:
      if (up.via_bypass) {
        stats_.bypass_up_fallback++;
      }
      stack_->Up(std::move(up.ev));
      return;
    case Transport::UpKind::kDrop:
      return;
  }
}

std::string GroupEndpoint::DescribeBypass() const {
  std::string out;
  if (cast_route_ != nullptr) {
    out += cast_route_->Describe();
  }
  if (send_route_ != nullptr) {
    out += send_route_->Describe();
  }
  if (gossip_route_ != nullptr) {
    out += gossip_route_->Describe();
  }
  if (hand_ != nullptr) {
    out += "HAND bypass wrapping:\n";
  }
  return out;
}

}  // namespace ensemble
