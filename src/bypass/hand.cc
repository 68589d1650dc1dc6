#include "src/bypass/hand.h"

#include <cstring>

#include "src/marshal/generic_codec.h"

namespace ensemble {

std::unique_ptr<Hand4Bypass> Hand4Bypass::Create(ProtocolStack* stack, std::string* error) {
  if (stack->depth() != 4 || stack->layer(0)->id() != LayerId::kTop ||
      stack->layer(1)->id() != LayerId::kPt2pt || stack->layer(2)->id() != LayerId::kMnak ||
      stack->layer(3)->id() != LayerId::kBottom) {
    if (error != nullptr) {
      *error = "hand bypass is written for the exact 4-layer stack top/pt2pt/mnak/bottom";
    }
    return nullptr;
  }
  auto hand = std::unique_ptr<Hand4Bypass>(new Hand4Bypass());
  hand->cast_route_ = CompileRoutePair(stack, /*cast=*/true, error);
  hand->send_route_ = CompileRoutePair(stack, /*cast=*/false, error);
  if (!hand->cast_route_ || !hand->send_route_) {
    return nullptr;
  }
  hand->pt2pt_ = static_cast<Pt2ptFast*>(stack->layer(1)->FastState());
  hand->mnak_ = static_cast<MnakFast*>(stack->layer(2)->FastState());
  hand->bottom_ = static_cast<BottomFast*>(stack->layer(3)->FastState());
  hand->my_rank_ = stack->layer(0)->rank();
  hand->cast_upper_ = hand->cast_route_->SavedLayout();
  hand->send_upper_ = hand->send_route_->SavedLayout();
  return hand;
}

uint32_t Hand4Bypass::DownCastUpdates(const Event& ev) {
  // Send-after-deliver: skip the (already known true) CCP.
  if (!skip_next_ccp_) {
    if (!bottom_->enabled) {
      return UINT32_MAX;
    }
  }
  skip_next_ccp_ = false;
  uint32_t seqno = mnak_->send_seqno;
  // Nothing above mnak has a var on this stack, so the layout stands alone.
  mnak_->self->SaveSent(seqno).Save(ev.payload, LazyHeaders{&cast_upper_, nullptr});
  mnak_->send_seqno = seqno + 1;
  return seqno;
}

void Hand4Bypass::BuildWire(uint32_t conn, uint32_t seqno, const Iovec& payload, Iovec* wire) {
  uint8_t buf[10];
  buf[0] = kWireCompressed;
  std::memcpy(buf + 1, &conn, 4);
  buf[5] = static_cast<uint8_t>(my_rank_);
  std::memcpy(buf + 6, &seqno, 4);
  wire->Clear();
  wire->Append(slab_.Copy(buf, sizeof(buf)));
  wire->Append(payload);
}

void Hand4Bypass::BuildCastWire(uint32_t seqno, const Iovec& payload, Iovec* wire) {
  BuildWire(cast_route_->conn_id(), seqno, payload, wire);
}

bool Hand4Bypass::TryDownCast(Event& ev, Iovec* wire) {
  uint32_t seqno = DownCastUpdates(ev);
  if (seqno == UINT32_MAX) {
    return false;
  }
  BuildCastWire(seqno, ev.payload, wire);
  return true;
}

bool Hand4Bypass::TryDownSend(Event& ev, Iovec* wire) {
  if (!skip_next_ccp_) {
    if (!bottom_->enabled) {
      return false;
    }
  }
  skip_next_ccp_ = false;
  uint32_t seqno = static_cast<uint32_t>(pt2pt_->self->NextSendSeqno(ev.dest));
  pt2pt_->self->SaveNext(ev.dest).Save(ev.payload, LazyHeaders{&send_upper_, nullptr});
  BuildWire(send_route_->conn_id(), seqno, ev.payload, wire);
  return true;
}

RoutePair::UpResult Hand4Bypass::UpCastCommit(uint32_t seqno, const Bytes& datagram,
                                              size_t payload_off, Rank origin, Event* out) {
  if (!bottom_->enabled || seqno != mnak_->self->Expected(origin) ||
      !mnak_->self->NoBacklog(origin)) {
    // Punt to the compiled route's reconstruction path.
    return cast_route_->TryUp(datagram, payload_off - 4, origin, out);
  }
  mnak_->self->FastReceive(origin, seqno);
  Event deliver;
  deliver.type = EventType::kDeliverCast;
  deliver.origin = origin;
  if (payload_off < datagram.size()) {
    deliver.payload.Append(datagram.Slice(payload_off, datagram.size() - payload_off));
  }
  *out = std::move(deliver);
  skip_next_ccp_ = true;  // The famous send-after-deliver assumption.
  return RoutePair::UpResult::kDelivered;
}

RoutePair::UpResult Hand4Bypass::TryUpCast(const Bytes& datagram, size_t offset, Rank origin,
                                           Event* out) {
  if (datagram.size() < offset + 4) {
    return RoutePair::UpResult::kBad;
  }
  uint32_t seqno;
  std::memcpy(&seqno, datagram.data() + offset, 4);
  return UpCastCommit(seqno, datagram, offset + 4, origin, out);
}

RoutePair::UpResult Hand4Bypass::TryUpSend(const Bytes& datagram, size_t offset, Rank origin,
                                           Event* out) {
  if (datagram.size() < offset + 4) {
    return RoutePair::UpResult::kBad;
  }
  uint32_t seqno;
  std::memcpy(&seqno, datagram.data() + offset, 4);
  if (!bottom_->enabled || seqno != pt2pt_->self->Expected(origin) ||
      !pt2pt_->self->NoBacklog(origin)) {
    return send_route_->TryUp(datagram, offset, origin, out);
  }
  pt2pt_->self->FastReceive(origin, seqno);
  Event deliver;
  deliver.type = EventType::kDeliverSend;
  deliver.origin = origin;
  size_t payload_off = offset + 4;
  if (payload_off < datagram.size()) {
    deliver.payload.Append(datagram.Slice(payload_off, datagram.size() - payload_off));
  }
  *out = std::move(deliver);
  skip_next_ccp_ = true;
  return RoutePair::UpResult::kDelivered;
}

}  // namespace ensemble
