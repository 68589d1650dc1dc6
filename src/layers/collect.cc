#include "src/layers/collect.h"

#include <algorithm>

#include "src/marshal/header_desc.h"
#include "src/marshal/wire.h"
#include "src/util/hash.h"
#include "src/util/logging.h"

namespace ensemble {

ENSEMBLE_REGISTER_HEADER(CollectHeader, LayerId::kCollect, ENS_FIELD(CollectHeader, kU8, kind));
ENSEMBLE_REGISTER_LAYER(LayerId::kCollect, CollectLayer);

bool CollectLayer::CountDelivered(Rank origin, uint64_t seq_hint, bool is_data) {
  if (origin >= 0 && static_cast<size_t>(origin) < acks_.size()) {
    acks_[static_cast<size_t>(origin)] =
        std::max(acks_[static_cast<size_t>(origin)], seq_hint + 1);
  }
  if (!is_data) {
    return true;
  }
  fast_.data_since_gossip = 1;
  fast_.since_gossip++;
  return fast_.since_gossip < fast_.interval;
}

Event CollectLayer::TakeGossip() {
  GlobalProtocolStats().gossips_sent++;
  fast_.since_gossip = 0;
  fast_.data_since_gossip = 0;
  fast_.gossip_due = 0;
  last_gossiped_ = acks_;
  // Our own vector participates in the aggregate directly.
  if (rank_ != kNoRank && static_cast<size_t>(rank_) < peer_acks_.size()) {
    peer_acks_[static_cast<size_t>(rank_)] = acks_;
  }
  WireWriter w;
  w.U16(static_cast<uint16_t>(acks_.size()));
  for (uint64_t a : acks_) {
    w.U64(a);
  }
  Event gossip = Event::Cast(Iovec(w.Take()));
  gossip.protocol_cast = true;
  gossip.hdrs.Push(LayerId::kCollect, CollectHeader{kCollectGossip});
  return gossip;
}

bool CollectLayer::TimerGossipDue() const {
  return fast_.data_since_gossip != 0 && acks_ != last_gossiped_;
}

bool CollectLayer::ReceiveGossip(Rank from, uint64_t seq_hint, const Iovec& payload) {
  GlobalProtocolStats().gossips_recv++;
  CountDelivered(from, seq_hint, /*is_data=*/false);
  if (from < 0 || static_cast<size_t>(from) >= peer_acks_.size()) {
    return false;
  }
  // Parse straight into the sender's row, once the vector is known to be
  // whole and sized for this view.
  Bytes flat = payload.Flatten();
  WireReader r(flat);
  uint16_t n = r.U16();
  if (!r.ok() || n != acks_.size() || r.remaining() < size_t{n} * 8) {
    return false;
  }
  std::vector<uint64_t>& row = peer_acks_[static_cast<size_t>(from)];
  for (uint64_t& a : row) {
    a = r.U64();
  }
  return Aggregate();
}

bool CollectLayer::Aggregate() {
  // For each sender's column: minimum over the OTHER members' rows — a
  // sender trivially possesses its own casts, so its row never constrains
  // its own column.  Unheard members hold the minimum at zero (safely
  // conservative).
  mins_.resize(acks_.size());
  for (size_t col = 0; col < mins_.size(); col++) {
    uint64_t m = UINT64_MAX;
    for (size_t row = 0; row < peer_acks_.size(); row++) {
      if (row == col) {
        continue;
      }
      uint64_t v = peer_acks_[row].size() == mins_.size() ? peer_acks_[row][col] : 0;
      m = std::min(m, v);
    }
    mins_[col] = m == UINT64_MAX ? 0 : m;
  }
  if (mins_ == last_stable_) {
    return false;
  }
  last_stable_ = mins_;
  GlobalProtocolStats().stable_advances++;
  return true;
}

void CollectLayer::Dn(Event ev, EventSink& sink) {
  switch (ev.type) {
    case EventType::kCast:
      fast_.data_since_gossip = 1;
      ev.hdrs.Push(LayerId::kCollect, CollectHeader{kCollectData});
      sink.PassDn(std::move(ev));
      return;
    case EventType::kTimer:
      // Quiescence gossip: when data traffic stops mid-interval, the
      // counters still reach the group so stability keeps advancing.  Gated
      // on data (not protocol) traffic — delivered or cast — to damp gossip
      // ping-pong.
      if (TimerGossipDue()) {
        sink.PassDn(TakeGossip());
      }
      sink.PassDn(std::move(ev));
      return;
    case EventType::kView:
      NoteView(ev);
      ResetForView();
      sink.PassDn(std::move(ev));
      return;
    default:
      sink.PassDn(std::move(ev));
      return;
  }
}

void CollectLayer::Up(Event ev, EventSink& sink) {
  switch (ev.type) {
    case EventType::kDeliverCast: {
      CollectHeader hdr = ev.hdrs.Pop<CollectHeader>(LayerId::kCollect);
      if (hdr.kind == kCollectGossip) {
        if (ReceiveGossip(ev.origin, ev.seq_hint, ev.payload)) {
          Event stable = Event::OfType(EventType::kStable);
          stable.vec = last_stable_;
          sink.PassDn(std::move(stable));
          Event stable_up = Event::OfType(EventType::kStable);
          stable_up.vec = last_stable_;
          sink.PassUp(std::move(stable_up));
        }
        return;
      }
      Rank origin = ev.origin;
      uint64_t seq_hint = ev.seq_hint;
      sink.PassUp(std::move(ev));
      if (!CountDelivered(origin, seq_hint, /*is_data=*/true)) {
        sink.PassDn(TakeGossip());
      }
      return;
    }
    case EventType::kInit:
      NoteView(ev);
      ResetForView();
      sink.PassUp(std::move(ev));
      return;
    default:
      sink.PassUp(std::move(ev));
      return;
  }
}

void CollectLayer::ResetForView() {
  size_t n = view_ ? static_cast<size_t>(nmembers_) : 0;
  fast_.since_gossip = 0;
  fast_.data_since_gossip = 0;
  fast_.gossip_due = 0;
  last_gossiped_.assign(n, 0);
  acks_.assign(n, 0);
  peer_acks_.assign(n, std::vector<uint64_t>(n, 0));
  last_stable_.assign(n, 0);
}

uint64_t CollectLayer::StateDigest() const {
  uint64_t h = kFnvOffset;
  h = FnvMixU64(h, fast_.since_gossip);
  h = FnvMixU64(h, fast_.data_since_gossip);
  for (uint64_t a : acks_) {
    h = FnvMixU64(h, a);
  }
  for (uint64_t s : last_stable_) {
    h = FnvMixU64(h, s);
  }
  return h;
}

}  // namespace ensemble
