#include "src/layers/mnak.h"

#include <algorithm>

#include "src/marshal/header_desc.h"
#include "src/util/hash.h"
#include "src/util/logging.h"

namespace ensemble {

ENSEMBLE_REGISTER_HEADER(MnakHeader, LayerId::kMnak, ENS_FIELD(MnakHeader, kU8, kind),
                         ENS_FIELD(MnakHeader, kU32, seqno), ENS_FIELD(MnakHeader, kU32, lo),
                         ENS_FIELD(MnakHeader, kU32, hi));
ENSEMBLE_REGISTER_LAYER(LayerId::kMnak, MnakLayer);

MnakLayer::~MnakLayer() { ClearSent(); }

MnakLayer::PeerState& MnakLayer::Peer(Rank origin) { return peers_[origin]; }

Seqno MnakLayer::Expected(Rank origin) { return Peer(origin).window.low(); }

bool MnakLayer::NoBacklog(Rank origin) {
  PeerState& p = Peer(origin);
  return p.backlog.empty() && !p.window.HasHoles() && p.window.high() == p.window.low();
}

void MnakLayer::FastReceive(Rank origin, Seqno seqno) {
  PeerState& p = Peer(origin);
  ENS_CHECK(p.window.low() == seqno);
  p.window.Mark(seqno);
  p.window.SlideOne();
}

SavedMsg& MnakLayer::SaveSent(Seqno seqno) {
  GlobalProtocolStats().retrans_depth.Add(1);
  return sent_.Push(seqno);
}

void MnakLayer::PruneStable(const std::vector<uint64_t>& stable) {
  if (rank_ == kNoRank || static_cast<size_t>(rank_) >= stable.size()) {
    return;
  }
  size_t pruned = sent_.PopBelow(stable[static_cast<size_t>(rank_)]);
  if (pruned > 0) {
    GlobalProtocolStats().retrans_depth.Sub(pruned);
  }
}

void MnakLayer::ClearSent() {
  GlobalProtocolStats().retrans_depth.Sub(sent_.size());
  sent_.Clear();
}

void MnakLayer::Dn(Event ev, EventSink& sink) {
  switch (ev.type) {
    case EventType::kCast: {
      uint32_t seqno = fast_.send_seqno++;
      SaveSent(seqno).Save(ev);  // The headers of the layers above, ours not yet pushed.
      ev.hdrs.Push(LayerId::kMnak, MnakHeader{kMnakData, seqno, 0, 0});
      sink.PassDn(std::move(ev));
      return;
    }
    case EventType::kSend: {
      // Upper-layer point-to-point traffic passes through with a pass header.
      ev.hdrs.Push(LayerId::kMnak, MnakHeader{kMnakPass, 0, 0, 0});
      sink.PassDn(std::move(ev));
      return;
    }
    case EventType::kTimer:
      SendNaks(sink);
      AdvertiseWatermark(sink);
      sink.PassDn(std::move(ev));
      return;
    case EventType::kStable:
      // Stability vector from the collect layer.
      PruneStable(ev.vec);
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

void MnakLayer::Up(Event ev, EventSink& sink) {
  switch (ev.type) {
    case EventType::kDeliverCast: {
      MnakHeader hdr = ev.hdrs.Pop<MnakHeader>(LayerId::kMnak);
      if (hdr.kind == kMnakHi) {
        Peer(ev.origin).window.ExtendTo(hdr.seqno);  // Ignored when out of reach.
        return;
      }
      ENS_CHECK(hdr.kind == kMnakData);
      Rank origin = ev.origin;
      PeerState& p = Peer(origin);
      if (!p.window.Mark(hdr.seqno)) {
        return;  // Duplicate, or out of reach (SeqWindow::kMaxSpan).
      }
      ev.seq_hint = hdr.seqno;  // Stability accounting rides with the event.
      p.backlog.emplace(hdr.seqno, std::move(ev));
      DeliverInOrder(origin, sink);
      return;
    }
    case EventType::kDeliverSend: {
      MnakHeader hdr = ev.hdrs.Pop<MnakHeader>(LayerId::kMnak);
      switch (hdr.kind) {
        case kMnakPass:
          sink.PassUp(std::move(ev));
          return;
        case kMnakNak:
          HandleNak(ev.origin, hdr.lo, hdr.hi, sink);
          return;
        case kMnakRetrans: {
          // A retransmission of the sender's own cast: treat as cast data.
          Rank origin = ev.origin;
          PeerState& p = Peer(origin);
          if (!p.window.Mark(hdr.seqno)) {
            return;  // Already have it, or out of reach.
          }
          Event cast = std::move(ev);
          cast.type = EventType::kDeliverCast;
          cast.seq_hint = hdr.seqno;
          p.backlog.emplace(hdr.seqno, std::move(cast));
          DeliverInOrder(origin, sink);
          return;
        }
        default:
          ENS_CHECK_MSG(false, "mnak: bad kind " << int(hdr.kind));
          return;
      }
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

void MnakLayer::DeliverInOrder(Rank origin, EventSink& sink) {
  PeerState& p = Peer(origin);
  while (!p.backlog.empty()) {
    auto it = p.backlog.begin();
    if (it->first != p.window.low()) {
      break;
    }
    Event ev = std::move(it->second);
    p.backlog.erase(it);
    p.window.SlideOne();
    sink.PassUp(std::move(ev));
  }
}

void MnakLayer::AdvertiseWatermark(EventSink& sink) {
  // Advertise a new watermark at once.  Re-advertise an unchanged one, with
  // exponential backoff, while any of our casts might still need
  // retransmission (the buffer empties as stability advances).
  if (fast_.send_seqno == 0) {
    return;
  }
  if (advertised_ != fast_.send_seqno) {
    advertised_ = fast_.send_seqno;
    hi_backoff_ = 1;
    hi_wait_ = 1;
  } else if (sent_.empty() || --hi_wait_ > 0) {
    return;
  } else {
    hi_backoff_ = std::min(hi_backoff_ * 2, kMaxHiBackoffTicks);
    hi_wait_ = hi_backoff_;
  }
  Event hi = Event::Send(kNoRank, Iovec());
  hi.type = EventType::kCast;
  hi.hdrs.Push(LayerId::kMnak, MnakHeader{kMnakHi, fast_.send_seqno, 0, 0});
  sink.PassDn(std::move(hi));
}

void MnakLayer::SendNaks(EventSink& sink) {
  for (auto& [origin, p] : peers_) {
    std::vector<Seqno> holes = p.window.Holes();
    if (holes.empty()) {
      continue;
    }
    // Collapse into one range per contiguous run.
    size_t i = 0;
    while (i < holes.size()) {
      size_t j = i;
      while (j + 1 < holes.size() && holes[j + 1] == holes[j] + 1) {
        j++;
      }
      Event nak = Event::Send(origin, Iovec());
      nak.hdrs.Push(LayerId::kMnak,
                    MnakHeader{kMnakNak, 0, static_cast<uint32_t>(holes[i]),
                               static_cast<uint32_t>(holes[j] + 1)});
      sink.PassDn(std::move(nak));
      i = j + 1;
    }
  }
}

void MnakLayer::HandleNak(Rank from, uint32_t lo, uint32_t hi, EventSink& sink) {
  // Seqnos outside the buffer were pruned as stable (the requester will
  // learn via stability) or never sent.
  Seqno last = std::min<Seqno>(hi, sent_.end());
  for (Seqno s = std::max<Seqno>(lo, sent_.begin()); s < last; s++) {
    if (const SavedMsg* saved = sent_.Find(s)) {
      sink.PassDn(saved->Retransmission(
          from, LayerId::kMnak, MnakHeader{kMnakRetrans, static_cast<uint32_t>(s), 0, 0}));
    }
  }
}

void MnakLayer::ResetForView() {
  fast_.send_seqno = 0;
  advertised_ = 0;
  hi_backoff_ = 1;
  hi_wait_ = 0;
  peers_.clear();
  ClearSent();
}

uint64_t MnakLayer::StateDigest() const {
  uint64_t h = kFnvOffset;
  h = FnvMixU64(h, fast_.send_seqno);
  for (const auto& [r, p] : peers_) {
    h = FnvMixU64(h, static_cast<uint64_t>(r));
    h = FnvMixU64(h, p.window.low());
    h = FnvMixU64(h, p.backlog.size());
  }
  h = FnvMixU64(h, sent_.size());
  return h;
}

}  // namespace ensemble
