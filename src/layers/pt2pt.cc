#include "src/layers/pt2pt.h"

#include "src/marshal/header_desc.h"
#include "src/util/hash.h"
#include "src/util/logging.h"

namespace ensemble {

ENSEMBLE_REGISTER_HEADER(Pt2ptHeader, LayerId::kPt2pt, ENS_FIELD(Pt2ptHeader, kU8, kind),
                         ENS_FIELD(Pt2ptHeader, kU32, seqno),
                         ENS_FIELD(Pt2ptHeader, kU32, ackno));
ENSEMBLE_REGISTER_LAYER(LayerId::kPt2pt, Pt2ptLayer);

SavedMsg& Pt2ptLayer::SaveNext(Rank dest) {
  SendSide& s = To(dest);
  return s.unacked.Push(s.next_seqno++);
}

void Pt2ptLayer::FastReceive(Rank origin, Seqno seqno) {
  RecvSide& r = From(origin);
  ENS_CHECK(r.window.low() == seqno);
  r.window.Mark(seqno);
  r.window.SlideOne();
  r.ack_due = true;
}

void Pt2ptLayer::Dn(Event ev, EventSink& sink) {
  switch (ev.type) {
    case EventType::kSend: {
      uint32_t seqno = static_cast<uint32_t>(NextSendSeqno(ev.dest));
      // Save payload + upper headers for retransmission before pushing ours.
      SaveNext(ev.dest).Save(ev);
      ev.hdrs.Push(LayerId::kPt2pt, Pt2ptHeader{kPt2ptData, seqno, 0});
      sink.PassDn(std::move(ev));
      return;
    }
    case EventType::kTimer:
      OnTimer(ev.time, sink);
      sink.PassDn(std::move(ev));
      return;
    case EventType::kView:
      NoteView(ev);
      ResetForView();
      sink.PassDn(std::move(ev));
      return;
    default:
      // Casts and control events pass through untouched.
      sink.PassDn(std::move(ev));
      return;
  }
}

void Pt2ptLayer::Up(Event ev, EventSink& sink) {
  switch (ev.type) {
    case EventType::kDeliverSend: {
      Pt2ptHeader hdr = ev.hdrs.Pop<Pt2ptHeader>(LayerId::kPt2pt);
      if (hdr.kind == kPt2ptAck) {
        SendSide& s = To(ev.origin);
        if (hdr.ackno > s.acked) {
          s.acked = hdr.ackno;
          s.unacked.PopBelow(hdr.ackno);
        }
        return;
      }
      ENS_CHECK(hdr.kind == kPt2ptData);
      Rank origin = ev.origin;
      RecvSide& r = From(origin);
      if (!r.window.Mark(hdr.seqno)) {
        r.ack_due = true;  // Duplicate: re-ack so the sender stops resending.
        return;
      }
      r.backlog.emplace(hdr.seqno, std::move(ev));
      DeliverInOrder(origin, sink);
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

void Pt2ptLayer::DeliverInOrder(Rank origin, EventSink& sink) {
  RecvSide& r = From(origin);
  while (!r.backlog.empty() && r.backlog.begin()->first == r.window.low()) {
    Event ev = std::move(r.backlog.begin()->second);
    r.backlog.erase(r.backlog.begin());
    r.window.SlideOne();
    r.ack_due = true;
    sink.PassUp(std::move(ev));
  }
}

void Pt2ptLayer::OnTimer(VTime now, EventSink& sink) {
  // Cumulative acks for peers with receive progress.
  for (auto& [origin, r] : recv_) {
    if (!r.ack_due) {
      continue;
    }
    r.ack_due = false;
    Event ack = Event::Send(origin, Iovec());
    ack.hdrs.Push(LayerId::kPt2pt,
                  Pt2ptHeader{kPt2ptAck, 0, static_cast<uint32_t>(r.window.low())});
    sink.PassDn(std::move(ack));
  }
  // Retransmit unacked messages that have waited at least one full timeout.
  for (auto& [dest, s] : send_) {
    if (s.unacked.empty()) {
      continue;
    }
    if (s.last_resend + retrans_timeout_ > now && s.last_resend != 0) {
      continue;
    }
    if (s.last_resend == 0) {
      // First tick with outstanding data: arm the timeout, don't resend yet.
      s.last_resend = now;
      continue;
    }
    s.last_resend = now;
    s.unacked.ForEach([&, dest = dest](Seqno seqno, const SavedMsg& saved) {
      sink.PassDn(saved.Retransmission(
          dest, LayerId::kPt2pt, Pt2ptHeader{kPt2ptData, static_cast<uint32_t>(seqno), 0}));
    });
  }
}

void Pt2ptLayer::ResetForView() {
  send_.clear();
  recv_.clear();
}

uint64_t Pt2ptLayer::StateDigest() const {
  uint64_t h = kFnvOffset;
  for (const auto& [r, s] : send_) {
    h = FnvMixU64(h, static_cast<uint64_t>(r));
    h = FnvMixU64(h, s.next_seqno);
    h = FnvMixU64(h, s.acked);
    h = FnvMixU64(h, s.unacked.size());
  }
  for (const auto& [r, rs] : recv_) {
    h = FnvMixU64(h, static_cast<uint64_t>(r) | 0x100000000ull);
    h = FnvMixU64(h, rs.window.low());
    h = FnvMixU64(h, rs.backlog.size());
  }
  return h;
}

}  // namespace ensemble
