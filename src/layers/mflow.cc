#include "src/layers/mflow.h"

#include <algorithm>

#include "src/marshal/header_desc.h"
#include "src/util/hash.h"
#include "src/util/logging.h"

namespace ensemble {

ENSEMBLE_REGISTER_HEADER(MflowHeader, LayerId::kMflow, ENS_FIELD(MflowHeader, kU8, kind),
                         ENS_FIELD(MflowHeader, kU32, credits));
ENSEMBLE_REGISTER_LAYER(LayerId::kMflow, MflowLayer);

void MflowLayer::RecomputeMinGranted() {
  if (granted_to_me_.empty()) {
    // No peers: self-flow-control is meaningless; keep the window open.
    fast_.min_granted = fast_.sent + window_;
    return;
  }
  uint32_t m = UINT32_MAX;
  for (const auto& [rank, granted] : granted_to_me_) {
    m = std::min(m, granted);
  }
  fast_.min_granted = m;
}

bool MflowLayer::NoGrantDue(Rank origin) {
  const RecvSide& r = recv_[origin];
  // A grant falls due when consumed crosses the next half-window boundary.
  return (r.consumed + 1) % (window_ / 2) != 0;
}

bool MflowLayer::FastConsume(Rank origin) {
  RecvSide& r = recv_[origin];
  r.consumed++;
  return r.consumed % (window_ / 2) != 0;
}

void MflowLayer::SendGrant(Rank origin, EventSink& sink) {
  RecvSide& r = recv_[origin];
  r.granted = r.consumed + window_;
  Event grant = Event::Send(origin, Iovec());
  grant.hdrs.Push(LayerId::kMflow, MflowHeader{kMflowCredit, r.granted});
  sink.PassDn(std::move(grant));
}

void MflowLayer::Dn(Event ev, EventSink& sink) {
  switch (ev.type) {
    case EventType::kCast: {
      if (ev.protocol_cast) {
        ev.hdrs.Push(LayerId::kMflow, MflowHeader{kMflowPass, 0});
        sink.PassDn(std::move(ev));
        return;
      }
      if (!fast_.HasCredit()) {
        pending_.push_back(std::move(ev));
        return;
      }
      fast_.sent++;
      ev.hdrs.Push(LayerId::kMflow, MflowHeader{kMflowData, 0});
      sink.PassDn(std::move(ev));
      return;
    }
    case EventType::kSend:
      ev.hdrs.Push(LayerId::kMflow, MflowHeader{kMflowPass, 0});
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

void MflowLayer::Up(Event ev, EventSink& sink) {
  switch (ev.type) {
    case EventType::kDeliverCast: {
      MflowHeader hdr = ev.hdrs.Pop<MflowHeader>(LayerId::kMflow);
      if (hdr.kind == kMflowPass) {
        sink.PassUp(std::move(ev));  // Protocol cast: no credit to account.
        return;
      }
      ENS_CHECK(hdr.kind == kMflowData);
      Rank origin = ev.origin;
      sink.PassUp(std::move(ev));
      if (!FastConsume(origin)) {
        SendGrant(origin, sink);
      }
      return;
    }
    case EventType::kDeliverSend: {
      MflowHeader hdr = ev.hdrs.Pop<MflowHeader>(LayerId::kMflow);
      if (hdr.kind == kMflowCredit) {
        uint32_t& granted = granted_to_me_[ev.origin];
        granted = std::max(granted, hdr.credits);
        RecomputeMinGranted();
        FlushPending(sink);
        return;
      }
      ENS_CHECK(hdr.kind == kMflowPass);
      sink.PassUp(std::move(ev));
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

void MflowLayer::FlushPending(EventSink& sink) {
  while (!pending_.empty() && fast_.HasCredit()) {
    Event ev = std::move(pending_.front());
    pending_.pop_front();
    fast_.sent++;
    ev.hdrs.Push(LayerId::kMflow, MflowHeader{kMflowData, 0});
    sink.PassDn(std::move(ev));
  }
}

void MflowLayer::ResetForView() {
  fast_.sent = 0;
  fast_.solo = view_ && nmembers_ <= 1 ? 1 : 0;
  granted_to_me_.clear();
  recv_.clear();
  // Everyone starts each view with a full window from every peer.
  if (view_) {
    for (Rank r = 0; r < nmembers_; r++) {
      if (r != rank_) {
        granted_to_me_[r] = window_;
        recv_[r] = RecvSide{0, window_};
      }
    }
  }
  RecomputeMinGranted();
  // Note: pending_ casts survive a view change; they will be flushed as
  // fresh-view credit allows.
}

uint64_t MflowLayer::StateDigest() const {
  uint64_t h = kFnvOffset;
  h = FnvMixU64(h, fast_.sent);
  h = FnvMixU64(h, fast_.min_granted);
  for (const auto& [r, g] : granted_to_me_) {
    h = FnvMixU64(h, static_cast<uint64_t>(r));
    h = FnvMixU64(h, g);
  }
  for (const auto& [r, rs] : recv_) {
    h = FnvMixU64(h, rs.consumed);
    h = FnvMixU64(h, rs.granted);
  }
  h = FnvMixU64(h, pending_.size());
  return h;
}

}  // namespace ensemble
