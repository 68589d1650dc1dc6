#include "src/layers/intra.h"

#include "src/marshal/header_desc.h"
#include "src/marshal/wire.h"
#include "src/util/hash.h"
#include "src/util/logging.h"

namespace ensemble {

ENSEMBLE_REGISTER_HEADER(IntraHeader, LayerId::kIntra, ENS_FIELD(IntraHeader, kU8, kind));
ENSEMBLE_REGISTER_LAYER(LayerId::kIntra, IntraLayer);

void IntraLayer::StartViewChange(EventSink& sink) {
  if (phase_ != Phase::kIdle) {
    return;
  }
  phase_ = Phase::kFlushing;
  block_oks_.clear();
  sink.PassDn(Event::OfType(EventType::kBlock));
}

void IntraLayer::MaybeFinishFlush(EventSink& sink) {
  if (phase_ != Phase::kFlushing || !view_) {
    return;
  }
  for (Rank r = 0; r < static_cast<Rank>(nmembers_); r++) {
    if (suspects_.count(r) == 0 && block_oks_.count(r) == 0) {
      return;  // Someone alive has not replied yet.
    }
  }
  // All live members are blocked; let reliability finish recovering
  // in-flight messages before cutting the view.
  phase_ = Phase::kSettling;
  settle_until_ = now_ + settle_;
}

ViewRef IntraLayer::BuildNewView() const {
  auto v = std::make_shared<View>();
  v->vid.coord = self_.id;
  v->vid.counter = view_->vid.counter + 1;
  for (Rank r = 0; r < static_cast<Rank>(nmembers_); r++) {
    if (suspects_.count(r) == 0) {
      v->members.push_back(view_->members[static_cast<size_t>(r)]);
    }
  }
  return v;
}

void IntraLayer::InstallAndAnnounce(EventSink& sink) {
  ViewRef v = BuildNewView();
  // Announce the new membership (in the old view's wire format).
  WireWriter w;
  w.U64(v->vid.coord);
  w.U64(v->vid.counter);
  w.U16(static_cast<uint16_t>(v->members.size()));
  for (EndpointId m : v->members) {
    w.U64(m.id);
  }
  Event cast = Event::Cast(Iovec(w.Take()));
  cast.hdrs.Push(LayerId::kIntra, IntraHeader{kIntraView});
  sink.PassDn(std::move(cast));
  // The coordinator never hears its own cast; install locally now.
  InstallView(std::move(v), sink);
}

void IntraLayer::InstallView(ViewRef v, EventSink& sink) {
  phase_ = Phase::kIdle;
  suspects_.clear();
  block_oks_.clear();
  am_coord_ = v->RankOf(self_) == 0;

  Event up = Event::OfType(EventType::kView);
  up.view = v;
  Event dn = Event::OfType(EventType::kView);
  dn.view = v;
  // Down first: the lower layers must be reborn in the new view before any
  // upper-layer reaction (e.g. queued casts released by partial_appl) sends
  // through them.
  NoteView(dn);
  sink.PassDn(std::move(dn));
  sink.PassUp(std::move(up));
}

void IntraLayer::Dn(Event ev, EventSink& sink) {
  switch (ev.type) {
    case EventType::kCast:
      ev.hdrs.Push(LayerId::kIntra, IntraHeader{kIntraPassCast});
      sink.PassDn(std::move(ev));
      return;
    case EventType::kSend:
      ev.hdrs.Push(LayerId::kIntra, IntraHeader{kIntraPassSend});
      sink.PassDn(std::move(ev));
      return;
    case EventType::kTimer:
      now_ = ev.time;
      if (phase_ == Phase::kSettling && now_ >= settle_until_ && am_coord_) {
        InstallAndAnnounce(sink);
      }
      sink.PassDn(std::move(ev));
      return;
    default:
      sink.PassDn(std::move(ev));
      return;
  }
}

void IntraLayer::Up(Event ev, EventSink& sink) {
  switch (ev.type) {
    case EventType::kDeliverCast: {
      IntraHeader hdr = ev.hdrs.Pop<IntraHeader>(LayerId::kIntra);
      if (hdr.kind != kIntraView) {
        sink.PassUp(std::move(ev));
        return;
      }
      WireReader r(ev.payload.Flatten());
      auto v = std::make_shared<View>();
      v->vid.coord = r.U64();
      v->vid.counter = r.U64();
      uint16_t n = r.U16();
      for (uint16_t i = 0; i < n; i++) {
        v->members.push_back(EndpointId{r.U64()});
      }
      if (!r.ok() || !view_ || v->vid.counter <= view_->vid.counter) {
        return;  // Malformed or stale view announcement.
      }
      if (v->RankOf(self_) == kNoRank) {
        // We were excluded: tell the application and stop.
        sink.PassUp(Event::OfType(EventType::kExit));
        return;
      }
      InstallView(std::move(v), sink);
      return;
    }
    case EventType::kDeliverSend: {
      IntraHeader hdr = ev.hdrs.Pop<IntraHeader>(LayerId::kIntra);
      ENS_CHECK(hdr.kind == kIntraPassSend);
      sink.PassUp(std::move(ev));
      return;
    }
    case EventType::kElect:
      am_coord_ = true;
      sink.PassUp(std::move(ev));
      if (!suspects_.empty()) {
        StartViewChange(sink);
      }
      return;
    case EventType::kSuspect:
      suspects_.insert(ev.origin);
      block_oks_.erase(ev.origin);
      sink.PassUp(std::move(ev));
      if (am_coord_) {
        StartViewChange(sink);
        MaybeFinishFlush(sink);  // The suspect may have been the last holdout.
      }
      return;
    case EventType::kBlockOk:
      if (am_coord_ && phase_ == Phase::kFlushing) {
        block_oks_.insert(ev.origin);
        MaybeFinishFlush(sink);
      }
      return;
    case EventType::kInit:
      NoteView(ev);
      phase_ = Phase::kIdle;
      suspects_.clear();
      block_oks_.clear();
      am_coord_ = rank_ == 0;
      sink.PassUp(std::move(ev));
      return;
    default:
      sink.PassUp(std::move(ev));
      return;
  }
}

uint64_t IntraLayer::StateDigest() const {
  uint64_t h = kFnvOffset;
  h = FnvMixU64(h, static_cast<uint64_t>(phase_));
  h = FnvMixU64(h, am_coord_);
  h = FnvMixU64(h, suspects_.size());
  h = FnvMixU64(h, block_oks_.size());
  return h;
}

}  // namespace ensemble
