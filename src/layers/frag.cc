#include "src/layers/frag.h"

#include "src/marshal/header_desc.h"
#include "src/util/hash.h"
#include "src/util/logging.h"

namespace ensemble {

ENSEMBLE_REGISTER_HEADER(FragHeader, LayerId::kFrag, ENS_FIELD(FragHeader, kU8, kind),
                         ENS_FIELD(FragHeader, kU16, frag_index),
                         ENS_FIELD(FragHeader, kU16, frag_count),
                         ENS_FIELD(FragHeader, kU32, msg_id));
ENSEMBLE_REGISTER_LAYER(LayerId::kFrag, FragLayer);

void FragLayer::Fragment(Event ev, EventSink& sink) {
  size_t total = ev.payload.size();
  size_t max = fast_.frag_max;
  uint16_t count = static_cast<uint16_t>((total + max - 1) / max);
  uint32_t msg_id = fast_.next_msg_id++;
  for (uint16_t i = 0; i < count; i++) {
    Event piece;
    piece.type = ev.type;
    piece.dest = ev.dest;
    piece.protocol_cast = ev.protocol_cast;  // Large-group gossip stays uncharged.
    piece.hdrs = ev.hdrs;  // Upper-layer headers replicate onto each piece.
    size_t off = static_cast<size_t>(i) * max;
    size_t len = std::min(max, total - off);
    piece.payload = ev.payload.SubRange(off, len);
    piece.hdrs.Push(LayerId::kFrag, FragHeader{kFragPiece, i, count, msg_id});
    sink.PassDn(std::move(piece));
  }
}

void FragLayer::Dn(Event ev, EventSink& sink) {
  switch (ev.type) {
    case EventType::kCast:
    case EventType::kSend: {
      if (ev.payload.size() <= fast_.frag_max) {
        ev.hdrs.Push(LayerId::kFrag, FragHeader{kFragWhole, 0, 1, 0});
        sink.PassDn(std::move(ev));
      } else {
        Fragment(std::move(ev), sink);
      }
      return;
    }
    case EventType::kView:
      NoteView(ev);
      partial_.clear();
      fast_.next_msg_id = 0;
      sink.PassDn(std::move(ev));
      return;
    default:
      sink.PassDn(std::move(ev));
      return;
  }
}

void FragLayer::Reassemble(Event ev, const FragHeader& hdr, EventSink& sink) {
  Key key{ev.origin, hdr.msg_id};
  Partial& part = partial_[key];
  if (part.pieces.empty()) {
    part.pieces.resize(hdr.frag_count);
  }
  ENS_CHECK_MSG(hdr.frag_index < part.pieces.size(), "frag index out of range");
  if (!part.pieces[hdr.frag_index].empty()) {
    return;  // Duplicate piece (reliability below should prevent this).
  }
  part.pieces[hdr.frag_index] = std::move(ev.payload);
  part.received++;
  if (part.received < hdr.frag_count) {
    return;
  }
  // Complete: emit the reassembled message (zero-copy concatenation).
  Event whole = std::move(ev);
  whole.payload.Clear();
  for (Iovec& piece : part.pieces) {
    whole.payload.Append(piece);
  }
  partial_.erase(key);
  sink.PassUp(std::move(whole));
}

void FragLayer::Up(Event ev, EventSink& sink) {
  switch (ev.type) {
    case EventType::kDeliverCast:
    case EventType::kDeliverSend: {
      FragHeader hdr = ev.hdrs.Pop<FragHeader>(LayerId::kFrag);
      if (hdr.kind == kFragWhole) {
        sink.PassUp(std::move(ev));
      } else {
        Reassemble(std::move(ev), hdr, sink);
      }
      return;
    }
    case EventType::kInit:
      NoteView(ev);
      sink.PassUp(std::move(ev));
      return;
    default:
      sink.PassUp(std::move(ev));
      return;
  }
}

uint64_t FragLayer::StateDigest() const {
  uint64_t h = kFnvOffset;
  h = FnvMixU64(h, fast_.next_msg_id);
  h = FnvMixU64(h, partial_.size());
  return h;
}

}  // namespace ensemble
