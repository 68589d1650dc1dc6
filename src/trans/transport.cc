#include "src/trans/transport.h"

#include <cstring>

namespace ensemble {

namespace {
constexpr size_t kPackMaxCount = 255;  // Count is a u8.
}  // namespace

Transport::UpResult Transport::DispatchUp(const Bytes& datagram) const {
  UpResult result;
  if (datagram.empty()) {
    return result;
  }
  uint8_t tag = datagram[0];
  if (tag == kWireGeneric) {
    Event ev;
    if (!GenericUnmarshal(datagram, &ev)) {
      return result;
    }
    result.kind = UpKind::kStackEvent;
    result.ev = std::move(ev);
    return result;
  }
  if (tag == kWireCompressed) {
    result.via_bypass = true;
    // [tag u8][conn u32][origin u8][vars...][payload]
    if (conns_ == nullptr || datagram.size() < 6) {
      return result;
    }
    uint32_t conn_id;
    std::memcpy(&conn_id, datagram.data() + 1, 4);
    Rank origin = static_cast<Rank>(datagram[5]);
    RoutePair* route = conns_->Find(conn_id);
    if (route == nullptr) {
      return result;  // Unknown connection (stale view): drop.
    }
    Event out;
    switch (route->TryUp(datagram, 6, origin, &out)) {
      case RoutePair::UpResult::kDelivered:
        result.kind = UpKind::kDelivered;
        result.ev = std::move(out);
        return result;
      case RoutePair::UpResult::kConsumed:
        result.kind = UpKind::kConsumed;
        return result;
      case RoutePair::UpResult::kFallback:
        result.kind = UpKind::kStackEvent;
        result.ev = std::move(out);
        return result;
      case RoutePair::UpResult::kBad:
        return result;
    }
  }
  return result;
}

void Transport::EnablePacking(EmitFn emit, size_t max_msgs, size_t max_bytes) {
  emit_ = std::move(emit);
  max_msgs_ = std::min(std::max<size_t>(max_msgs, 1), kPackMaxCount);
  max_bytes_ = max_bytes;
}

void Transport::PackCast(const Iovec& wire) {
  StageOn(&cast_q_, PackDest{/*cast=*/true, EndpointId{}}, wire);
}

void Transport::PackSend(EndpointId dst, const Iovec& wire) {
  StageOn(&send_q_[dst], PackDest{/*cast=*/false, dst}, wire);
}

void Transport::StageOn(Staging* q, const PackDest& dest, const Iovec& wire) {
  if (!emit_) {
    return;  // Packing off: nothing sane to do (callers check packing()).
  }
  // Would this message blow the byte budget?  Close out the current pack
  // first so a packed datagram never exceeds max_bytes_ (lone oversized
  // messages still go out, unwrapped, as one datagram).
  if (!q->wires.empty() && q->bytes + wire.size() + kPackLenPrefix > max_bytes_) {
    FlushQueue(q, dest);
  }
  pack_stats_.staged++;
  q->bytes += wire.size() + kPackLenPrefix;
  q->wires.push_back(wire);
  if (q->wires.size() >= max_msgs_ || q->bytes >= max_bytes_) {
    FlushQueue(q, dest);
  }
}

void Transport::FlushQueue(Staging* q, const PackDest& dest) {
  if (q->wires.empty()) {
    return;
  }
  pack_stats_.flushes++;
  if (q->wires.size() == 1) {
    // A lone message needs no pack framing: emit the original datagram so the
    // receive path (and CCP dispatch) sees exactly what an unpacked sender
    // produces.
    pack_stats_.single_flushes++;
    emit_(dest, q->wires[0]);
  } else {
    Iovec packed;
    Bytes header = Bytes::Allocate(kPackHeader);
    header.MutableData()[0] = kWirePacked;
    header.MutableData()[1] = static_cast<uint8_t>(q->wires.size());
    packed.Append(std::move(header));
    for (const Iovec& wire : q->wires) {
      Bytes len = Bytes::Allocate(kPackLenPrefix);
      uint32_t n = static_cast<uint32_t>(wire.size());
      std::memcpy(len.MutableData(), &n, kPackLenPrefix);
      packed.Append(std::move(len));
      packed.Append(wire);  // Refcounted aliases: no payload copy.
    }
    pack_stats_.packed_datagrams++;
    emit_(dest, packed);
  }
  q->wires.clear();
  q->bytes = 0;
}

void Transport::FlushPacked() {
  FlushQueue(&cast_q_, PackDest{/*cast=*/true, EndpointId{}});
  for (auto& [dst, q] : send_q_) {
    FlushQueue(&q, PackDest{/*cast=*/false, dst});
  }
}

bool Transport::IsPacked(const Bytes& datagram) {
  return datagram.size() >= kPackHeader && datagram[0] == kWirePacked;
}

bool Transport::CheckPacked(const Bytes& datagram, size_t* count) {
  if (!IsPacked(datagram)) {
    return false;
  }
  size_t pos = kPackHeader;
  for (size_t i = 0; i < datagram[1]; i++) {
    if (pos + kPackLenPrefix > datagram.size()) {
      return false;
    }
    uint32_t len;
    std::memcpy(&len, datagram.data() + pos, kPackLenPrefix);
    pos += kPackLenPrefix;
    if (len > datagram.size() - pos) {
      return false;
    }
    pos += len;
  }
  // Trailing garbage makes the whole datagram malformed.
  *count = datagram[1];
  return pos == datagram.size();
}

}  // namespace ensemble
