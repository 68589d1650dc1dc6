// Transport — the marshaling boundary below the protocol stack (paper Fig. 4:
// "The Transport module below the protocol stack provides marshaling of
// messages").
//
// Down: an event emitted by the bottom layer (full header stack) is marshaled
// with the generic codec.  Up: a received datagram is dispatched on its first
// byte — generic datagrams are unmarshaled into full events for the normal
// stack, compressed datagrams are routed through the connection table to a
// compiled bypass (which either delivers directly or reconstructs a full
// event when its CCP fails).
//
// Message packing (Ensemble's transport batching, the down-path dual of the
// paper's copy-avoidance work): when enabled, complete wire datagrams headed
// for the same destination are staged per destination and coalesced into one
// packed datagram — [kWirePacked u8][count u8] then count × ([u32 len] body)
// — built by scatter-gather (length prefixes are tiny fresh Bytes; the
// sub-message parts are refcounted aliases, so packing copies no payload
// bytes).  Sub-messages keep their own first-byte tag, so a packed datagram
// may mix generic and compressed (bypass/CCP) traffic; the receive side
// splits it with zero-copy slices and feeds each sub-message through the
// normal first-byte dispatch.

#ifndef ENSEMBLE_SRC_TRANS_TRANSPORT_H_
#define ENSEMBLE_SRC_TRANS_TRANSPORT_H_

#include <cstring>
#include <functional>
#include <map>
#include <vector>

#include "src/bypass/conn_table.h"
#include "src/event/event.h"
#include "src/marshal/generic_codec.h"

namespace ensemble {

struct PackStats {
  uint64_t staged = 0;            // Sub-messages accepted for packing.
  uint64_t packed_datagrams = 0;  // Emitted datagrams carrying >1 sub-message.
  uint64_t single_flushes = 0;    // Lone staged messages emitted unwrapped.
  uint64_t flushes = 0;           // Flush boundaries (explicit or automatic).
  uint64_t unpacked_submsgs = 0;  // Sub-messages split out of received packs.
};

class Transport {
 public:
  explicit Transport(ConnTable* conns = nullptr) : conns_(conns) {}

  // Down path: wire form of a bottom-emitted event.  The first Iovec part is
  // the marshaled header block; the rest alias the payload (scatter-gather).
  Iovec MarshalDown(const Event& ev, Rank sender_rank) const {
    return GenericMarshal(ev, sender_rank);
  }

  // Up-path dispatch result.
  enum class UpKind {
    kStackEvent,  // `ev` must be fed to the normal stack's Up path.
    kDelivered,   // A bypass delivered `ev` directly to the application.
    kConsumed,    // A bypass consumed a protocol cast; nothing to deliver.
    kDrop,        // Malformed / unknown connection: drop.
  };
  struct UpResult {
    UpKind kind = UpKind::kDrop;
    Event ev;
    bool via_bypass = false;  // Diagnostics: compressed-path datagram.
  };

  UpResult DispatchUp(const Bytes& datagram) const;

  // ---- message packing -----------------------------------------------------

  // Destination of a staged wire datagram: the cast queue (the endpoint
  // addresses it to its view's members) or one peer.
  struct PackDest {
    bool cast = false;
    EndpointId dst;  // Meaningful when !cast.
  };
  using EmitFn = std::function<void(const PackDest&, const Iovec& wire)>;

  // Turns packing on: PackCast/PackSend stage instead of emitting, and a
  // destination auto-flushes once it holds `max_msgs` sub-messages or
  // `max_bytes` payload bytes.  `emit` receives every outgoing datagram
  // (packed or lone) — typically a closure that Sends a cast to each view
  // member and a send to its one peer.
  void EnablePacking(EmitFn emit, size_t max_msgs = 16, size_t max_bytes = 60000);
  bool packing() const { return static_cast<bool>(emit_); }

  // Stages a complete wire datagram (generic or compressed — not packed).
  // With packing disabled these forward straight to nothing — callers must
  // only use them when packing() is true.
  void PackCast(const Iovec& wire);
  void PackSend(EndpointId dst, const Iovec& wire);
  // Emits everything staged (cast queue first, then per-peer queues).
  void FlushPacked();

  // True iff `datagram` carries the packed tag.
  static bool IsPacked(const Bytes& datagram);
  // Calls visit(sub) for each sub-message of a packed datagram, in order, as
  // zero-copy slices.  The whole framing is checked first: on malformed
  // framing nothing is visited and the result is false.
  template <typename Visit>
  bool ForEachPacked(const Bytes& datagram, Visit&& visit);
  // ForEachPacked, appending the sub-slices to `out`.
  bool Unpack(const Bytes& datagram, std::vector<Bytes>* out) {
    return ForEachPacked(datagram, [out](const Bytes& sub) { out->push_back(sub); });
  }

  const PackStats& pack_stats() const { return pack_stats_; }

  void set_conn_table(ConnTable* conns) { conns_ = conns; }

 private:
  // One destination's staging queue: the original wire datagrams, coalesced
  // lazily at flush time (so a lone message goes out unwrapped).
  struct Staging {
    std::vector<Iovec> wires;
    size_t bytes = 0;
  };

  // Packed framing: [tag u8][count u8] header, [len u32] per entry.
  static constexpr size_t kPackHeader = 2;
  static constexpr size_t kPackLenPrefix = 4;

  // Checks a packed datagram's whole framing; sets *count on success.
  static bool CheckPacked(const Bytes& datagram, size_t* count);
  void StageOn(Staging* q, const PackDest& dest, const Iovec& wire);
  void FlushQueue(Staging* q, const PackDest& dest);

  ConnTable* conns_;
  EmitFn emit_;
  size_t max_msgs_ = 16;
  size_t max_bytes_ = 60000;
  Staging cast_q_;
  std::map<EndpointId, Staging> send_q_;
  PackStats pack_stats_;
};

template <typename Visit>
bool Transport::ForEachPacked(const Bytes& datagram, Visit&& visit) {
  size_t count = 0;
  if (!CheckPacked(datagram, &count)) {
    return false;
  }
  size_t pos = kPackHeader;
  for (size_t i = 0; i < count; i++) {
    uint32_t len;
    std::memcpy(&len, datagram.data() + pos, kPackLenPrefix);
    pos += kPackLenPrefix;
    visit(datagram.Slice(pos, len));
    pos += len;
  }
  pack_stats_.unpacked_submsgs += count;
  return true;
}

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_TRANS_TRANSPORT_H_
