// The event object passed between layers.
//
// Paper §3.1: "The programming model we use is that of a state machine with
// event-condition-action rules ... all interactions between components are
// through events."  An Event is a value type carrying the payload
// (scatter-gather), the layered headers, and the small set of scalar fields
// the micro-protocols need.  Events are moved, not shared.

#ifndef ENSEMBLE_SRC_EVENT_EVENT_H_
#define ENSEMBLE_SRC_EVENT_EVENT_H_

#include <cstdint>
#include <string>

#include "src/event/header_stack.h"
#include "src/event/types.h"
#include "src/util/bytes.h"
#include "src/util/vtime.h"

namespace ensemble {

struct Event {
  EventType type = EventType::kNone;
  // Sender rank for deliveries / suspicion subject for kSuspect.
  Rank origin = kNoRank;
  // Destination rank for point-to-point sends.
  Rank dest = kNoRank;
  // Application payload (scatter-gather; untouched by most layers).
  Iovec payload;
  // Per-layer protocol headers.
  HeaderStack hdrs;
  // Current time for kTimer events.
  VTime time = 0;
  // New membership for kInit / kView events.
  ViewRef view;
  // Small numeric vector payload for control events: per-rank stable seqnos
  // for kStable, member endpoint ids for view-change coordination.
  std::vector<uint64_t> vec;
  // Reliability sequence number of a delivered cast, stamped by mnak so the
  // stability layer above can account in mnak's own seqno space.
  uint64_t seq_hint = 0;
  // Set on a cast a layer originates for its own protocol (collect's
  // stability gossip): mflow passes it without charging a send credit, so
  // protocol traffic never queues behind application casts.  Local only.
  bool protocol_cast = false;

  Event() = default;

  static Event Cast(Iovec payload) {
    Event ev;
    ev.type = EventType::kCast;
    ev.payload = std::move(payload);
    return ev;
  }
  static Event Send(Rank dest, Iovec payload) {
    Event ev;
    ev.type = EventType::kSend;
    ev.dest = dest;
    ev.payload = std::move(payload);
    return ev;
  }
  static Event Timer(VTime now) {
    Event ev;
    ev.type = EventType::kTimer;
    ev.time = now;
    return ev;
  }
  static Event Init(ViewRef v) {
    Event ev;
    ev.type = EventType::kInit;
    ev.view = std::move(v);
    return ev;
  }
  static Event DeliverCast(Rank from, Iovec payload) {
    Event ev;
    ev.type = EventType::kDeliverCast;
    ev.origin = from;
    ev.payload = std::move(payload);
    return ev;
  }
  static Event DeliverSend(Rank from, Iovec payload) {
    Event ev;
    ev.type = EventType::kDeliverSend;
    ev.origin = from;
    ev.payload = std::move(payload);
    return ev;
  }
  static Event OfType(EventType t) {
    Event ev;
    ev.type = t;
    return ev;
  }

  bool IsMessage() const {
    return type == EventType::kCast || type == EventType::kSend ||
           type == EventType::kDeliverCast || type == EventType::kDeliverSend;
  }

  std::string ToString() const;
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_EVENT_EVENT_H_
