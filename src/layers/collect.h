// collect — stability collection.
//
// Tracks, per sender, how far this member has received that sender's casts —
// in mnak's sequence-number space, via the seq_hint mnak stamps on every
// delivery (data and protocol casts alike, so gossip traffic itself becomes
// stable).  The vector is gossiped to the group every `stable_interval` data
// deliveries, plus a round on the timer when the member has delivered or
// cast data since its last gossip and the vector moved.  Each member
// aggregates everyone's vectors and announces, for each sender, the minimum
// over the *other* members' rows (a sender trivially has its own casts) as a
// kStable event travelling *down* so the reliability layers (mnak) can prune
// their retransmission buffers.
//
// Who gossips: every member that takes part in data traffic.  A member that
// only casts never delivers data through this layer (`local` sits above it
// and self-delivers), yet the other members' gossip casts become stable only
// once it reports them — so casting data arms the timer round too.
// Delivering gossip arms nothing, which keeps an idle group from
// ping-ponging gossip.  Gossip is marked Event::protocol_cast, so mflow
// carries it without a flow-control charge.
//
// In MACH mode the endpoint compiles a route for the gossip itself
// (src/bypass/compiler.h, CompileProtoCastRoute): a bypassed data delivery
// then only marks a due round (CollectFast::gossip_due) and the endpoint
// casts it through that route, and received gossip is aggregated by the
// route without running this layer's Up.

#ifndef ENSEMBLE_SRC_LAYERS_COLLECT_H_
#define ENSEMBLE_SRC_LAYERS_COLLECT_H_

#include <cstdint>
#include <vector>

#include "src/stack/layer.h"

namespace ensemble {

struct CollectHeader {
  uint8_t kind;  // CollectKind.
};

enum CollectKind : uint8_t {
  kCollectData = 0,
  kCollectGossip = 1,
};

struct CollectFast {
  uint32_t since_gossip = 0;  // Deliveries since the last gossip round.
  uint32_t interval = 16;
  uint8_t data_since_gossip = 0;  // Delivered or cast data since the last gossip.
  // Set by the endpoint while a compiled gossip route exists: the bypassed
  // data delivery that completes an interval then stays on the bypass and
  // sets gossip_due, and the endpoint casts the round through the route.
  uint8_t gossip_routed = 0;
  uint8_t gossip_due = 0;
  class CollectLayer* self = nullptr;
};

class CollectLayer : public Layer {
 public:
  explicit CollectLayer(const LayerParams& params) : Layer(LayerId::kCollect) {
    fast_.interval = params.stable_interval;
    fast_.self = this;
  }

  void Dn(Event ev, EventSink& sink) override;
  void Up(Event ev, EventSink& sink) override;
  void* FastState() override { return &fast_; }
  uint64_t StateDigest() const override;

  // Bookkeeping for a delivered cast (shared by the normal path and the
  // bypass rule): advances the watermark for `origin` to seq_hint + 1 and,
  // for data casts, counts toward the gossip interval.  Returns true when no
  // gossip round fell due.
  bool CountDelivered(Rank origin, uint64_t seq_hint, bool is_data);
  // Starts a gossip round (shared by the normal path and the endpoint's
  // compiled emission): resets the interval, records what it reports, and
  // returns the gossip cast with this layer's header pushed.
  Event TakeGossip();
  // TakeGossip without the header, which the compiled gossip route's plan
  // holds: the payload is a slice of this layer's slab, so a routed round
  // allocates nothing.
  Event TakeRoutedGossip();
  // True when the timer's quiescence round is due.
  bool TimerGossipDue() const;
  // Bookkeeping for a delivered gossip cast from `from` (shared by the normal
  // path and the compiled route): counts it, takes the sender's vector, and
  // returns true when the aggregate announced a new last_stable().  A vector
  // of the wrong size or a short payload is ignored.
  bool ReceiveGossip(Rank from, uint64_t seq_hint, const Iovec& payload);
  CollectFast& fast() { return fast_; }
  const std::vector<uint64_t>& acks() const { return acks_; }
  const std::vector<uint64_t>& last_stable() const { return last_stable_; }

 private:
  bool Aggregate();
  void ResetForView();

  CollectFast fast_;
  std::vector<uint64_t> last_gossiped_;             // acks_ as of the last gossip.
  std::vector<uint64_t> acks_;                      // acks_[r]: watermark of r's casts.
  std::vector<std::vector<uint64_t>> peer_acks_;    // Last vector heard from each member.
  std::vector<uint64_t> last_stable_;               // Last announced minimum.
  std::vector<uint64_t> mins_;                      // Aggregate's column minima, reused.
  std::vector<uint8_t> gossip_buf_;                 // The next gossip payload, reused.
  HeaderSlab gossip_slab_;                          // Gossip payloads go out from here.
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_LAYERS_COLLECT_H_
