// mflow — multicast flow control.
//
// Window/credit scheme: a sender may have at most `window` unacknowledged
// casts outstanding per receiver.  Each receiver returns a credit grant
// (point-to-point) after consuming half a window of casts from that sender.
// Casts that find no credit are queued and released when credits arrive
// (the non-common case the bypass CCP excludes).
//
// Protocol casts (Event::protocol_cast — collect's stability gossip) carry no
// charge: they pass at once with a kMflowPass header, whatever the credit,
// and receivers do not count them toward a grant.  Stability is what frees
// the retransmission buffers below, so it must never wait for credit that
// only application traffic consumes.

#ifndef ENSEMBLE_SRC_LAYERS_MFLOW_H_
#define ENSEMBLE_SRC_LAYERS_MFLOW_H_

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "src/stack/layer.h"

namespace ensemble {

struct MflowHeader {
  uint8_t kind;      // MflowKind.
  uint32_t credits;  // Credit: new cumulative grant total.
};

enum MflowKind : uint8_t {
  kMflowData = 0,
  kMflowPass = 1,    // Send, or protocol cast, passing through uncharged.
  kMflowCredit = 2,  // Credit grant.
};

struct MflowFast {
  uint32_t sent = 0;         // Casts I have sent (cumulative).
  uint32_t min_granted = 0;  // min over peers of their cumulative grant to me.
  uint8_t solo = 0;          // Single-member view: flow control is moot.
  class MflowLayer* self = nullptr;

  bool HasCredit() const { return solo != 0 || sent < min_granted; }
};

class MflowLayer : public Layer {
 public:
  explicit MflowLayer(const LayerParams& params)
      : Layer(LayerId::kMflow), window_(params.mflow_window) {
    fast_.self = this;
  }

  void Dn(Event ev, EventSink& sink) override;
  void Up(Event ev, EventSink& sink) override;
  void* FastState() override { return &fast_; }
  uint64_t StateDigest() const override;

  MflowFast& fast() { return fast_; }
  // Receive-side bookkeeping for the bypass: counts a consumed cast from
  // `origin`; returns true when no credit grant fell due (the common case).
  bool FastConsume(Rank origin);
  // True when consuming one more cast from `origin` will NOT trigger a grant.
  bool NoGrantDue(Rank origin);
  size_t QueuedCasts() const { return pending_.size(); }

 private:
  struct RecvSide {
    uint32_t consumed = 0;  // Casts consumed from this sender.
    uint32_t granted = 0;   // Cumulative credit total I granted them.
  };

  void RecomputeMinGranted();
  void FlushPending(EventSink& sink);
  void SendGrant(Rank origin, EventSink& sink);
  void ResetForView();

  MflowFast fast_;
  uint32_t window_;
  std::map<Rank, uint32_t> granted_to_me_;  // Peer -> their cumulative grant.
  std::map<Rank, RecvSide> recv_;
  std::deque<Event> pending_;  // Casts waiting for credit.
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_LAYERS_MFLOW_H_
