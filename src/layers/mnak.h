// mnak — reliable FIFO multicast using negative acknowledgements.
//
// Each member numbers its casts; receivers deliver in per-sender sequence
// order, buffer out-of-order arrivals, and request retransmission of holes
// with NAK messages (sent point-to-point to the original sender, who keeps a
// retransmission buffer of its own casts until they are reported stable).
//
// The paper's running CCP example is this layer's up path: "a CCP may be true
// if the event is a Deliver event, and the low end of the receiver's sliding
// window is equal to the sequence number in the event ... that message may be
// delivered and the low end of the window moved up, without a need for
// buffering."
//
// Buffer bound: a sent cast is pruned when collect reports it stable, so the
// retransmission buffer holds only the unstable window, not all traffic.
// The send watermark (kMnakHi) lets receivers detect a lost tail.  A new
// watermark is advertised on the next timer tick; while casts stay
// unstable an unchanged one is re-advertised after 1, 2, 4, ... ticks up to
// kMaxHiBackoffTicks.  A member's last gossip cast stays unstable in an idle
// group (reporting it would take another gossip), so without the backoff
// every such member would broadcast once per tick forever.

#ifndef ENSEMBLE_SRC_LAYERS_MNAK_H_
#define ENSEMBLE_SRC_LAYERS_MNAK_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/stack/layer.h"
#include "src/util/seqwin.h"

namespace ensemble {

struct MnakHeader {
  uint8_t kind;    // MnakKind below.
  uint32_t seqno;  // Data/Retrans: cast sequence number of the origin.
  uint32_t lo;     // Nak: first missing seqno.
  uint32_t hi;     // Nak: one past the last missing seqno.
};

enum MnakKind : uint8_t {
  kMnakData = 0,
  kMnakPass = 1,     // A point-to-point message of an upper layer passing by.
  kMnakNak = 2,      // NAK for [lo, hi) of the destination's casts.
  kMnakRetrans = 3,  // Retransmission of the sender's own cast `seqno`.
  kMnakHi = 4,       // Send-watermark advertisement: "I have cast [0, seqno)".
};

// Cap, in timer ticks, on the gap between re-advertisements of an unchanged
// send watermark.
constexpr uint32_t kMaxHiBackoffTicks = 1024;

// A buffered message: payload plus the headers of the layers above mnak,
// exactly as they were when the message passed down (retransmissions must
// reproduce them).
struct MnakSavedMsg {
  Iovec payload;
  HeaderStack upper_hdrs;
};

// Hot state shared with the compiled bypass.  Per-sender receive windows live
// in the cold part; the bypass only needs the single-peer fast path data,
// which it reaches through the pointers below.
struct MnakFast {
  uint32_t send_seqno = 0;  // Next seqno for my own casts.
  // Owned by MnakLayer; the bypass updates receive windows through this.
  class MnakLayer* self = nullptr;
};

class MnakLayer : public Layer {
 public:
  explicit MnakLayer(const LayerParams& params) : Layer(LayerId::kMnak) {
    fast_.self = this;
  }
  ~MnakLayer() override;

  void Dn(Event ev, EventSink& sink) override;
  void Up(Event ev, EventSink& sink) override;
  void* FastState() override { return &fast_; }
  uint64_t StateDigest() const override;

  // --- accessors used by the bypass rules and tests ---
  MnakFast& fast() { return fast_; }
  // Next expected seqno from `origin`; creates the window lazily.
  Seqno Expected(Rank origin);
  // True when nothing from `origin` is buffered out of order.
  bool NoBacklog(Rank origin);
  // Fast-path receive bookkeeping: advance the window past `seqno`
  // (which must equal Expected(origin)).
  void FastReceive(Rank origin, Seqno seqno);
  // Fast-path send bookkeeping: save a sent cast for retransmission.
  void SaveSent(Seqno seqno, const Event& ev);
  // kStable bookkeeping (shared by the normal path and the compiled gossip
  // route): my casts below stable[rank] are delivered everywhere, so they
  // leave the retransmission buffer.
  void PruneStable(const std::vector<uint64_t>& stable);

  size_t retrans_buffer_size() const { return sent_.size(); }

 private:
  struct PeerState {
    SeqWindow window;
    std::map<Seqno, Event> backlog;  // Out-of-order arrivals awaiting holes.
  };

  PeerState& Peer(Rank origin);
  void DeliverInOrder(Rank origin, EventSink& sink);
  void SendNaks(EventSink& sink);
  void AdvertiseWatermark(EventSink& sink);
  void HandleNak(Rank from, uint32_t lo, uint32_t hi, EventSink& sink);
  void ResetForView();
  void ClearSent();

  MnakFast fast_;
  std::map<Rank, PeerState> peers_;
  std::map<Seqno, MnakSavedMsg> sent_;  // My own casts, for retransmission.
  uint32_t advertised_ = 0;             // Watermark last announced via kMnakHi.
  uint32_t hi_backoff_ = 1;             // Ticks between re-advertisements of it.
  uint32_t hi_wait_ = 0;                // Ticks left until the next one.
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_LAYERS_MNAK_H_
