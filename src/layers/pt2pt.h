// pt2pt — reliable FIFO point-to-point messaging.
//
// Classic sliding-window protocol: per-destination send sequence numbers with
// a retransmission buffer, per-origin receive windows with out-of-order
// buffering, cumulative acknowledgements piggybacked on timer ticks, and
// timeout-driven retransmission.  Casts pass through untouched (the mnak
// layer below owns multicast reliability).

#ifndef ENSEMBLE_SRC_LAYERS_PT2PT_H_
#define ENSEMBLE_SRC_LAYERS_PT2PT_H_

#include <cstdint>
#include <map>

#include "src/event/saved_msg.h"
#include "src/stack/layer.h"
#include "src/util/seqwin.h"
#include "src/util/vtime.h"

namespace ensemble {

struct Pt2ptHeader {
  uint8_t kind;     // Pt2ptKind.
  uint32_t seqno;   // Data: per-(sender,dest) sequence number.
  uint32_t ackno;   // Ack: cumulative — all seqnos below it are acked.
};

enum Pt2ptKind : uint8_t {
  kPt2ptData = 0,
  kPt2ptAck = 1,
};

struct Pt2ptFast {
  class Pt2ptLayer* self = nullptr;
};

class Pt2ptLayer : public Layer {
 public:
  explicit Pt2ptLayer(const LayerParams& params)
      : Layer(LayerId::kPt2pt), retrans_timeout_(params.retrans_timeout) {
    fast_.self = this;
  }

  void Dn(Event ev, EventSink& sink) override;
  void Up(Event ev, EventSink& sink) override;
  void* FastState() override { return &fast_; }
  uint64_t StateDigest() const override;

  // --- bypass/test accessors ---
  Seqno NextSendSeqno(Rank dest) { return To(dest).next_seqno; }
  Seqno Expected(Rank origin) { return From(origin).window.low(); }
  bool NoBacklog(Rank origin) {
    auto& f = From(origin);
    return f.backlog.empty() && f.window.high() == f.window.low();
  }
  // Send bookkeeping (normal path and compiled routes): takes the next
  // seqno to `dest` and returns the slot that saves the message for
  // retransmission, which the caller fills.
  SavedMsg& SaveNext(Rank dest);
  void FastReceive(Rank origin, Seqno seqno);
  size_t UnackedCount(Rank dest) { return To(dest).unacked.size(); }

 private:
  struct SendSide {
    Seqno next_seqno = 0;
    Seqno acked = 0;                  // All below this are acknowledged.
    SeqRing<SavedMsg> unacked;        // Saved for retransmission.
    VTime last_resend = 0;
  };
  struct RecvSide {
    SeqWindow window;
    std::map<Seqno, Event> backlog;
    bool ack_due = false;  // Progress since the last ack we sent.
  };

  SendSide& To(Rank dest) { return send_[dest]; }
  RecvSide& From(Rank origin) { return recv_[origin]; }
  void DeliverInOrder(Rank origin, EventSink& sink);
  void OnTimer(VTime now, EventSink& sink);
  void ResetForView();

  Pt2ptFast fast_;
  VTime retrans_timeout_;
  std::map<Rank, SendSide> send_;
  std::map<Rank, RecvSide> recv_;
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_LAYERS_PT2PT_H_
