// intra — intra-group membership coordination (view changes).
//
// The coordinator (announced by elect) reacts to failure suspicions by
// flushing the view (through sync), waiting a settle period for in-flight
// reliable traffic to finish recovering, then broadcasting the new view —
// the old membership minus the suspects.  Every member that finds itself in
// the new view installs it: a kView event travels up (application) and down
// (re-initializing the transport-side layers).
//
// This is a deliberately compact membership protocol: it provides the view
// synchrony the tests assert under the failure patterns exercised there, not
// Ensemble's full partition-merge machinery (see DESIGN.md).

#ifndef ENSEMBLE_SRC_LAYERS_INTRA_H_
#define ENSEMBLE_SRC_LAYERS_INTRA_H_

#include <cstdint>
#include <set>

#include "src/stack/layer.h"

namespace ensemble {

struct IntraHeader {
  uint8_t kind;  // IntraKind.
};

enum IntraKind : uint8_t {
  kIntraPassCast = 0,
  kIntraPassSend = 1,
  kIntraView = 2,
};

class IntraLayer : public Layer {
 public:
  explicit IntraLayer(const LayerParams& params)
      : Layer(LayerId::kIntra), settle_(params.retrans_timeout * 4) {}

  void Dn(Event ev, EventSink& sink) override;
  void Up(Event ev, EventSink& sink) override;
  uint64_t StateDigest() const override;

  bool view_change_in_progress() const { return phase_ != Phase::kIdle; }

 private:
  enum class Phase : uint8_t { kIdle, kFlushing, kSettling };

  void StartViewChange(EventSink& sink);
  void MaybeFinishFlush(EventSink& sink);
  void InstallAndAnnounce(EventSink& sink);
  ViewRef BuildNewView() const;
  void InstallView(ViewRef v, EventSink& sink);

  VTime settle_;
  bool am_coord_ = false;
  Phase phase_ = Phase::kIdle;
  std::set<Rank> suspects_;
  std::set<Rank> block_oks_;
  VTime now_ = 0;
  VTime settle_until_ = 0;
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_LAYERS_INTRA_H_
