// Hand-optimized bypass for the 4-layer stack (top, pt2pt, mnak, bottom) —
// the paper's HAND configuration.
//
// "For particular common protocol stacks, Ensemble provides carefully
// optimized bypass code for common paths through the protocol stack.  These
// paths were created manually."  Everything is fused by hand, including the
// transport marshaling, and it implements the send-after-deliver trick: "if
// the first message is delivered through the bypass code, it assumes that
// the next message can be sent through the bypass as well, without checking
// the CCPs."
//
// Wire compatibility: HAND emits exactly the same compressed datagrams as
// the machine-compiled routes (same connection ids), so HAND and MACH
// endpoints interoperate; the compiled RoutePairs are kept for the conn ids
// and for CCP-miss fallback reconstruction.

#ifndef ENSEMBLE_SRC_BYPASS_HAND_H_
#define ENSEMBLE_SRC_BYPASS_HAND_H_

#include <memory>

#include "src/bypass/compiler.h"
#include "src/layers/bottom.h"
#include "src/layers/mnak.h"
#include "src/layers/pt2pt.h"

namespace ensemble {

class Hand4Bypass {
 public:
  // `stack` must be the 4-layer stack, already initialized with a view.
  // Returns nullptr (with *error) if the stack shape is wrong.
  static std::unique_ptr<Hand4Bypass> Create(ProtocolStack* stack, std::string* error);

  // Fast paths.  Same contracts as RoutePair::TryDown / TryUp.
  bool TryDownCast(Event& ev, Iovec* wire);
  bool TryDownSend(Event& ev, Iovec* wire);
  RoutePair::UpResult TryUpCast(const Bytes& datagram, size_t offset, Rank origin, Event* out);
  RoutePair::UpResult TryUpSend(const Bytes& datagram, size_t offset, Rank origin, Event* out);

  // Phase-split pieces (latency attribution; TryDownCast/TryUpCast compose
  // them).  DownCastUpdates runs the CCP + state updates and returns the
  // assigned seqno (UINT32_MAX on CCP miss); BuildCastWire is the integrated
  // transport; UpCastCommit is the receive-side CCP + updates given the
  // already-decoded seqno.
  uint32_t DownCastUpdates(const Event& ev);
  void BuildCastWire(uint32_t seqno, const Iovec& payload, Iovec* wire);
  RoutePair::UpResult UpCastCommit(uint32_t seqno, const Bytes& datagram, size_t payload_off,
                                   Rank origin, Event* out);

  uint32_t cast_conn_id() const { return cast_route_->conn_id(); }
  uint32_t send_conn_id() const { return send_route_->conn_id(); }
  RoutePair* cast_route() { return cast_route_.get(); }
  RoutePair* send_route() { return send_route_.get(); }

 private:
  Hand4Bypass() = default;

  // [tag][conn][origin][seqno u32] into slab_, then the payload.
  void BuildWire(uint32_t conn, uint32_t seqno, const Iovec& payload, Iovec* wire);

  BottomFast* bottom_ = nullptr;
  MnakFast* mnak_ = nullptr;
  Pt2ptFast* pt2pt_ = nullptr;
  Rank my_rank_ = kNoRank;
  // Send-after-deliver: the next down cast skips the CCP re-check.
  bool skip_next_ccp_ = false;

  std::unique_ptr<RoutePair> cast_route_;
  std::unique_ptr<RoutePair> send_route_;
  // The compiled routes' layouts of the headers above mnak (casts) and
  // pt2pt (sends): saved messages share them as MACH's do.  Taken at
  // Create, since HAND saves without going through the routes.
  std::shared_ptr<const HeaderLayout> cast_upper_;
  std::shared_ptr<const HeaderLayout> send_upper_;
  HeaderSlab slab_;
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_BYPASS_HAND_H_
