// The stack bypass compiler: dynamic-level optimization (paper §4.1.3).
//
// "Given the names of the layers in the protocol stack, the system consults
// the a priori optimizations of these layers and composes them into a
// bypass.  The individual CCPs and state updates are instantiated and
// composed by conjunction ... Header compression is integrated as well."
//
// CompileRoutePair walks a live stack's layers, looks up each layer's bypass
// rules for a message kind, assigns wire slots to the variable header fields
// (everything else folds into the connection identifier), and produces a
// RoutePair whose TryDown/TryUp are the fused fast paths.  Composition
// honours the paper's trace shapes: linear chains fuse into one pass; a
// split (local delivery) additionally routes the event through the up-rules
// of the layers above the split point, with all CCPs — including the
// self-delivery arm's — checked *before* any state update runs.
//
// CompileProtoCastRoute compiles a third kind: a cast a layer originates for
// its own protocol (collect's stability gossip).  Its plans run from that
// layer down to the bottom, under the layers' Dn/ProtoCast and Up/ProtoCast
// rules; the receive side consumes the message instead of delivering it.
// When the originator's up update announces a kStable vector, the route
// applies every other layer's kStable rule directly (mnak prunes its
// retransmission buffer; the rest are transparent) — and a layer without a
// kStable rule blocks the route, so such a stack keeps the normal path.

#ifndef ENSEMBLE_SRC_BYPASS_COMPILER_H_
#define ENSEMBLE_SRC_BYPASS_COMPILER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/bypass/rule.h"
#include "src/marshal/header_desc.h"
#include "src/stack/engine.h"
#include "src/util/counters.h"

namespace ensemble {

// One variable header field as it appears on the wire.
struct WireField {
  LayerId layer;
  FieldType type;
  uint16_t struct_offset;  // Offset in the header struct (reconstruction).
  uint16_t var_slot;
};

// Per-layer compiled plan.
struct LayerPlan {
  LayerId id = LayerId::kNone;
  Layer* instance = nullptr;
  void* state = nullptr;
  const BypassRule* dn = nullptr;
  const BypassRule* up = nullptr;
  uint16_t var_base = 0;
  uint8_t var_count = 0;
  bool has_header = false;
  // Concrete constant values for every field (vars hold 0 here); used for
  // wire-layout hashing and header-stack reconstruction.
  std::vector<uint64_t> const_values;
};

// A compiled down+up route for one message kind on one stack instance.
class RoutePair {
 public:
  // What TryUp did with a received compressed message.
  enum class UpResult {
    kDelivered,  // CCP held; state updated; `out` is the app delivery.
    kConsumed,   // CCP held; state updated; a protocol cast, so nothing is
                 // delivered (`out` is untouched).
    kFallback,   // CCP failed; `out` is the reconstructed full event for the
                 // normal stack's Up path.
    kBad,        // Malformed datagram.
  };

  static constexpr size_t kMaxWireVars = 32;

  // Down fast path.  On success: state updated, `wire` is the compressed
  // datagram (header block + payload, scatter-gather) and, on a split
  // route, `*self_delivery` is the local delivery (its state updates run
  // even when the caller passes nullptr and drops it).  On failure (CCP
  // miss) nothing was mutated and the caller must use the normal stack.
  bool TryDown(Event& ev, Iovec* wire, Event* self_delivery);

  // Phase-split variants of TryDown/TryUp, used by the latency harness to
  // attribute stack vs. transport time separately (Table 1's four rows).
  // DownUpdates = CCP check + fused state updates (stack);
  // BuildWire    = compressed-header construction (transport);
  // DecodeVars   = wire parsing (transport);
  // UpFromVars   = CCP check + fused updates + delivery event (stack).
  bool DownUpdates(Event& ev, uint64_t* vars, Event* self_delivery);
  void BuildWire(const uint64_t* vars, const Event& ev, Iovec* wire) {
    BuildWireHeader(vars, wire, ev);
  }
  bool DecodeVars(const Bytes& datagram, size_t offset, uint64_t* vars,
                  size_t* payload_off) const;
  UpResult UpFromVars(const Bytes& datagram, size_t payload_off, const uint64_t* vars,
                      Rank origin, Event* out);

  // CCP evaluation alone (no mutation) — the run-time switch of Fig. 4 and
  // the quantity behind the paper's "checking the CCPs takes only about
  // 3 µs".
  bool CheckDownCcp(const Event& ev) const;

  // Like CheckDownCcp, but names the culprit: index into plans() of the
  // first plan whose CCP rejects `ev`, or -1 when every CCP holds.  This is
  // the punt *reason* — per-layer punt counters and trace events come from
  // it, so an operator can see which layer's common case the workload missed.
  int FailingDownPlan(const Event& ev) const;

  const std::vector<LayerPlan>& plans() const { return plans_; }

  // The layout of the headers above the route's retransmitting layer (its
  // needs_upper_headers plan), which every message that layer saves
  // shares; built on the first save.  Null when no plan saves.
  const std::shared_ptr<const HeaderLayout>& SavedLayout();

  // Up fast path for a compressed datagram body (the bytes after the
  // conn-id preamble).
  UpResult TryUp(const Bytes& datagram, size_t offset, Rank origin, Event* out);

  uint32_t conn_id() const { return conn_id_; }
  bool is_cast() const { return cast_; }
  // Protocol-cast routes: the originating layer's index in the stack (the
  // normal path for a down CCP miss enters the stack just below it).
  bool is_proto_cast() const { return dn_case_ == FCase::kDnProtoCast; }
  size_t origin_layer_index() const { return origin_index_; }
  size_t var_count() const { return nvars_; }
  size_t wire_header_bytes() const;  // Compressed header size (without payload).

  // Run-time CCP statistics (paper §4.1: "CCPs ... are typically determined
  // from run-time statistics").  A high miss rate tells the operator the
  // declared common case is not this workload's common case.
  // RelaxedCounter so live metrics snapshots can read while a shard runs.
  struct CcpStats {
    RelaxedCounter down_hits = 0;
    RelaxedCounter down_misses = 0;
    RelaxedCounter up_hits = 0;
    RelaxedCounter up_fallbacks = 0;
    double DownHitRate() const {
      uint64_t total = down_hits + down_misses;
      return total == 0 ? 1.0 : static_cast<double>(down_hits) / static_cast<double>(total);
    }
    double UpHitRate() const {
      uint64_t total = up_hits + up_fallbacks;
      return total == 0 ? 1.0 : static_cast<double>(up_hits) / static_cast<double>(total);
    }
  };
  const CcpStats& ccp_stats() const { return ccp_stats_; }

  // The composed optimization theorem, for humans and for tests.
  std::string Describe() const;

 private:
  friend std::unique_ptr<RoutePair> CompileRoute(ProtocolStack* stack, FCase dn_case,
                                                 size_t first, std::string* error);

  // A layer whose kStable rule has an update, applied when the originator's
  // up update announces stability.
  struct StablePlan {
    LayerId id;
    void* state;
    const BypassRule* rule;
  };

  // Writes the compressed header into slab_: one refcounted slice, no
  // allocation in steady state.
  void BuildWireHeader(const uint64_t* vars, Iovec* wire, const Event& ev);
  void ReconstructEvent(const uint64_t* vars, const Bytes& datagram, size_t payload_off,
                        Rank origin, Event* out) const;
  // The layout of the headers of plans_[0, end) (const values + var slots),
  // in push order.
  std::shared_ptr<const HeaderLayout> LayoutOf(size_t end) const;

  bool cast_ = true;
  FCase dn_case_ = FCase::kDnCast;
  FCase up_case_ = FCase::kUpCast;
  size_t origin_index_ = 0;
  std::vector<LayerPlan> plans_;  // Top -> bottom.
  std::vector<StablePlan> stable_plans_;
  std::vector<WireField> wire_;
  // Layouts are built on first use: a route that never saves or falls back
  // (most, between two view changes) never pays for them.
  size_t saved_plan_ = SIZE_MAX;  // The needs_upper_headers plan, if any.
  std::shared_ptr<const HeaderLayout> saved_layout_;
  mutable std::shared_ptr<const HeaderLayout> layout_;  // Every plan's header.
  HeaderSlab slab_;
  size_t nvars_ = 0;
  size_t split_plan_ = SIZE_MAX;  // Index into plans_ of the split layer.
  uint32_t conn_id_ = 0;
  Rank my_rank_ = kNoRank;
  CcpStats ccp_stats_;
};

// Compiles the route pair for casts (true) or point-to-point sends (false).
// Returns nullptr with *error set when some layer lacks a rule — the stack
// cannot be bypassed for that kind (the paper: only statically-optimized
// layers compose).
std::unique_ptr<RoutePair> CompileRoutePair(ProtocolStack* stack, bool cast,
                                            std::string* error);

// Compiles the route for the protocol cast that `originator` emits, from
// that layer down.  Returns nullptr with *error set when the stack lacks the
// layer or some layer lacks a rule the route needs.
std::unique_ptr<RoutePair> CompileProtoCastRoute(ProtocolStack* stack, LayerId originator,
                                                 std::string* error);

// Process-global punt accounting keyed by the layer whose CCP failed.
// Global rather than per-RoutePair because routes are recompiled on every
// view change — per-route counters reset with them, while these survive and
// give the whole run's "which layer punts" answer.  Indexed by LayerId.
struct BypassPuntStats {
  RelaxedCounter down_hits;
  RelaxedCounter up_hits;
  RelaxedCounter down_by_layer[kLayerIdCount];
  RelaxedCounter up_by_layer[kLayerIdCount];
};
BypassPuntStats& GlobalBypassPuntStats();

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_BYPASS_COMPILER_H_
