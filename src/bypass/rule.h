// Bypass rules: the C++ analog of the paper's per-layer optimization
// theorems (§4.1.2).
//
// For each layer and each of the four fundamental cases — down/up ×
// point-to-point/broadcast ("Optimizations for each layer are initiated for
// four fundamental cases") — plus down/up for a protocol cast that a layer
// originates (collect's stability gossip) and the kStable event that
// gossip produces, a rule states:
//
//   * the Common Case Predicate (CCP) under which the optimized path is
//     semantically equal to the layer's code,
//   * the state update the layer performs in that case,
//   * the layer's header under the CCP, with every field classified constant
//     (foldable into the connection identifier) or variable (transmitted),
//   * the trace shape (linear pass-through, or a split that also delivers
//     the event locally — the `local` layer).
//
// The stack compiler (compiler.h) composes these rules exactly as the
// paper's composition theorems compose layer optimization theorems, and the
// equivalence checker (equivalence.h) plays the role of the proof: it
// asserts the composed bypass is semantically equal to the original stack
// whenever the composed CCP holds.

#ifndef ENSEMBLE_SRC_BYPASS_RULE_H_
#define ENSEMBLE_SRC_BYPASS_RULE_H_

#include <cstdint>
#include <vector>

#include "src/event/event.h"

namespace ensemble {

// The four fundamental cases, then the protocol-cast pair and kStable.
//   kDnProtoCast / kUpProtoCast — a cast a layer originates (the route starts
//     at that layer; the layers below carry it like a data cast, except that
//     flow control passes it uncharged).
//   kStable — how a layer reacts to the kStable event the originator's up
//     update announces: transparent (passes it on, either direction) or an
//     update applied directly (mnak's pruning).
enum class FCase : uint8_t {
  kDnCast = 0,
  kDnSend = 1,
  kUpCast = 2,
  kUpSend = 3,
  kDnProtoCast = 4,
  kUpProtoCast = 5,
  kStable = 6,
};
constexpr size_t kFCaseCount = 7;
const char* FCaseName(FCase c);

// Context handed to the rule callbacks.
//   * state     — the layer's FastState (shared with the normal path).
//   * ev        — the event being processed (payload / dest / origin).
//   * vars      — this rule's variable-field slots.  On a down route the
//                 update fills them (they become the wire bytes); on an up
//                 route they arrive decoded from the wire before the CCP
//                 runs.
//   * stable    — the kStable vector: an originator's Up/ProtoCast update
//                 sets it when stability advanced; kStable rules read it.
struct BypassCtx {
  void* state = nullptr;
  Event* ev = nullptr;
  const uint64_t* vars_in = nullptr;
  uint64_t* vars_out = nullptr;
  const std::vector<uint64_t>* stable = nullptr;
};

using CcpFn = bool (*)(const BypassCtx&);
using UpdateFn = void (*)(BypassCtx&);
// Predicts the value `update` will assign to variable slot `i`, without
// mutating anything.  Needed by split routes: every CCP in the composed path
// (including the self-delivery arm) must be checked before any update runs.
using PredictFn = uint64_t (*)(const BypassCtx&, int i);

// Classification of one header field under the CCP.
struct FieldPlan {
  enum class Kind : uint8_t {
    kConst,           // Fixed value, folded into the connection identifier.
    kVar,             // Transmitted on the wire (assigned a var slot).
    kConstFromState,  // Constant under the CCP but whose value is only known
                      // when the route is compiled (e.g. bottom's view
                      // counter) — read from layer state at compile time.
  };
  Kind kind = Kind::kConst;
  uint64_t const_value = 0;                      // kConst.
  uint64_t (*state_value)(const void*) = nullptr;  // kConstFromState.

  static FieldPlan Const(uint64_t v) { return {Kind::kConst, v, nullptr}; }
  static FieldPlan Var() { return {Kind::kVar, 0, nullptr}; }
  static FieldPlan FromState(uint64_t (*fn)(const void*)) {
    return {Kind::kConstFromState, 0, fn};
  }
  bool is_var() const { return kind == Kind::kVar; }
};

struct BypassRule {
  // Identity: the layer passes this event class through unchanged, pushes no
  // header and touches no state.  (E.g. pt2pt for casts.)
  bool transparent = false;

  const char* ccp_desc = "true";
  CcpFn ccp = nullptr;        // nullptr = always true.
  UpdateFn update = nullptr;  // nullptr = no state change.
  const char* update_desc = "";  // What `update` changes, for the rendering.
  PredictFn predict = nullptr;

  // Header plan, parallel to the layer's HeaderDescriptor fields.  Empty
  // means the layer pushes no header for this case.
  std::vector<FieldPlan> fields;

  // Down cases only: the event is also delivered locally from this layer
  // (trace splitting — `local`'s loopback).
  bool split_deliver = false;
  // When set, the split only applies if this predicate holds on the layer's
  // state at *compile* time (e.g. local's loopback switch).
  bool (*split_if)(const void* state) = nullptr;

  // Down cases only: this layer's update saves the message for possible
  // retransmission, so it needs ev.hdrs to hold the headers the layers above
  // would have pushed on the normal path (mnak for casts, pt2pt for sends).
  // The compiled route materializes them from the upper layers' header plans
  // just before this update runs.
  bool needs_upper_headers = false;

  // Up/ProtoCast only: the update may announce a kStable vector (through
  // BypassCtx::stable), so the route compiles only if every other layer of
  // the stack has a kStable rule.
  bool emits_stable = false;
};

// Registry.  Layers (or a central rules file) register their rules once at
// static-init time; the compiler consults the registry by (layer, case).
// A missing entry means "this layer cannot be bypassed for this case" and
// blocks compilation of the whole route — exactly the paper's situation
// where a layer has not been statically optimized yet.
void RegisterBypassRule(LayerId layer, FCase fcase, BypassRule rule);
const BypassRule* FindBypassRule(LayerId layer, FCase fcase);

// Human-readable rendering of a rule as an optimization theorem, e.g.
//   OPTIMIZING LAYER mnak FOR EVENT Dn/Cast ASSUMING true
//   YIELDS header {kind=0 const, seqno var, lo=0 const, hi=0 const}
//   UPDATING send_seqno++, sent[seqno] = msg
std::string RenderOptimizationTheorem(LayerId layer, FCase fcase);

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_BYPASS_RULE_H_
