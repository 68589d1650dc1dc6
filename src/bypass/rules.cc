// A-priori (static-level) bypass rules for the production layers —
// the paper's per-layer optimization theorems (§4.1.2), one per fundamental
// case.  Each rule pins down: the CCP, the state update under the CCP, and
// the header field classification (const fields fold into the connection id;
// var fields ride the wire).
//
// Example, mnak's receive path — the paper's own running example:
//   CCP:    "event is a Deliver and the low end of the receiver's sliding
//            window equals the sequence number in the event"
//   Update: "the message may be delivered and the low end of the window
//            moved up, without a need for buffering"

#include "src/bypass/rule.h"
#include "src/layers/bottom.h"
#include "src/layers/collect.h"
#include "src/layers/frag.h"
#include "src/layers/local.h"
#include "src/layers/mflow.h"
#include "src/layers/mnak.h"
#include "src/layers/partial_appl.h"
#include "src/layers/pt2pt.h"
#include "src/layers/pt2ptw.h"
#include "src/layers/top.h"
#include "src/layers/total.h"

namespace ensemble {
namespace {

BypassRule Transparent() {
  BypassRule r;
  r.transparent = true;
  return r;
}

template <typename T>
const T* St(const BypassCtx& ctx) {
  return static_cast<const T*>(ctx.state);
}
template <typename T>
T* MutSt(BypassCtx& ctx) {
  return static_cast<T*>(ctx.state);
}

// ---------------------------------------------------------------------------
// bottom
// ---------------------------------------------------------------------------

uint64_t BottomViewCtr(const void* state) {
  return static_cast<const BottomFast*>(state)->view_ctr;
}

BypassRule BottomRule() {
  BypassRule r;
  r.ccp_desc = "s_bottom.enabled";
  r.ccp = +[](const BypassCtx& ctx) { return St<BottomFast>(ctx)->enabled != 0; };
  r.fields = {FieldPlan::Const(0), FieldPlan::FromState(&BottomViewCtr)};
  return r;
}

// ---------------------------------------------------------------------------
// mnak
// ---------------------------------------------------------------------------

BypassRule MnakDnCast() {
  BypassRule r;
  r.ccp_desc = "true (sender side always eligible)";
  r.needs_upper_headers = true;  // SaveSent keeps the upper headers.
  r.update_desc = "seqno = send_seqno++, sent[seqno] = msg";
  r.update = +[](BypassCtx& ctx) {
    auto* f = MutSt<MnakFast>(ctx);
    ctx.vars_out[0] = f->send_seqno;
    f->self->SaveSent(f->send_seqno).Save(ctx.ev->payload, ctx.upper);
    f->send_seqno++;
  };
  r.predict = +[](const BypassCtx& ctx, int) -> uint64_t {
    return St<MnakFast>(ctx)->send_seqno;
  };
  r.fields = {FieldPlan::Const(kMnakData), FieldPlan::Var(), FieldPlan::Const(0),
              FieldPlan::Const(0)};
  return r;
}

BypassRule MnakUpCast() {
  BypassRule r;
  r.ccp_desc = "seqno == recv_window.low && no backlog";
  r.ccp = +[](const BypassCtx& ctx) {
    auto* f = St<MnakFast>(ctx);
    return ctx.vars_in[0] == f->self->Expected(ctx.ev->origin) &&
           f->self->NoBacklog(ctx.ev->origin);
  };
  r.update_desc = "recv_window[origin].low++, seq_hint = seqno";
  r.update = +[](BypassCtx& ctx) {
    auto* f = MutSt<MnakFast>(ctx);
    f->self->FastReceive(ctx.ev->origin, ctx.vars_in[0]);
    ctx.ev->seq_hint = ctx.vars_in[0];  // For the stability layer above.
  };
  r.fields = {FieldPlan::Const(kMnakData), FieldPlan::Var(), FieldPlan::Const(0),
              FieldPlan::Const(0)};
  return r;
}

BypassRule MnakStable() {
  BypassRule r;
  r.ccp_desc = "true";
  r.update_desc = "sent.erase(seqno < stable[rank])";
  r.update = +[](BypassCtx& ctx) { MutSt<MnakFast>(ctx)->self->PruneStable(*ctx.stable); };
  return r;
}

BypassRule MnakPassSend() {
  BypassRule r;
  r.ccp_desc = "true (pass-through header only)";
  r.fields = {FieldPlan::Const(kMnakPass), FieldPlan::Const(0), FieldPlan::Const(0),
              FieldPlan::Const(0)};
  return r;
}

// ---------------------------------------------------------------------------
// pt2pt
// ---------------------------------------------------------------------------

BypassRule Pt2ptDnSend() {
  BypassRule r;
  r.ccp_desc = "true (sender side always eligible)";
  r.needs_upper_headers = true;  // The unacked buffer keeps the upper headers.
  r.update_desc = "seqno = next_seqno[dest]++, unacked[dest][seqno] = msg";
  r.update = +[](BypassCtx& ctx) {
    auto* f = MutSt<Pt2ptFast>(ctx);
    ctx.vars_out[0] = f->self->NextSendSeqno(ctx.ev->dest);
    f->self->SaveNext(ctx.ev->dest).Save(ctx.ev->payload, ctx.upper);
  };
  r.predict = +[](const BypassCtx& ctx, int) -> uint64_t {
    return St<Pt2ptFast>(ctx)->self->NextSendSeqno(ctx.ev->dest);
  };
  r.fields = {FieldPlan::Const(kPt2ptData), FieldPlan::Var(), FieldPlan::Const(0)};
  return r;
}

BypassRule Pt2ptUpSend() {
  BypassRule r;
  r.ccp_desc = "seqno == recv_window.low && no backlog";
  r.ccp = +[](const BypassCtx& ctx) {
    auto* f = St<Pt2ptFast>(ctx);
    return ctx.vars_in[0] == f->self->Expected(ctx.ev->origin) &&
           f->self->NoBacklog(ctx.ev->origin);
  };
  r.update_desc = "recv_window[origin].low++";
  r.update = +[](BypassCtx& ctx) {
    auto* f = MutSt<Pt2ptFast>(ctx);
    f->self->FastReceive(ctx.ev->origin, ctx.vars_in[0]);
  };
  r.fields = {FieldPlan::Const(kPt2ptData), FieldPlan::Var(), FieldPlan::Const(0)};
  return r;
}

// ---------------------------------------------------------------------------
// mflow
// ---------------------------------------------------------------------------

BypassRule MflowDnCast() {
  BypassRule r;
  r.ccp_desc = "send credit available";
  r.ccp = +[](const BypassCtx& ctx) { return St<MflowFast>(ctx)->HasCredit(); };
  r.update_desc = "sent++";
  r.update = +[](BypassCtx& ctx) { MutSt<MflowFast>(ctx)->sent++; };
  r.fields = {FieldPlan::Const(kMflowData), FieldPlan::Const(0)};
  return r;
}

BypassRule MflowUpCast() {
  BypassRule r;
  r.ccp_desc = "no credit grant due";
  r.ccp = +[](const BypassCtx& ctx) {
    return St<MflowFast>(ctx)->self->NoGrantDue(ctx.ev->origin);
  };
  r.update_desc = "consumed[origin]++";
  r.update = +[](BypassCtx& ctx) {
    MutSt<MflowFast>(ctx)->self->FastConsume(ctx.ev->origin);
  };
  r.fields = {FieldPlan::Const(kMflowData), FieldPlan::Const(0)};
  return r;
}

// Sends and protocol casts: uncharged, pass header only.
BypassRule MflowPass() {
  BypassRule r;
  r.ccp_desc = "true (pass-through header only)";
  r.fields = {FieldPlan::Const(kMflowPass), FieldPlan::Const(0)};
  return r;
}

// ---------------------------------------------------------------------------
// pt2ptw
// ---------------------------------------------------------------------------

BypassRule Pt2ptwDnSend() {
  BypassRule r;
  r.ccp_desc = "send credit available";
  r.ccp = +[](const BypassCtx& ctx) {
    return St<Pt2ptwFast>(ctx)->self->HasCredit(ctx.ev->dest);
  };
  r.update_desc = "sent[dest]++";
  r.update = +[](BypassCtx& ctx) {
    MutSt<Pt2ptwFast>(ctx)->self->FastSendConsume(ctx.ev->dest);
  };
  r.fields = {FieldPlan::Const(kPt2ptwData), FieldPlan::Const(0)};
  return r;
}

BypassRule Pt2ptwUpSend() {
  BypassRule r;
  r.ccp_desc = "no credit grant due";
  r.ccp = +[](const BypassCtx& ctx) {
    return St<Pt2ptwFast>(ctx)->self->NoGrantDue(ctx.ev->origin);
  };
  r.update_desc = "consumed[origin]++";
  r.update = +[](BypassCtx& ctx) {
    MutSt<Pt2ptwFast>(ctx)->self->FastConsume(ctx.ev->origin);
  };
  r.fields = {FieldPlan::Const(kPt2ptwData), FieldPlan::Const(0)};
  return r;
}

// ---------------------------------------------------------------------------
// frag
// ---------------------------------------------------------------------------

BypassRule FragDn() {
  BypassRule r;
  r.ccp_desc = "payload fits in one fragment";
  r.ccp = +[](const BypassCtx& ctx) {
    return ctx.ev->payload.size() <= St<FragFast>(ctx)->frag_max;
  };
  r.fields = {FieldPlan::Const(kFragWhole), FieldPlan::Const(0), FieldPlan::Const(1),
              FieldPlan::Const(0)};
  return r;
}

BypassRule FragUp() {
  BypassRule r;
  r.ccp_desc = "unfragmented message";
  r.fields = {FieldPlan::Const(kFragWhole), FieldPlan::Const(0), FieldPlan::Const(1),
              FieldPlan::Const(0)};
  return r;
}

// ---------------------------------------------------------------------------
// collect
// ---------------------------------------------------------------------------

BypassRule CollectDnCast() {
  BypassRule r;
  r.ccp_desc = "true (data header only)";
  // Arms the timer's stability gossip round, as CollectLayer::Dn does.
  r.update_desc = "data_since_gossip = 1";
  r.update = +[](BypassCtx& ctx) { MutSt<CollectFast>(ctx)->data_since_gossip = 1; };
  r.fields = {FieldPlan::Const(kCollectData)};
  return r;
}

BypassRule CollectUpCast() {
  BypassRule r;
  r.ccp_desc = "no stability gossip round due, or a gossip route casts it";
  r.ccp = +[](const BypassCtx& ctx) {
    auto* f = St<CollectFast>(ctx);
    return f->gossip_routed != 0 || f->since_gossip + 1 < f->interval;
  };
  r.update_desc =
      "acks[origin] = seq_hint + 1, since_gossip++, data_since_gossip = 1, "
      "gossip_due = (since_gossip == interval)";
  r.update = +[](BypassCtx& ctx) {
    auto* f = MutSt<CollectFast>(ctx);
    if (!f->self->CountDelivered(ctx.ev->origin, ctx.ev->seq_hint, /*is_data=*/true)) {
      f->gossip_due = 1;
    }
  };
  r.fields = {FieldPlan::Const(kCollectData)};
  return r;
}

// The gossip route starts here: TakeGossip has already done the sender's
// bookkeeping, so the rule only fixes the header.
BypassRule CollectDnGossip() {
  BypassRule r;
  r.ccp_desc = "true (originates the stability gossip)";
  r.fields = {FieldPlan::Const(kCollectGossip)};
  return r;
}

BypassRule CollectUpGossip() {
  BypassRule r;
  r.ccp_desc = "true";
  r.update_desc =
      "acks[origin] = seq_hint + 1, peer_acks[origin] = gossip, stable = column minima";
  r.update = +[](BypassCtx& ctx) {
    CollectLayer* self = MutSt<CollectFast>(ctx)->self;
    if (self->ReceiveGossip(ctx.ev->origin, ctx.ev->seq_hint, ctx.ev->payload)) {
      ctx.stable = &self->last_stable();
    }
  };
  r.emits_stable = true;
  r.fields = {FieldPlan::Const(kCollectGossip)};
  return r;
}

// ---------------------------------------------------------------------------
// local
// ---------------------------------------------------------------------------

BypassRule LocalDnCast() {
  BypassRule r;
  r.ccp_desc = "true (split when loopback enabled)";
  r.split_deliver = true;
  r.split_if = +[](const void* state) {
    return static_cast<const LocalFast*>(state)->loopback != 0;
  };
  return r;
}

// ---------------------------------------------------------------------------
// total
// ---------------------------------------------------------------------------

BypassRule TotalDnCast() {
  BypassRule r;
  r.ccp_desc = "this member holds the ordering token";
  r.ccp = +[](const BypassCtx& ctx) {
    auto* f = St<TotalFast>(ctx);
    return f->HoldsToken(f->my_rank);
  };
  r.update_desc = "gseq = next_gseq++";
  r.update = +[](BypassCtx& ctx) {
    auto* f = MutSt<TotalFast>(ctx);
    ctx.vars_out[0] = f->next_gseq++;
  };
  r.predict = +[](const BypassCtx& ctx, int) -> uint64_t {
    return St<TotalFast>(ctx)->next_gseq;
  };
  r.fields = {FieldPlan::Const(kTotalData), FieldPlan::Var()};
  return r;
}

BypassRule TotalUpCast() {
  BypassRule r;
  r.ccp_desc = "gseq == next expected && holdback empty";
  r.ccp = +[](const BypassCtx& ctx) {
    auto* f = St<TotalFast>(ctx);
    return ctx.vars_in[0] == f->expected_gseq && f->self->HoldbackEmpty();
  };
  r.update_desc = "expected_gseq++";
  r.update = +[](BypassCtx& ctx) { MutSt<TotalFast>(ctx)->expected_gseq++; };
  r.fields = {FieldPlan::Const(kTotalData), FieldPlan::Var()};
  return r;
}

BypassRule TotalPassSend() {
  BypassRule r;
  r.ccp_desc = "true (pass-through header only)";
  r.fields = {FieldPlan::Const(kTotalPass), FieldPlan::Const(0)};
  return r;
}

// ---------------------------------------------------------------------------
// partial_appl
// ---------------------------------------------------------------------------

BypassRule PartialApplDn() {
  BypassRule r;
  r.ccp_desc = "stack not blocked for a view change";
  r.ccp = +[](const BypassCtx& ctx) { return St<PartialApplFast>(ctx)->blocked == 0; };
  r.update_desc = "casts++";
  r.update = +[](BypassCtx& ctx) { MutSt<PartialApplFast>(ctx)->casts++; };
  return r;
}

BypassRule PartialApplUp() {
  BypassRule r;
  r.ccp_desc = "true";
  r.update_desc = "delivered++";
  r.update = +[](BypassCtx& ctx) { MutSt<PartialApplFast>(ctx)->delivered++; };
  return r;
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

const bool registered = [] {
  // bottom: same shape in all four cases.
  for (FCase c : {FCase::kDnCast, FCase::kDnSend, FCase::kUpCast, FCase::kUpSend}) {
    RegisterBypassRule(LayerId::kBottom, c, BottomRule());
  }

  RegisterBypassRule(LayerId::kMnak, FCase::kDnCast, MnakDnCast());
  RegisterBypassRule(LayerId::kMnak, FCase::kUpCast, MnakUpCast());
  RegisterBypassRule(LayerId::kMnak, FCase::kDnSend, MnakPassSend());
  RegisterBypassRule(LayerId::kMnak, FCase::kUpSend, MnakPassSend());

  RegisterBypassRule(LayerId::kPt2pt, FCase::kDnCast, Transparent());
  RegisterBypassRule(LayerId::kPt2pt, FCase::kUpCast, Transparent());
  RegisterBypassRule(LayerId::kPt2pt, FCase::kDnSend, Pt2ptDnSend());
  RegisterBypassRule(LayerId::kPt2pt, FCase::kUpSend, Pt2ptUpSend());

  RegisterBypassRule(LayerId::kMflow, FCase::kDnCast, MflowDnCast());
  RegisterBypassRule(LayerId::kMflow, FCase::kUpCast, MflowUpCast());
  RegisterBypassRule(LayerId::kMflow, FCase::kDnSend, MflowPass());
  RegisterBypassRule(LayerId::kMflow, FCase::kUpSend, MflowPass());

  RegisterBypassRule(LayerId::kPt2ptw, FCase::kDnCast, Transparent());
  RegisterBypassRule(LayerId::kPt2ptw, FCase::kUpCast, Transparent());
  RegisterBypassRule(LayerId::kPt2ptw, FCase::kDnSend, Pt2ptwDnSend());
  RegisterBypassRule(LayerId::kPt2ptw, FCase::kUpSend, Pt2ptwUpSend());

  RegisterBypassRule(LayerId::kFrag, FCase::kDnCast, FragDn());
  RegisterBypassRule(LayerId::kFrag, FCase::kDnSend, FragDn());
  RegisterBypassRule(LayerId::kFrag, FCase::kUpCast, FragUp());
  RegisterBypassRule(LayerId::kFrag, FCase::kUpSend, FragUp());

  RegisterBypassRule(LayerId::kCollect, FCase::kDnCast, CollectDnCast());
  RegisterBypassRule(LayerId::kCollect, FCase::kUpCast, CollectUpCast());
  RegisterBypassRule(LayerId::kCollect, FCase::kDnSend, Transparent());
  RegisterBypassRule(LayerId::kCollect, FCase::kUpSend, Transparent());

  RegisterBypassRule(LayerId::kLocal, FCase::kDnCast, LocalDnCast());
  RegisterBypassRule(LayerId::kLocal, FCase::kUpCast, Transparent());
  RegisterBypassRule(LayerId::kLocal, FCase::kDnSend, Transparent());
  RegisterBypassRule(LayerId::kLocal, FCase::kUpSend, Transparent());

  RegisterBypassRule(LayerId::kTotal, FCase::kDnCast, TotalDnCast());
  RegisterBypassRule(LayerId::kTotal, FCase::kUpCast, TotalUpCast());
  RegisterBypassRule(LayerId::kTotal, FCase::kDnSend, TotalPassSend());
  RegisterBypassRule(LayerId::kTotal, FCase::kUpSend, TotalPassSend());

  RegisterBypassRule(LayerId::kPartialAppl, FCase::kDnCast, PartialApplDn());
  RegisterBypassRule(LayerId::kPartialAppl, FCase::kDnSend, PartialApplDn());
  RegisterBypassRule(LayerId::kPartialAppl, FCase::kUpCast, PartialApplUp());
  RegisterBypassRule(LayerId::kPartialAppl, FCase::kUpSend, PartialApplUp());

  for (FCase c : {FCase::kDnCast, FCase::kDnSend, FCase::kUpCast, FCase::kUpSend}) {
    RegisterBypassRule(LayerId::kTop, c, Transparent());
  }

  // The protocol-cast route: collect's stability gossip, from collect down.
  // mflow carries it uncharged; mnak numbers, buffers and orders it exactly
  // as a data cast.
  RegisterBypassRule(LayerId::kCollect, FCase::kDnProtoCast, CollectDnGossip());
  RegisterBypassRule(LayerId::kCollect, FCase::kUpProtoCast, CollectUpGossip());
  RegisterBypassRule(LayerId::kFrag, FCase::kDnProtoCast, FragDn());
  RegisterBypassRule(LayerId::kFrag, FCase::kUpProtoCast, FragUp());
  RegisterBypassRule(LayerId::kMflow, FCase::kDnProtoCast, MflowPass());
  RegisterBypassRule(LayerId::kMflow, FCase::kUpProtoCast, MflowPass());
  RegisterBypassRule(LayerId::kMnak, FCase::kDnProtoCast, MnakDnCast());
  RegisterBypassRule(LayerId::kMnak, FCase::kUpProtoCast, MnakUpCast());
  for (LayerId id : {LayerId::kPt2ptw, LayerId::kPt2pt}) {
    RegisterBypassRule(id, FCase::kDnProtoCast, Transparent());
    RegisterBypassRule(id, FCase::kUpProtoCast, Transparent());
  }
  RegisterBypassRule(LayerId::kBottom, FCase::kDnProtoCast, BottomRule());
  RegisterBypassRule(LayerId::kBottom, FCase::kUpProtoCast, BottomRule());

  // kStable: only mnak acts on it (pruning); every other layer passes it on
  // in either direction, and bottom and top absorb it.
  RegisterBypassRule(LayerId::kMnak, FCase::kStable, MnakStable());
  for (LayerId id : {LayerId::kBottom, LayerId::kPt2pt, LayerId::kMflow, LayerId::kPt2ptw,
                     LayerId::kFrag, LayerId::kLocal, LayerId::kTotal, LayerId::kPartialAppl,
                     LayerId::kTop}) {
    RegisterBypassRule(id, FCase::kStable, Transparent());
  }
  return true;
}();

}  // namespace
}  // namespace ensemble
