#include "src/bypass/compiler.h"

#include <cstring>
#include <sstream>

#include "src/marshal/generic_codec.h"
#include "src/obs/trace.h"
#include "src/util/hash.h"
#include "src/util/logging.h"

namespace ensemble {

BypassPuntStats& GlobalBypassPuntStats() {
  static BypassPuntStats stats;
  return stats;
}

namespace {

constexpr size_t kMaxHeaderStructSize = 64;
constexpr size_t kMaxVars = 32;

size_t WriteVar(uint8_t* dst, FieldType type, uint64_t v) {
  switch (type) {
    case FieldType::kU8: {
      uint8_t x = static_cast<uint8_t>(v);
      std::memcpy(dst, &x, 1);
      return 1;
    }
    case FieldType::kU16: {
      uint16_t x = static_cast<uint16_t>(v);
      std::memcpy(dst, &x, 2);
      return 2;
    }
    case FieldType::kU32: {
      uint32_t x = static_cast<uint32_t>(v);
      std::memcpy(dst, &x, 4);
      return 4;
    }
    case FieldType::kU64: {
      std::memcpy(dst, &v, 8);
      return 8;
    }
  }
  return 0;
}

bool ReadVar(const uint8_t* src, size_t avail, FieldType type, uint64_t* v, size_t* used) {
  size_t n = FieldTypeSize(type);
  if (avail < n) {
    return false;
  }
  uint64_t x = 0;
  std::memcpy(&x, src, n);
  *v = x;
  *used = n;
  return true;
}

FCase UpCaseOf(FCase dn_case) {
  switch (dn_case) {
    case FCase::kDnSend:
      return FCase::kUpSend;
    case FCase::kDnProtoCast:
      return FCase::kUpProtoCast;
    default:
      return FCase::kUpCast;
  }
}

void MissingRule(LayerId layer, FCase fcase, std::string* error) {
  if (error != nullptr) {
    std::ostringstream os;
    os << "layer " << LayerIdName(layer) << " has no a-priori optimization for "
       << FCaseName(fcase);
    *error = os.str();
  }
}

}  // namespace

// Composes the rules of layers [first, depth) for one message kind.
std::unique_ptr<RoutePair> CompileRoute(ProtocolStack* stack, FCase dn_case, size_t first,
                                        std::string* error) {
  auto route = std::unique_ptr<RoutePair>(new RoutePair());
  FCase up_case = UpCaseOf(dn_case);
  route->cast_ = dn_case != FCase::kDnSend;
  route->dn_case_ = dn_case;
  route->up_case_ = up_case;
  route->origin_index_ = first;
  route->plans_.reserve(stack->depth() - first);

  uint16_t var_slot = 0;
  uint64_t hash = kFnvOffset;
  hash = FnvMixU64(hash, static_cast<uint64_t>(dn_case) + 1);

  for (size_t i = first; i < stack->depth(); i++) {
    Layer* layer = stack->layer(i);
    const BypassRule* dn = FindBypassRule(layer->id(), dn_case);
    const BypassRule* up = FindBypassRule(layer->id(), up_case);
    if (dn == nullptr || up == nullptr) {
      MissingRule(layer->id(), dn == nullptr ? dn_case : up_case, error);
      return nullptr;
    }
    hash = FnvMixU64(hash, static_cast<uint64_t>(layer->id()));
    if (up->emits_stable) {
      // The announced kStable vector travels down to the layers below and up
      // to the layers above; the route applies their kStable rules in that
      // order (the normal path passes it down first).
      auto add_stable = [&](size_t k) {
        Layer* other = stack->layer(k);
        const BypassRule* st = FindBypassRule(other->id(), FCase::kStable);
        if (st == nullptr) {
          MissingRule(other->id(), FCase::kStable, error);
          return false;
        }
        if (!st->transparent) {
          route->stable_plans_.push_back({other->id(), other->FastState(), st});
        }
        return true;
      };
      for (size_t k = i + 1; k < stack->depth(); k++) {
        if (!add_stable(k)) {
          return nullptr;
        }
      }
      for (size_t k = i; k-- > 0;) {
        if (!add_stable(k)) {
          return nullptr;
        }
      }
    }
    if (dn->transparent && up->transparent) {
      continue;  // Fully invisible to this message kind: fused away.
    }
    // The wire layout is defined by the down rule's field plans; the up rule
    // must agree (same classification) or the two sides would disagree about
    // the bytes.
    ENS_CHECK_MSG(dn->fields.size() == up->fields.size(),
                  "bypass field plans disagree for " << LayerIdName(layer->id()));
    for (size_t f = 0; f < dn->fields.size(); f++) {
      ENS_CHECK_MSG(dn->fields[f].is_var() == up->fields[f].is_var(),
                    "var/const classification disagrees for " << LayerIdName(layer->id()));
    }

    LayerPlan plan;
    plan.id = layer->id();
    plan.instance = layer;
    plan.state = layer->FastState();
    plan.dn = dn;
    plan.up = up;
    plan.var_base = var_slot;
    plan.has_header = !dn->fields.empty();

    if (plan.has_header) {
      const HeaderDescriptor& desc = HeaderDescriptorFor(layer->id());
      ENS_CHECK_MSG(desc.fields.size() == dn->fields.size(),
                    "field plan count mismatch for " << LayerIdName(layer->id()));
      plan.const_values.resize(desc.fields.size(), 0);
      for (size_t f = 0; f < dn->fields.size(); f++) {
        const FieldPlan& fp = dn->fields[f];
        switch (fp.kind) {
          case FieldPlan::Kind::kVar: {
            WireField wf;
            wf.layer = layer->id();
            wf.type = desc.fields[f].type;
            wf.struct_offset = desc.fields[f].offset;
            wf.var_slot = var_slot++;
            route->wire_.push_back(wf);
            hash = FnvMixU64(hash, 0xAB);  // Var marker.
            break;
          }
          case FieldPlan::Kind::kConst:
            plan.const_values[f] = fp.const_value;
            hash = FnvMixU64(hash, fp.const_value + 1);
            break;
          case FieldPlan::Kind::kConstFromState:
            ENS_CHECK(fp.state_value != nullptr && plan.state != nullptr);
            plan.const_values[f] = fp.state_value(plan.state);
            hash = FnvMixU64(hash, plan.const_values[f] + 1);
            break;
        }
      }
    }
    plan.var_count = static_cast<uint8_t>(var_slot - plan.var_base);

    if (dn->split_deliver && (dn->split_if == nullptr || dn->split_if(plan.state))) {
      route->split_plan_ = route->plans_.size();
      hash = FnvMixU64(hash, 0x5B);  // Split marker (wire-compatible either
                                     // way, but keep route identities apart).
    }
    route->plans_.push_back(std::move(plan));
  }

  ENS_CHECK_MSG(var_slot <= kMaxVars, "too many variable header fields");
  route->nvars_ = var_slot;
  route->conn_id_ = static_cast<uint32_t>(hash ^ (hash >> 32));
  route->my_rank_ = stack->depth() > 0 ? stack->layer(0)->rank() : kNoRank;
  return route;
}

std::unique_ptr<RoutePair> CompileRoutePair(ProtocolStack* stack, bool cast,
                                            std::string* error) {
  return CompileRoute(stack, cast ? FCase::kDnCast : FCase::kDnSend, 0, error);
}

std::unique_ptr<RoutePair> CompileProtoCastRoute(ProtocolStack* stack, LayerId originator,
                                                 std::string* error) {
  for (size_t i = 0; i < stack->depth(); i++) {
    if (stack->layer(i)->id() == originator) {
      return CompileRoute(stack, FCase::kDnProtoCast, i, error);
    }
  }
  if (error != nullptr) {
    *error = std::string("stack has no ") + LayerIdName(originator) + " layer";
  }
  return nullptr;
}

size_t RoutePair::wire_header_bytes() const {
  size_t n = 1 + 4 + 1;  // tag + conn id + origin rank.
  for (const WireField& wf : wire_) {
    n += FieldTypeSize(wf.type);
  }
  return n;
}

bool RoutePair::CheckDownCcp(const Event& ev) const {
  return FailingDownPlan(ev) < 0;
}

int RoutePair::FailingDownPlan(const Event& ev) const {
  BypassCtx ctx;
  ctx.ev = const_cast<Event*>(&ev);
  for (size_t i = 0; i < plans_.size(); i++) {
    const LayerPlan& plan = plans_[i];
    if (plan.dn->transparent || plan.dn->ccp == nullptr) {
      continue;
    }
    ctx.state = plan.state;
    if (!plan.dn->ccp(ctx)) {
      return static_cast<int>(i);
    }
  }
  if (split_plan_ == SIZE_MAX) {
    return -1;
  }
  // Split: the self-delivery arm's CCPs must hold too, evaluated against the
  // values the down updates are *going to* assign (predicted, no mutation).
  uint64_t predicted[kMaxVars] = {0};
  for (const LayerPlan& plan : plans_) {
    if (plan.dn->predict == nullptr) {
      continue;
    }
    BypassCtx pctx;
    pctx.state = plan.state;
    pctx.ev = ctx.ev;
    for (int v = 0; v < plan.var_count; v++) {
      predicted[plan.var_base + v] = plan.dn->predict(pctx, v);
    }
  }
  for (size_t i = split_plan_; i-- > 0;) {
    const LayerPlan& plan = plans_[i];
    if (plan.up->transparent || plan.up->ccp == nullptr) {
      continue;
    }
    BypassCtx uctx;
    uctx.state = plan.state;
    uctx.ev = ctx.ev;
    uctx.vars_in = predicted + plan.var_base;
    if (!plan.up->ccp(uctx)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool RoutePair::DownUpdates(Event& ev, uint64_t* vars, std::vector<Event>* self_deliveries) {
  int failing = FailingDownPlan(ev);
  if (failing >= 0) {
    ccp_stats_.down_misses++;
    LayerId culprit = plans_[failing].id;
    GlobalBypassPuntStats().down_by_layer[static_cast<size_t>(culprit)]++;
    ENS_TRACE(kBypassDownPunt, static_cast<int32_t>(my_rank_),
              static_cast<uint64_t>(culprit), 0);
    return false;
  }
  ccp_stats_.down_hits++;
  GlobalBypassPuntStats().down_hits++;
  ENS_TRACE(kBypassDownHit, static_cast<int32_t>(my_rank_), plans_.size(), 0);
  GlobalDispatchStats().bypass_rule_steps += plans_.size();
  // Commit: run the fused state updates, collecting wire vars.
  BypassCtx ctx;
  ctx.ev = &ev;
  for (size_t i = 0; i < plans_.size(); i++) {
    const LayerPlan& plan = plans_[i];
    if (plan.dn->update == nullptr) {
      continue;
    }
    if (plan.dn->needs_upper_headers) {
      // Give retransmission-buffering layers the header stack the normal
      // path would have built above them.  The upper layers' updates have
      // already run, so their wire vars are final.
      ev.hdrs.Clear();
      MaterializeHeaders(vars, i, &ev.hdrs);
    }
    ctx.state = plan.state;
    ctx.vars_out = vars + plan.var_base;
    plan.dn->update(ctx);
  }

  // Self-delivery arm (split shape).
  if (split_plan_ != SIZE_MAX && self_deliveries != nullptr) {
    Event self = Event::DeliverCast(my_rank_, ev.payload);
    BypassCtx uctx;
    uctx.ev = &self;
    for (size_t i = split_plan_; i-- > 0;) {
      const LayerPlan& plan = plans_[i];
      if (plan.up->update == nullptr) {
        continue;
      }
      uctx.state = plan.state;
      uctx.vars_in = vars + plan.var_base;
      plan.up->update(uctx);
    }
    self_deliveries->push_back(std::move(self));
  }
  return true;
}

bool RoutePair::TryDown(Event& ev, Iovec* wire, std::vector<Event>* self_deliveries) {
  uint64_t vars[kMaxVars] = {0};
  if (!DownUpdates(ev, vars, self_deliveries)) {
    return false;
  }
  BuildWireHeader(vars, wire, ev);
  return true;
}

void RoutePair::BuildWireHeader(const uint64_t* vars, Iovec* wire, const Event& ev) const {
  // [tag u8][conn u32][origin u8][vars...]
  uint8_t buf[1 + 4 + 1 + kMaxVars * 8];
  size_t pos = 0;
  buf[pos++] = kWireCompressed;
  std::memcpy(buf + pos, &conn_id_, 4);
  pos += 4;
  buf[pos++] = static_cast<uint8_t>(my_rank_);
  for (const WireField& wf : wire_) {
    pos += WriteVar(buf + pos, wf.type, vars[wf.var_slot]);
  }
  wire->Clear();
  wire->Append(Bytes::Copy(buf, pos));
  wire->Append(ev.payload);
}

bool RoutePair::DecodeVars(const Bytes& datagram, size_t offset, uint64_t* vars,
                           size_t* payload_off) const {
  size_t pos = offset;
  for (const WireField& wf : wire_) {
    size_t used = 0;
    if (!ReadVar(datagram.data() + pos, datagram.size() - pos, wf.type, &vars[wf.var_slot],
                 &used)) {
      return false;
    }
    pos += used;
  }
  *payload_off = pos;
  return true;
}

RoutePair::UpResult RoutePair::TryUp(const Bytes& datagram, size_t offset, Rank origin,
                                     Event* out) {
  uint64_t vars[kMaxVars] = {0};
  size_t payload_off = 0;
  if (!DecodeVars(datagram, offset, vars, &payload_off)) {
    return UpResult::kBad;
  }
  return UpFromVars(datagram, payload_off, vars, origin, out);
}

RoutePair::UpResult RoutePair::UpFromVars(const Bytes& datagram, size_t payload_off,
                                          const uint64_t* vars, Rank origin, Event* out) {
  GlobalDispatchStats().bypass_rule_steps += plans_.size();
  Event deliver;
  deliver.type = cast_ ? EventType::kDeliverCast : EventType::kDeliverSend;
  deliver.origin = origin;
  if (payload_off < datagram.size()) {
    deliver.payload.Append(datagram.Slice(payload_off, datagram.size() - payload_off));
  }

  // CCP phase, bottom -> top, no mutation.
  for (size_t i = plans_.size(); i-- > 0;) {
    const LayerPlan& plan = plans_[i];
    if (plan.up->transparent || plan.up->ccp == nullptr) {
      continue;
    }
    BypassCtx ctx;
    ctx.state = plan.state;
    ctx.ev = &deliver;
    ctx.vars_in = vars + plan.var_base;
    if (!plan.up->ccp(ctx)) {
      ccp_stats_.up_fallbacks++;
      GlobalBypassPuntStats().up_by_layer[static_cast<size_t>(plan.id)]++;
      ENS_TRACE(kBypassUpFallback, static_cast<int32_t>(my_rank_),
                static_cast<uint64_t>(plan.id), 0);
      ReconstructEvent(vars, datagram, payload_off, origin, out);
      return UpResult::kFallback;
    }
  }
  ccp_stats_.up_hits++;
  GlobalBypassPuntStats().up_hits++;
  ENS_TRACE(kBypassUpHit, static_cast<int32_t>(my_rank_), plans_.size(), 0);
  // Update phase, bottom -> top.
  BypassCtx ctx;
  ctx.ev = &deliver;
  for (size_t i = plans_.size(); i-- > 0;) {
    const LayerPlan& plan = plans_[i];
    if (plan.up->update == nullptr) {
      continue;
    }
    ctx.state = plan.state;
    ctx.vars_in = vars + plan.var_base;
    plan.up->update(ctx);
  }
  if (is_proto_cast()) {
    // The originator consumed its protocol cast; a kStable vector it
    // announced takes effect in the layers that act on one.
    if (ctx.stable != nullptr) {
      for (const StablePlan& sp : stable_plans_) {
        ctx.state = sp.state;
        sp.rule->update(ctx);
      }
    }
    return UpResult::kConsumed;
  }
  *out = std::move(deliver);
  return UpResult::kDelivered;
}

void RoutePair::ReconstructEvent(const uint64_t* vars, const Bytes& datagram,
                                 size_t payload_off, Rank origin, Event* out) const {
  Event ev;
  ev.type = cast_ ? EventType::kDeliverCast : EventType::kDeliverSend;
  ev.origin = origin;
  if (payload_off < datagram.size()) {
    ev.payload.Append(datagram.Slice(payload_off, datagram.size() - payload_off));
  }
  // Rebuild the full header stack in push order (top layer pushed first on
  // the sender, so we push in plans_ order).
  MaterializeHeaders(vars, plans_.size(), &ev.hdrs);
  *out = std::move(ev);
}

void RoutePair::MaterializeHeaders(const uint64_t* vars, size_t end, HeaderStack* hdrs) const {
  uint8_t scratch[kMaxHeaderStructSize];
  size_t next_wire = 0;
  for (size_t i = 0; i < end; i++) {
    const LayerPlan& plan = plans_[i];
    if (!plan.has_header) {
      continue;
    }
    const HeaderDescriptor& desc = HeaderDescriptorFor(plan.id);
    std::memset(scratch, 0, desc.size);
    for (size_t f = 0; f < desc.fields.size(); f++) {
      uint64_t value;
      if (plan.dn->fields[f].is_var()) {
        // Vars for this plan appear consecutively in wire_ starting at
        // next_wire (wire_ was built in the same traversal order).
        value = vars[wire_[next_wire].var_slot];
        next_wire++;
      } else {
        value = plan.const_values[f];
      }
      std::memcpy(scratch + desc.fields[f].offset, &value, FieldTypeSize(desc.fields[f].type));
    }
    hdrs->PushRaw(plan.id, scratch, desc.size);
  }
}

std::string RoutePair::Describe() const {
  std::ostringstream os;
  const char* kind = cast_ ? "Cast" : "Send";
  if (is_proto_cast()) {
    kind = "ProtoCast";
  }
  os << "STACK BYPASS for " << kind << " conn=0x" << std::hex << conn_id_ << std::dec
     << " vars=" << nvars_ << " hdr_bytes=" << wire_header_bytes();
  if (ccp_stats_.down_hits + ccp_stats_.down_misses + ccp_stats_.up_hits +
          ccp_stats_.up_fallbacks >
      0) {
    os << " ccp(down " << static_cast<int>(ccp_stats_.DownHitRate() * 100) << "% hit, up "
       << static_cast<int>(ccp_stats_.UpHitRate() * 100) << "% hit)";
  }
  os << "\n";
  for (const LayerPlan& plan : plans_) {
    os << "  " << RenderOptimizationTheorem(plan.id, dn_case_) << "\n";
    os << "  " << RenderOptimizationTheorem(plan.id, up_case_) << "\n";
  }
  for (const StablePlan& sp : stable_plans_) {
    os << "  " << RenderOptimizationTheorem(sp.id, FCase::kStable) << "\n";
  }
  return os.str();
}

}  // namespace ensemble
