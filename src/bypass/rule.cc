#include "src/bypass/rule.h"

#include <array>
#include <sstream>

#include "src/marshal/header_desc.h"
#include "src/util/logging.h"

namespace ensemble {

const char* FCaseName(FCase c) {
  switch (c) {
    case FCase::kDnCast:
      return "Dn/Cast";
    case FCase::kDnSend:
      return "Dn/Send";
    case FCase::kUpCast:
      return "Up/Cast";
    case FCase::kUpSend:
      return "Up/Send";
    case FCase::kDnProtoCast:
      return "Dn/ProtoCast";
    case FCase::kUpProtoCast:
      return "Up/ProtoCast";
    case FCase::kStable:
      return "Stable";
  }
  return "?";
}

namespace {
// Indexed by (layer, case): every route compile looks up two rules per layer.
struct RuleSlot {
  bool present = false;
  BypassRule rule;
};
std::array<std::array<RuleSlot, kFCaseCount>, kLayerIdCount>& Registry() {
  static std::array<std::array<RuleSlot, kFCaseCount>, kLayerIdCount> table;
  return table;
}
}  // namespace

void RegisterBypassRule(LayerId layer, FCase fcase, BypassRule rule) {
  RuleSlot& slot = Registry()[static_cast<size_t>(layer)][static_cast<size_t>(fcase)];
  slot.present = true;
  slot.rule = std::move(rule);
}

const BypassRule* FindBypassRule(LayerId layer, FCase fcase) {
  const RuleSlot& slot = Registry()[static_cast<size_t>(layer)][static_cast<size_t>(fcase)];
  return slot.present ? &slot.rule : nullptr;
}

std::string RenderOptimizationTheorem(LayerId layer, FCase fcase) {
  std::ostringstream os;
  const BypassRule* rule = FindBypassRule(layer, fcase);
  os << "OPTIMIZING LAYER " << LayerIdName(layer) << " FOR EVENT " << FCaseName(fcase);
  if (rule == nullptr) {
    os << " : no a-priori optimization";
    return os.str();
  }
  if (rule->transparent) {
    os << " : transparent (identity, no header, no state change)";
    return os.str();
  }
  os << " ASSUMING " << rule->ccp_desc;
  if (rule->fields.empty()) {
    os << " YIELDS no header";
  } else {
    const HeaderDescriptor& desc = HeaderDescriptorFor(layer);
    os << " YIELDS header {";
    for (size_t i = 0; i < rule->fields.size(); i++) {
      os << (i > 0 ? ", " : "") << desc.fields[i].name;
      switch (rule->fields[i].kind) {
        case FieldPlan::Kind::kConst:
          os << "=" << rule->fields[i].const_value << " const";
          break;
        case FieldPlan::Kind::kVar:
          os << " var";
          break;
        case FieldPlan::Kind::kConstFromState:
          os << " const(state)";
          break;
      }
    }
    os << "}";
  }
  if (rule->update != nullptr) {
    os << " UPDATING " << rule->update_desc;
  }
  if (rule->split_deliver) {
    os << " AND DELIVERS LOCALLY (split)";
  }
  if (rule->emits_stable) {
    os << " AND ANNOUNCES Stable";
  }
  return os.str();
}

}  // namespace ensemble
