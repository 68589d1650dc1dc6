#include "src/event/saved_msg.h"

#include <algorithm>
#include <cstring>

namespace ensemble {

void HeaderLayout::AddHeader(LayerId layer, const uint8_t* consts, size_t size) {
  ENS_CHECK_MSG(size <= kMaxHeaderBytes, "header too large: " << LayerIdName(layer));
  headers_.push_back({layer, static_cast<uint16_t>(consts_.size()), static_cast<uint16_t>(size),
                      static_cast<uint16_t>(vars_.size()), 0});
  consts_.insert(consts_.end(), consts, consts + size);
}

void HeaderLayout::AddVar(uint16_t offset, FieldType type, uint16_t slot) {
  ENS_CHECK(!headers_.empty());
  vars_.push_back({offset, type, slot});
  headers_.back().var_count++;
  var_count_ = std::max(var_count_, size_t{slot} + 1);
}

void HeaderLayout::Materialize(const uint64_t* vars, HeaderStack* out) const {
  uint8_t scratch[kMaxHeaderBytes];
  for (const Header& h : headers_) {
    std::memcpy(scratch, consts_.data() + h.const_off, h.size);
    for (size_t v = h.first_var; v < size_t{h.first_var} + h.var_count; v++) {
      // Little-endian hosts only (as the whole wire format): the low bytes
      // of the var are the field.
      std::memcpy(scratch + vars_[v].offset, &vars[vars_[v].slot], FieldTypeSize(vars_[v].type));
    }
    out->PushRaw(h.layer, scratch, h.size);
  }
}

}  // namespace ensemble
