// What the reliability layers keep for retransmission.
//
// mnak saves each of its own casts until it is stable and pt2pt each send
// until it is acknowledged.  A retransmission must carry the headers of the
// layers above exactly as the original did.  The normal path saves its real
// header stack.  A compiled route has no header stack on its way down: it
// saves what it already holds instead — the payload, the upper layers' wire
// vars and a shared reference to the route's header layout — and the stack
// is built only when a NAK or timeout actually retransmits.

#ifndef ENSEMBLE_SRC_EVENT_SAVED_MSG_H_
#define ENSEMBLE_SRC_EVENT_SAVED_MSG_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/event/event.h"

namespace ensemble {

// The header stack a compiled route would push, as data: each header's
// constant bytes, and which wire var fills each of its variable fields.
// Built once per route compile and immutable afterwards.
class HeaderLayout {
 public:
  static constexpr size_t kMaxHeaderBytes = 64;  // Largest header struct.

  // Sizes the layout for `headers` headers of `bytes` constant bytes in all
  // and `vars` variable fields, so building it allocates once per part.
  void Reserve(size_t headers, size_t bytes, size_t vars) {
    headers_.reserve(headers);
    consts_.reserve(bytes);
    vars_.reserve(vars);
  }
  // Appends a header whose constant fields (and zeroed padding) are in
  // `consts`; AddVar then places its variable fields.
  void AddHeader(LayerId layer, const uint8_t* consts, size_t size);
  // The last header's field at `offset` takes vars[slot].
  void AddVar(uint16_t offset, FieldType type, uint16_t slot);

  // One past the highest var slot read (0 when every field is constant).
  size_t var_count() const { return var_count_; }

  // Pushes every header onto `out` in push order (top layer first).
  void Materialize(const uint64_t* vars, HeaderStack* out) const;

 private:
  struct Header {
    LayerId layer;
    uint16_t const_off;  // Into consts_.
    uint16_t size;
    uint16_t first_var;  // Into vars_.
    uint16_t var_count;
  };
  struct Var {
    uint16_t offset;
    FieldType type;
    uint16_t slot;
  };
  std::vector<Header> headers_;
  std::vector<uint8_t> consts_;
  std::vector<Var> vars_;
  size_t var_count_ = 0;
};

// Upper vars a saved message can hold; the compiler checks every
// retransmitting layer's upper layout against it.
constexpr size_t kMaxSavedVars = 4;

// What a compiled route hands a retransmitting layer's update in place of a
// header stack: the layout of the headers above it and the route's vars.
struct LazyHeaders {
  const std::shared_ptr<const HeaderLayout>* layout = nullptr;
  const uint64_t* vars = nullptr;
};

// One message saved for retransmission.  Slots are reused in place (the
// buffers are SeqRings), so Reset keeps the header stack's capacity.
struct SavedMsg {
  Iovec payload;
  HeaderStack hdrs;                            // Normal path: the upper stack.
  std::shared_ptr<const HeaderLayout> layout;  // Route path: set instead.
  std::array<uint64_t, kMaxSavedVars> vars{};

  // Normal path: `ev` carries the upper layers' headers.
  void Save(const Event& ev) {
    payload = ev.payload;
    hdrs = ev.hdrs;
    layout.reset();
  }
  // Route path: the headers stay vars until a retransmission needs them.
  void Save(const Iovec& msg, const LazyHeaders& upper) {
    payload = msg;
    hdrs.Clear();
    layout = *upper.layout;
    for (size_t i = 0; i < layout->var_count(); i++) {
      vars[i] = upper.vars[i];
    }
  }
  void Reset() {
    payload.Clear();
    hdrs.Clear();
    layout.reset();
  }

  // The retransmission: a Send to `dest` carrying the payload under the
  // upper headers, with `layer`'s header `hdr` pushed on top of them.
  template <typename H>
  Event Retransmission(Rank dest, LayerId layer, const H& hdr) const {
    Event re = Event::Send(dest, payload);
    if (layout != nullptr) {
      layout->Materialize(vars.data(), &re.hdrs);
    } else {
      re.hdrs = hdrs;
    }
    re.hdrs.Push(layer, hdr);
    return re;
  }
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_EVENT_SAVED_MSG_H_
