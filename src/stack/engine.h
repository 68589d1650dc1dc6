// Stack execution engines: the paper's IMP and FUNC configurations (§4.2).
//
//   * ImperativeStack (IMP): "Ensemble has a central event scheduler.  It
//     instantiates each protocol layer individually, and hands events to the
//     layers as they come out of the scheduler."  Implemented with a
//     preallocated ring of pending (layer, direction, event) entries.
//   * FunctionalStack (FUNC): "no centralized event scheduler is used ...
//     The up events that come out of p and the down events that come out of q
//     are merged together to form the output events" — recursive composition
//     with per-call event-list merging, which is exactly why FUNC measures
//     slower than IMP in Table 1.
//
// Both engines present the same boundary: Down(ev) feeds the top layer; Up(ev)
// feeds the bottom layer; events escaping the bottom go to the down_out
// callback (the Transport), events escaping the top go to up_out (the
// application).

#ifndef ENSEMBLE_SRC_STACK_ENGINE_H_
#define ENSEMBLE_SRC_STACK_ENGINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/stack/layer.h"

namespace ensemble {

class ProtocolStack {
 public:
  using OutFn = std::function<void(Event)>;

  virtual ~ProtocolStack() = default;

  // Event from the application entering the top layer.
  virtual void Down(Event ev) = 0;
  // Event from the transport entering the bottom layer.
  virtual void Up(Event ev) = 0;
  // Event entering layer `index` travelling down, as if the layer above had
  // passed it: a cast a layer originates whose compiled route's CCP failed
  // continues on the normal path below its originator.
  virtual void DownFrom(size_t index, Event ev) = 0;

  void set_up_out(OutFn fn) { up_out_ = std::move(fn); }
  void set_dn_out(OutFn fn) { dn_out_ = std::move(fn); }

  size_t depth() const { return layers_.size(); }
  Layer* layer(size_t i) { return layers_[i].get(); }
  const Layer* layer(size_t i) const { return layers_[i].get(); }
  Layer* FindLayer(LayerId id) {
    for (auto& l : layers_) {
      if (l->id() == id) {
        return l.get();
      }
    }
    return nullptr;
  }

  // Injects the initial view at the bottom (normally the first thing an
  // endpoint does after wiring the stack up).
  void Init(ViewRef view) { Up(Event::Init(std::move(view))); }

 protected:
  ProtocolStack(std::vector<std::unique_ptr<Layer>> layers, EndpointId self)
      : layers_(std::move(layers)) {
    for (auto& l : layers_) {
      l->SetSelf(self);
    }
  }

  void EmitUp(Event ev) {
    if (up_out_) {
      up_out_(std::move(ev));
    }
  }
  void EmitDn(Event ev) {
    if (dn_out_) {
      dn_out_(std::move(ev));
    }
  }

  std::vector<std::unique_ptr<Layer>> layers_;  // layers_[0] is the top.
  OutFn up_out_;
  OutFn dn_out_;
};

// IMP: central scheduler with a growable ring of queued events.
class ImperativeStack : public ProtocolStack {
 public:
  ImperativeStack(std::vector<std::unique_ptr<Layer>> layers, EndpointId self);

  void Down(Event ev) override;
  void Up(Event ev) override;
  void DownFrom(size_t index, Event ev) override;

 private:
  struct Pending {
    int layer;  // Index of the layer the event is entering.
    Dir dir;
    Event ev;
  };

  class SchedulerSink;

  void Enqueue(int layer, Dir dir, Event ev);
  void RunScheduler();

  // Ring buffer of pending events; head_ == tail_ means empty.
  std::vector<Pending> ring_;
  size_t head_ = 0;
  size_t tail_ = 0;
  size_t count_ = 0;
  bool running_ = false;
};

// FUNC: recursive functional composition with event-list merging.
class FunctionalStack : public ProtocolStack {
 public:
  FunctionalStack(std::vector<std::unique_ptr<Layer>> layers, EndpointId self);

  void Down(Event ev) override;
  void Up(Event ev) override;
  void DownFrom(size_t index, Event ev) override;

 private:
  struct EventLists {
    std::vector<Event> up;
    std::vector<Event> dn;
  };

  // Applies ev to layer i travelling down; escaped events accumulate in out.
  void DnAt(size_t i, Event ev, EventLists& out);
  // Applies ev to layer i travelling up (arriving from below).
  void UpAt(size_t i, Event ev, EventLists& out);
  void Flush(EventLists& out);
};

// Assembles layer instances from a LayerId list (top first).
std::vector<std::unique_ptr<Layer>> BuildLayers(const std::vector<LayerId>& ids,
                                                const LayerParams& params);

// Engine selector used by harnesses and benches.
enum class EngineKind { kImperative, kFunctional };
std::unique_ptr<ProtocolStack> BuildStack(EngineKind kind, const std::vector<LayerId>& ids,
                                          const LayerParams& params, EndpointId self);

// The two stack configurations measured in the paper.
// 10-layer (Table 1a / Fig. 6 / Table 2): virtually synchronous, totally
// ordered reliable multicast with flow control and fragmentation.
std::vector<LayerId> TenLayerStack();
// 4-layer (Table 1b): reliable vsync multicast, used for the HAND comparison.
std::vector<LayerId> FourLayerStack();

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_STACK_ENGINE_H_
