#include "src/stack/engine.h"

#include "src/obs/trace.h"
#include "src/util/logging.h"

namespace ensemble {

// ---------------------------------------------------------------------------
// ImperativeStack
// ---------------------------------------------------------------------------

// Sink handed to a layer while it runs under the scheduler: emissions are
// enqueued as (adjacent layer, direction) entries.
class ImperativeStack::SchedulerSink : public EventSink {
 public:
  SchedulerSink(ImperativeStack* stack, int layer_index)
      : stack_(stack), layer_index_(layer_index) {}

  void PassUp(Event ev) override { stack_->Enqueue(layer_index_ - 1, Dir::kUp, std::move(ev)); }
  void PassDn(Event ev) override { stack_->Enqueue(layer_index_ + 1, Dir::kDown, std::move(ev)); }

 private:
  ImperativeStack* stack_;
  int layer_index_;
};

ImperativeStack::ImperativeStack(std::vector<std::unique_ptr<Layer>> layers, EndpointId self)
    : ProtocolStack(std::move(layers), self) {
  ring_.resize(64);
}

void ImperativeStack::Enqueue(int layer, Dir dir, Event ev) {
  if (count_ == ring_.size()) {
    // Grow by re-linearizing (rare; the ring starts large enough for the
    // benched stacks).
    std::vector<Pending> bigger(ring_.size() * 2);
    for (size_t i = 0; i < count_; i++) {
      bigger[i] = std::move(ring_[(head_ + i) % ring_.size()]);
    }
    head_ = 0;
    tail_ = count_;
    ring_ = std::move(bigger);
  }
  ring_[tail_] = Pending{layer, dir, std::move(ev)};
  tail_ = (tail_ + 1) % ring_.size();
  count_++;
}

void ImperativeStack::RunScheduler() {
  if (running_) {
    return;  // Re-entrant call: the outer loop will drain.
  }
  running_ = true;
  while (count_ > 0) {
    Pending p = std::move(ring_[head_]);
    head_ = (head_ + 1) % ring_.size();
    count_--;
    int n = static_cast<int>(layers_.size());
    if (p.layer < 0) {
      EmitUp(std::move(p.ev));
      continue;
    }
    if (p.layer >= n) {
      EmitDn(std::move(p.ev));
      continue;
    }
    SchedulerSink sink(this, p.layer);
    GlobalDispatchStats().layer_invocations++;
    Layer* layer = layers_[static_cast<size_t>(p.layer)].get();
    if (p.dir == Dir::kDown) {
      ENS_TRACE(kLayerDown, -1, static_cast<uint64_t>(layer->id()), 0);
      layer->Dn(std::move(p.ev), sink);
    } else {
      ENS_TRACE(kLayerUp, -1, static_cast<uint64_t>(layer->id()), 0);
      layer->Up(std::move(p.ev), sink);
    }
  }
  running_ = false;
}

void ImperativeStack::Down(Event ev) {
  Enqueue(0, Dir::kDown, std::move(ev));
  RunScheduler();
}

void ImperativeStack::Up(Event ev) {
  Enqueue(static_cast<int>(layers_.size()) - 1, Dir::kUp, std::move(ev));
  RunScheduler();
}

void ImperativeStack::DownFrom(size_t index, Event ev) {
  Enqueue(static_cast<int>(index), Dir::kDown, std::move(ev));
  RunScheduler();
}

// ---------------------------------------------------------------------------
// FunctionalStack
// ---------------------------------------------------------------------------

namespace {
// Collects one layer invocation's emissions into fresh lists — the
// characteristic allocation cost of the functional composition.
class CollectorSink : public EventSink {
 public:
  void PassUp(Event ev) override { up.push_back(std::move(ev)); }
  void PassDn(Event ev) override { dn.push_back(std::move(ev)); }
  std::vector<Event> up;
  std::vector<Event> dn;
};
}  // namespace

FunctionalStack::FunctionalStack(std::vector<std::unique_ptr<Layer>> layers, EndpointId self)
    : ProtocolStack(std::move(layers), self) {}

namespace {
// The characteristic cost of the functional composition: every composition
// level materializes its own result lists and merges its children's ("The up
// events that come out of p and the down events that come out of q are
// merged together to form the output events").
void Merge(std::vector<Event>& into, std::vector<Event>&& from) {
  for (Event& ev : from) {
    into.push_back(std::move(ev));
  }
}
}  // namespace

void FunctionalStack::DnAt(size_t i, Event ev, EventLists& result) {
  EventLists out;
  if (i >= layers_.size()) {
    out.dn.push_back(std::move(ev));
    Merge(result.up, std::move(out.up));
    Merge(result.dn, std::move(out.dn));
    return;
  }
  CollectorSink sink;
  GlobalDispatchStats().layer_invocations++;
  ENS_TRACE(kLayerDown, -1, static_cast<uint64_t>(layers_[i]->id()), 0);
  layers_[i]->Dn(std::move(ev), sink);
  for (Event& up : sink.up) {
    if (i == 0) {
      out.up.push_back(std::move(up));
    } else {
      EventLists sub;
      UpAt(i - 1, std::move(up), sub);
      Merge(out.up, std::move(sub.up));
      Merge(out.dn, std::move(sub.dn));
    }
  }
  for (Event& dn : sink.dn) {
    EventLists sub;
    DnAt(i + 1, std::move(dn), sub);
    Merge(out.up, std::move(sub.up));
    Merge(out.dn, std::move(sub.dn));
  }
  Merge(result.up, std::move(out.up));
  Merge(result.dn, std::move(out.dn));
}

void FunctionalStack::UpAt(size_t i, Event ev, EventLists& result) {
  EventLists out;
  CollectorSink sink;
  GlobalDispatchStats().layer_invocations++;
  ENS_TRACE(kLayerUp, -1, static_cast<uint64_t>(layers_[i]->id()), 0);
  layers_[i]->Up(std::move(ev), sink);
  for (Event& dn : sink.dn) {
    EventLists sub;
    DnAt(i + 1, std::move(dn), sub);
    Merge(out.up, std::move(sub.up));
    Merge(out.dn, std::move(sub.dn));
  }
  for (Event& up : sink.up) {
    if (i == 0) {
      out.up.push_back(std::move(up));
    } else {
      EventLists sub;
      UpAt(i - 1, std::move(up), sub);
      Merge(out.up, std::move(sub.up));
      Merge(out.dn, std::move(sub.dn));
    }
  }
  Merge(result.up, std::move(out.up));
  Merge(result.dn, std::move(out.dn));
}

void FunctionalStack::Flush(EventLists& out) {
  for (Event& ev : out.dn) {
    EmitDn(std::move(ev));
  }
  for (Event& ev : out.up) {
    EmitUp(std::move(ev));
  }
}

void FunctionalStack::Down(Event ev) {
  DownFrom(0, std::move(ev));
}

void FunctionalStack::DownFrom(size_t index, Event ev) {
  EventLists out;
  DnAt(index, std::move(ev), out);
  Flush(out);
}

void FunctionalStack::Up(Event ev) {
  ENS_CHECK(!layers_.empty());
  EventLists out;
  UpAt(layers_.size() - 1, std::move(ev), out);
  Flush(out);
}

// ---------------------------------------------------------------------------
// Assembly
// ---------------------------------------------------------------------------

std::vector<std::unique_ptr<Layer>> BuildLayers(const std::vector<LayerId>& ids,
                                                const LayerParams& params) {
  std::vector<std::unique_ptr<Layer>> layers;
  layers.reserve(ids.size());
  for (LayerId id : ids) {
    layers.push_back(CreateLayer(id, params));
  }
  return layers;
}

std::unique_ptr<ProtocolStack> BuildStack(EngineKind kind, const std::vector<LayerId>& ids,
                                          const LayerParams& params, EndpointId self) {
  auto layers = BuildLayers(ids, params);
  if (kind == EngineKind::kImperative) {
    return std::make_unique<ImperativeStack>(std::move(layers), self);
  }
  return std::make_unique<FunctionalStack>(std::move(layers), self);
}

std::vector<LayerId> TenLayerStack() {
  return {LayerId::kPartialAppl, LayerId::kTotal,  LayerId::kLocal, LayerId::kCollect,
          LayerId::kFrag,        LayerId::kPt2ptw, LayerId::kMflow, LayerId::kPt2pt,
          LayerId::kMnak,        LayerId::kBottom};
}

std::vector<LayerId> FourLayerStack() {
  return {LayerId::kTop, LayerId::kPt2pt, LayerId::kMnak, LayerId::kBottom};
}

}  // namespace ensemble
