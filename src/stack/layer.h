// The micro-protocol layer interface.
//
// Paper §2: "Each module adheres to a common Ensemble micro-protocol
// interface ... The interface is event-driven: modules pass event objects to
// the adjacent modules."  A layer receives events from above (Dn) and below
// (Up) and emits any number of events in either direction through the sink.
// Layers are single-threaded and own their state; all inter-layer
// interaction is events.

#ifndef ENSEMBLE_SRC_STACK_LAYER_H_
#define ENSEMBLE_SRC_STACK_LAYER_H_

#include <memory>
#include <vector>

#include "src/event/event.h"
#include "src/util/counters.h"
#include "src/util/vtime.h"

namespace ensemble {

// Where a layer's emitted events go.  Engines (imperative scheduler,
// functional composition, bypass) provide different implementations.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void PassUp(Event ev) = 0;
  virtual void PassDn(Event ev) = 0;
};

// Per-stack tuning knobs, shared by all layers of one stack instance.
struct LayerParams {
  size_t frag_max = 1024;            // Fragmentation threshold (bytes).
  uint32_t mflow_window = 256;       // Multicast send credits.
  uint32_t pt2pt_window = 256;       // Point-to-point send credits per peer.
  VTime retrans_timeout = Millis(5);  // Retransmission check interval.
  uint32_t suspect_max_idle = 5;     // Missed heartbeats before suspicion.
  VTime heartbeat_interval = Millis(2);
  bool local_loopback = true;        // local layer delivers own casts.
  uint32_t stable_interval = 16;     // Casts between stability gossip rounds.
  // fifo_buggy fault-injection layer: hold back every Nth up-going cast per
  // origin and release it one delivery late (adjacent swap).  0 disables the
  // bug even when the layer is stacked.
  uint32_t fifo_bug_period = 3;
};

class Layer {
 public:
  explicit Layer(LayerId id) : id_(id) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  LayerId id() const { return id_; }

  // Event arriving from the layer above (or the application at the top).
  virtual void Dn(Event ev, EventSink& sink) = 0;
  // Event arriving from the layer below (or the transport at the bottom).
  virtual void Up(Event ev, EventSink& sink) = 0;

  // Pointer to the layer's bypass-visible hot state (see src/bypass/).  The
  // compiled bypass and the normal path share this state, which is what lets
  // the per-event CCP switch between them (paper Fig. 4).  Layers without
  // bypass rules return nullptr.
  virtual void* FastState() { return nullptr; }

  // A hash of the layer's protocol-relevant state, used by the bypass
  // equivalence checker to assert that the optimized and the original paths
  // leave the stack in identical states.  Layers with no protocol state may
  // keep the default.
  virtual uint64_t StateDigest() const { return 0; }

  Rank rank() const { return rank_; }
  int nmembers() const { return nmembers_; }
  const ViewRef& view() const { return view_; }

  EndpointId self() const { return self_; }
  // The stack assembler tells every layer its own endpoint identity before
  // the kInit event arrives.
  void SetSelf(EndpointId self) { self_ = self; }

 protected:
  // Helper for the common reaction to kInit / kView: record membership and
  // recompute the local rank.
  void NoteView(const Event& ev) {
    if (ev.view) {
      view_ = ev.view;
      nmembers_ = view_->nmembers();
      rank_ = view_->RankOf(self_);
    }
  }

  LayerId id_;
  EndpointId self_;
  Rank rank_ = kNoRank;
  int nmembers_ = 0;
  ViewRef view_;
};

// Process-wide execution counters, for the Table-2a software proxies when
// hardware counters are unavailable: how many layer handler invocations the
// normal path performed vs. how many fused rule applications the bypass did.
// Relaxed atomics: under the sharded runtime every worker thread bumps these.
struct DispatchStats {
  RelaxedCounter layer_invocations;  // Layer::Dn / Layer::Up calls by engines.
  RelaxedCounter bypass_rule_steps;  // CCP + update applications in routes.
};
DispatchStats& GlobalDispatchStats();

// Process-wide protocol counters, bumped by the layers' shared code so the
// normal path and the compiled bypass count alike (registry names in
// src/obs/stats_adapters.cc).
struct ProtocolStats {
  RelaxedCounter gossips_sent;     // collect: stability gossip rounds cast.
  RelaxedCounter gossips_recv;     // collect: gossip casts delivered.
  RelaxedCounter stable_advances;  // collect: new stability vectors announced.
  LiveCounter retrans_depth;       // mnak: casts held for retransmission, all stacks.
};
ProtocolStats& GlobalProtocolStats();

// Factory registry: each layer's .cc registers a creator so stacks can be
// assembled from LayerId lists (the paper's "names of the protocol layers").
using LayerFactory = std::unique_ptr<Layer> (*)(const LayerParams&);
void RegisterLayerFactory(LayerId id, LayerFactory factory);
std::unique_ptr<Layer> CreateLayer(LayerId id, const LayerParams& params);
bool LayerIsRegistered(LayerId id);

#define ENSEMBLE_REGISTER_LAYER(id, ClassName)                               \
  namespace {                                                                \
  const bool ens_layer_reg_##ClassName = [] {                                \
    ::ensemble::RegisterLayerFactory(                                        \
        id, +[](const ::ensemble::LayerParams& p)                            \
                -> std::unique_ptr<::ensemble::Layer> {                      \
          return std::make_unique<ClassName>(p);                             \
        });                                                                  \
    return true;                                                             \
  }();                                                                       \
  }

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_STACK_LAYER_H_
