#include "src/stack/layer.h"

#include <array>

#include "src/util/logging.h"

namespace ensemble {

namespace {
std::array<LayerFactory, kLayerIdCount>& FactoryTable() {
  static std::array<LayerFactory, kLayerIdCount> table{};
  return table;
}
}  // namespace

DispatchStats& GlobalDispatchStats() {
  static DispatchStats stats;
  return stats;
}

ProtocolStats& GlobalProtocolStats() {
  static ProtocolStats stats;
  return stats;
}

void RegisterLayerFactory(LayerId id, LayerFactory factory) {
  FactoryTable()[static_cast<size_t>(id)] = factory;
}

std::unique_ptr<Layer> CreateLayer(LayerId id, const LayerParams& params) {
  LayerFactory f = FactoryTable()[static_cast<size_t>(id)];
  ENS_CHECK_MSG(f != nullptr, "no factory for layer " << LayerIdName(id));
  return f(params);
}

bool LayerIsRegistered(LayerId id) {
  return FactoryTable()[static_cast<size_t>(id)] != nullptr;
}

}  // namespace ensemble
