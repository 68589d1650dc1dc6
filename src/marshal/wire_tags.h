// First-byte wire tags shared by every datagram codec.
//
// Kept in a dependency-free header so the network backends can classify
// outgoing datagrams (for the batching/packing counters in NetworkStats)
// without pulling in the event model.

#ifndef ENSEMBLE_SRC_MARSHAL_WIRE_TAGS_H_
#define ENSEMBLE_SRC_MARSHAL_WIRE_TAGS_H_

#include <cstddef>
#include <cstdint>

namespace ensemble {

constexpr uint8_t kWireGeneric = 0x47;     // 'G' — self-describing header codec.
constexpr uint8_t kWireCompressed = 0x43;  // 'C' — bypass header compression.
// A packed datagram coalescing several complete sub-datagrams (each itself
// generic or compressed) for one destination — Ensemble's "message packing"
// transport optimization.  Layout:
//   u8 kWirePacked | u8 count | count × (u32 length, body)
constexpr uint8_t kWirePacked = 0x50;  // 'P'

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_MARSHAL_WIRE_TAGS_H_
