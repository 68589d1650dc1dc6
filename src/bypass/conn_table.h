// Connection table: maps the compressed-header connection identifier to the
// compiled route that understands it.
//
// Paper §4.1.3: "most of the header fields are fixed (constant) now, [so] we
// only have to transmit the header fields that may vary" — the constants are
// folded into a short identifier.  Both sides derive identical identifiers
// deterministically from the stack composition (same layers, same field
// plans, same view), so no negotiation is needed.
//
// Find() sits on the receive fast path (one lookup per bypass delivery), so
// the storage is the shared open-addressing FlatMap (src/util/flat_map.h).
// What the table adds on top is its registration rule: an id stays bound to
// the first route registered under it.

#ifndef ENSEMBLE_SRC_BYPASS_CONN_TABLE_H_
#define ENSEMBLE_SRC_BYPASS_CONN_TABLE_H_

#include <cstdint>

#include "src/bypass/compiler.h"
#include "src/util/flat_map.h"

namespace ensemble {

class ConnTable {
 public:
  // Registers a compiled route under its connection id.  Returns false on an
  // id collision with a different route (callers treat that as fatal — the
  // id space is 32 bits and stacks per process are few).
  bool Register(RoutePair* route) { return RegisterId(route->conn_id(), route); }

  // Same, under an explicit id: tests and the lookup microbench synthesize
  // many ids without compiling a stack per entry.  The table never
  // dereferences `route`.  Re-registering the same route is ok.
  bool RegisterId(uint32_t key, RoutePair* route) {
    return map_.Insert(key, route) == route;
  }

  void Unregister(uint32_t conn_id) { map_.Erase(conn_id); }
  void Clear() { map_.Clear(); }
  RoutePair* Find(uint32_t conn_id) const { return map_.Find(conn_id); }

  size_t size() const { return map_.size(); }
  size_t capacity() const { return map_.capacity(); }

 private:
  FlatMap<RoutePair> map_;
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_BYPASS_CONN_TABLE_H_
