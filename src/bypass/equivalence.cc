#include "src/bypass/equivalence.h"

#include <sstream>

#include "src/util/rng.h"

namespace ensemble {

namespace {

// One scripted operation applied identically to both groups.
struct Op {
  bool is_send;
  int from;
  Rank dest;
  std::string payload;
};

std::vector<Op> Script(const EquivalenceOptions& options) {
  Rng rng(options.seed);
  std::vector<Op> ops;
  ops.reserve(static_cast<size_t>(options.operations));
  for (int i = 0; i < options.operations; i++) {
    Op op;
    op.is_send = rng.Chance(options.send_fraction);
    op.from = static_cast<int>(rng.Below(static_cast<uint64_t>(options.members)));
    op.dest = static_cast<Rank>(rng.Below(static_cast<uint64_t>(options.members)));
    if (op.dest == op.from) {
      op.dest = (op.dest + 1) % options.members;
    }
    op.payload = "op" + std::to_string(i);
    ops.push_back(std::move(op));
  }
  return ops;
}

bool CompareDeliveries(const GroupHarness& a, const GroupHarness& b, int members,
                       std::string* detail) {
  for (int m = 0; m < members; m++) {
    const auto& da = a.deliveries(m);
    const auto& db = b.deliveries(m);
    size_t n = std::min(da.size(), db.size());
    for (size_t i = 0; i < n; i++) {
      if (da[i].type != db[i].type || da[i].origin != db[i].origin ||
          da[i].payload != db[i].payload) {
        std::ostringstream os;
        os << "member " << m << " delivery " << i << " differs: optimized=("
           << EventTypeName(da[i].type) << "," << da[i].origin << "," << da[i].payload
           << ") reference=(" << EventTypeName(db[i].type) << "," << db[i].origin << ","
           << db[i].payload << ")";
        *detail = os.str();
        return false;
      }
    }
    if (da.size() != db.size()) {
      std::ostringstream os;
      os << "member " << m << " delivered " << da.size() << " events, reference delivered "
         << db.size();
      *detail = os.str();
      return false;
    }
  }
  return true;
}

bool CompareDigests(GroupHarness& a, GroupHarness& b, int members, size_t step,
                    std::string* detail) {
  for (int m = 0; m < members; m++) {
    ProtocolStack* sa = a.member(m).stack();
    ProtocolStack* sb = b.member(m).stack();
    for (size_t l = 0; l < sa->depth(); l++) {
      if (sa->layer(l)->StateDigest() != sb->layer(l)->StateDigest()) {
        std::ostringstream os;
        os << "step " << step << ": member " << m << " layer "
           << LayerIdName(sa->layer(l)->id()) << " state diverged";
        *detail = os.str();
        return false;
      }
    }
  }
  return true;
}

}  // namespace

EquivalenceReport CheckStackEquivalence(StackMode mode, const std::vector<LayerId>& layers,
                                        const LayerParams& params,
                                        const EquivalenceOptions& options) {
  EquivalenceReport report;

  HarnessConfig optimized;
  optimized.n = options.members;
  optimized.net = options.net;
  optimized.ep.mode = mode;
  optimized.ep.layers = layers;
  optimized.ep.params = params;

  HarnessConfig reference = optimized;
  reference.ep.mode = StackMode::kFunctional;

  GroupHarness ga(optimized);
  GroupHarness gb(reference);
  ga.StartAll();
  gb.StartAll();

  std::vector<Op> ops = Script(options);
  for (size_t i = 0; i < ops.size(); i++) {
    const Op& op = ops[i];
    if (op.is_send) {
      ga.SendFrom(op.from, op.dest, op.payload);
      gb.SendFrom(op.from, op.dest, op.payload);
    } else {
      ga.CastFrom(op.from, op.payload);
      gb.CastFrom(op.from, op.payload);
    }
    // Let both simulations fully quiesce so the comparison is step-aligned.
    ga.Run(Millis(10));
    gb.Run(Millis(10));
    report.steps++;
    if (options.compare_digests && !CompareDigests(ga, gb, options.members, i, &report.detail)) {
      report.equal = false;
      return report;
    }
  }
  ga.Run(Millis(100));
  gb.Run(Millis(100));
  for (int m = 0; m < options.members; m++) {
    if (const RoutePair* gossip = ga.member(m).gossip_route()) {
      report.gossip_down_hits += gossip->ccp_stats().down_hits;
      report.gossip_up_hits += gossip->ccp_stats().up_hits;
      report.gossip_up_fallbacks += gossip->ccp_stats().up_fallbacks;
    }
  }
  if (!CompareDeliveries(ga, gb, options.members, &report.detail)) {
    report.equal = false;
    return report;
  }
  if (options.compare_digests &&
      !CompareDigests(ga, gb, options.members, ops.size(), &report.detail)) {
    report.equal = false;
  }
  return report;
}

}  // namespace ensemble
