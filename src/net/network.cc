#include "src/net/network.h"

#include <algorithm>

#include "src/util/logging.h"

namespace ensemble {

void Network::Broadcast(EndpointId src, const Iovec& gather) {
  ENS_CHECK_MSG(false, "Network::Broadcast is not implemented: a cast is a Send to each "
                       "member of the sender's view");
}

namespace {
std::pair<uint64_t, uint64_t> LinkKey(EndpointId a, EndpointId b) {
  return {std::min(a.id, b.id), std::max(a.id, b.id)};
}
}  // namespace

bool SimNetwork::LinkUp(EndpointId a, EndpointId b) const {
  if (down_nodes_.count(a.id) > 0 || down_nodes_.count(b.id) > 0) {
    return false;
  }
  return cut_links_.count(LinkKey(a, b)) == 0;
}

void SimNetwork::SetLinkUp(EndpointId a, EndpointId b, bool up) {
  if (up) {
    cut_links_.erase(LinkKey(a, b));
  } else {
    cut_links_.insert(LinkKey(a, b));
  }
}

void SimNetwork::SetNodeUp(EndpointId a, bool up) {
  if (up) {
    down_nodes_.erase(a.id);
  } else {
    down_nodes_.insert(a.id);
  }
}

void SimNetwork::DeliverOne(const Packet& packet) {
  stats_.sent++;
  stats_.bytes_sent += packet.datagram.size();
  if (!LinkUp(packet.src, packet.dst)) {
    stats_.dropped++;
    return;
  }
  if (rng_.Chance(config_.drop_prob)) {
    stats_.dropped++;
    return;
  }
  int copies = rng_.Chance(config_.dup_prob) ? 2 : 1;
  stats_.duplicated += copies - 1;
  for (int i = 0; i < copies; i++) {
    VTime delay = config_.latency;
    if (config_.jitter > 0) {
      delay += rng_.Below(config_.jitter + 1);
    }
    if (rng_.Chance(config_.reorder_prob)) {
      delay += config_.reorder_delay;
      stats_.delayed_extra++;
    }
    Packet copy = packet;
    if (tap_) {
      tap_(queue_->now() + delay, copy);
    }
    queue_->After(delay, [this, copy]() {
      auto it = endpoints_.find(copy.dst);
      if (it == endpoints_.end()) {
        return;
      }
      // Re-check the link at delivery time (a partition can start while a
      // packet is in flight; in-flight packets are lost, like real cables).
      if (!LinkUp(copy.src, copy.dst)) {
        stats_.dropped++;
        return;
      }
      stats_.delivered++;
      it->second(copy);
    });
  }
}

void SimNetwork::Send(EndpointId src, EndpointId dst, const Iovec& gather) {
  CountIfPacked(&stats_, gather);
  Packet p;
  p.src = src;
  p.dst = dst;
  p.datagram = gather.Flatten();
  DeliverOne(p);
}

}  // namespace ensemble
