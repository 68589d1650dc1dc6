// GroupHarness — a whole simulated group in one object.
//
// Builds N endpoints on one simulated network, installs the initial view,
// records every delivery and view per member, and drives the discrete-event
// queue.  Tests, examples, and benches all sit on top of this.

#ifndef ENSEMBLE_SRC_APP_HARNESS_H_
#define ENSEMBLE_SRC_APP_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/app/endpoint.h"
#include "src/net/network.h"

namespace ensemble {

struct HarnessConfig {
  int n = 2;
  NetworkConfig net;
  EndpointConfig ep;
  // Optional per-member execution-mode override (size n).  A group may mix
  // MACH and FUNC members: compressed traffic from optimized senders is
  // dropped by plain receivers and recovered through NAK retransmission on
  // the (generic) normal path.
  std::vector<StackMode> member_modes;
};

class GroupHarness {
 public:
  struct Delivery {
    EventType type;    // kDeliverCast or kDeliverSend.
    Rank origin;
    std::string payload;
    // How many views this member had installed when the delivery happened:
    // 0 = before any view, k = while views(member)[k-1] was current.  The
    // virtual-synchrony oracle groups deliveries per view with this.
    size_t views_installed = 0;
  };

  explicit GroupHarness(HarnessConfig config);

  // Starts every member with the all-members initial view.
  void StartAll();

  GroupEndpoint& member(int i) { return *members_[static_cast<size_t>(i)]; }
  int n() const { return static_cast<int>(members_.size()); }

  // Convenience senders.
  void CastFrom(int member, std::string_view payload);
  void SendFrom(int member, Rank dest, std::string_view payload);

  // Batching boundary for every member: emits staged packed datagrams (see
  // EndpointConfig::pack_messages).  Tests that burst traffic call this
  // before Run(); otherwise the members' periodic timers flush.
  void FlushAll();

  // Advances simulated time.
  void Run(VTime duration) { queue_.RunUntil(queue_.now() + duration); }
  size_t RunAll() { return queue_.RunAll(); }

  SimQueue& queue() { return queue_; }
  SimNetwork& network() { return net_; }

  const std::vector<Delivery>& deliveries(int member) const {
    return deliveries_[static_cast<size_t>(member)];
  }
  const std::vector<ViewRef>& views(int member) const {
    return views_[static_cast<size_t>(member)];
  }
  // Sequence of cast payloads member i delivered (order-sensitive).
  std::vector<std::string> CastPayloads(int member) const;
  // Cast payloads member i delivered from a particular origin, in order.
  std::vector<std::string> CastPayloadsFrom(int member, Rank origin) const;
  // Cast payloads member i delivered while its view number `view_index`
  // (an index into views(i)) was the installed view — the per-view multiset
  // the virtual-synchrony oracle compares across surviving members.
  std::vector<std::string> CastPayloadsInView(int member, size_t view_index) const;

  // Crashes a member: its node drops off the network (packets blackholed).
  void Crash(int member);

  // Coordinated on-the-fly protocol switch: every member installs `layers`
  // in a fresh view (counter bumped past every member's current view).
  void SwitchAll(const std::vector<LayerId>& layers);

  // Administrative join: creates a new endpoint with the harness's endpoint
  // config and installs a fresh view containing it on every member (the
  // simulator-side analog of an out-of-band join service).  Returns the new
  // member's index.
  int AddMember();

 private:
  HarnessConfig config_;
  SimQueue queue_;
  SimNetwork net_;
  std::vector<std::unique_ptr<GroupEndpoint>> members_;
  std::vector<std::vector<Delivery>> deliveries_;
  std::vector<std::vector<ViewRef>> views_;
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_APP_HARNESS_H_
