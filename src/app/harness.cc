#include "src/app/harness.h"

#include <algorithm>

namespace ensemble {

GroupHarness::GroupHarness(HarnessConfig config)
    : config_(std::move(config)), net_(&queue_, config_.net) {
  deliveries_.resize(static_cast<size_t>(config_.n));
  views_.resize(static_cast<size_t>(config_.n));
  for (int i = 0; i < config_.n; i++) {
    EndpointConfig ep_config = config_.ep;
    if (static_cast<size_t>(i) < config_.member_modes.size()) {
      ep_config.mode = config_.member_modes[static_cast<size_t>(i)];
    }
    auto ep = std::make_unique<GroupEndpoint>(EndpointId{static_cast<uint64_t>(i + 1)}, &net_,
                                              ep_config);
    ep->OnDeliver([this, i](const Event& ev) {
      deliveries_[static_cast<size_t>(i)].push_back(
          Delivery{ev.type, ev.origin, ev.payload.Flatten().ToString(),
                   views_[static_cast<size_t>(i)].size()});
    });
    ep->OnView([this, i](const ViewRef& v) { views_[static_cast<size_t>(i)].push_back(v); });
    members_.push_back(std::move(ep));
  }
}

void GroupHarness::StartAll() {
  auto v = std::make_shared<View>();
  v->vid = ViewId{0, 1};
  for (int i = 0; i < config_.n; i++) {
    v->members.push_back(members_[static_cast<size_t>(i)]->id());
  }
  for (auto& m : members_) {
    m->Start(v);
  }
}

void GroupHarness::CastFrom(int member, std::string_view payload) {
  members_[static_cast<size_t>(member)]->Cast(Iovec(Bytes::CopyString(payload)));
}

void GroupHarness::SendFrom(int member, Rank dest, std::string_view payload) {
  members_[static_cast<size_t>(member)]->Send(dest, Iovec(Bytes::CopyString(payload)));
}

std::vector<std::string> GroupHarness::CastPayloads(int member) const {
  std::vector<std::string> out;
  for (const Delivery& d : deliveries_[static_cast<size_t>(member)]) {
    if (d.type == EventType::kDeliverCast) {
      out.push_back(d.payload);
    }
  }
  return out;
}

std::vector<std::string> GroupHarness::CastPayloadsFrom(int member, Rank origin) const {
  std::vector<std::string> out;
  for (const Delivery& d : deliveries_[static_cast<size_t>(member)]) {
    if (d.type == EventType::kDeliverCast && d.origin == origin) {
      out.push_back(d.payload);
    }
  }
  return out;
}

std::vector<std::string> GroupHarness::CastPayloadsInView(int member,
                                                          size_t view_index) const {
  std::vector<std::string> out;
  for (const Delivery& d : deliveries_[static_cast<size_t>(member)]) {
    if (d.type == EventType::kDeliverCast && d.views_installed == view_index + 1) {
      out.push_back(d.payload);
    }
  }
  return out;
}

void GroupHarness::FlushAll() {
  for (auto& m : members_) {
    m->Flush();
  }
  // The last member's FlushPacked may stage fresh datagrams into the
  // network's rings after every per-member net flush already ran — close the
  // batching boundary once more so nothing staged survives FlushAll.
  net_.Flush();
}

void GroupHarness::SwitchAll(const std::vector<LayerId>& layers) {
  uint64_t max_counter = 0;
  for (auto& m : members_) {
    if (m->view()) {
      max_counter = std::max(max_counter, m->view()->vid.counter);
    }
  }
  auto v = std::make_shared<View>();
  v->vid = ViewId{0, max_counter + 1};
  for (auto& m : members_) {
    v->members.push_back(m->id());
  }
  for (auto& m : members_) {
    m->SwitchStack(layers, v);
  }
}

int GroupHarness::AddMember() {
  int index = static_cast<int>(members_.size());
  auto ep = std::make_unique<GroupEndpoint>(
      EndpointId{static_cast<uint64_t>(index + 1)}, &net_, config_.ep);
  ep->OnDeliver([this, index](const Event& ev) {
    deliveries_[static_cast<size_t>(index)].push_back(
        Delivery{ev.type, ev.origin, ev.payload.Flatten().ToString(),
                 views_[static_cast<size_t>(index)].size()});
  });
  ep->OnView([this, index](const ViewRef& v) {
    views_[static_cast<size_t>(index)].push_back(v);
  });
  deliveries_.emplace_back();
  views_.emplace_back();
  members_.push_back(std::move(ep));

  // New view: everyone (including the newcomer), counter bumped.
  uint64_t max_counter = 0;
  for (auto& m : members_) {
    if (m->view()) {
      max_counter = std::max(max_counter, m->view()->vid.counter);
    }
  }
  auto v = std::make_shared<View>();
  v->vid = ViewId{0, max_counter + 1};
  for (auto& m : members_) {
    v->members.push_back(m->id());
  }
  for (size_t i = 0; i + 1 < members_.size(); i++) {
    members_[i]->SwitchStack(config_.ep.layers, v);
  }
  members_.back()->Start(v);
  return index;
}

void GroupHarness::Crash(int member) {
  net_.SetNodeUp(members_[static_cast<size_t>(member)]->id(), false);
}

}  // namespace ensemble
