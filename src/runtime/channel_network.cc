#include "src/runtime/channel_network.h"

#include <algorithm>
#include <cstdint>

#include "src/obs/trace.h"
#include "src/util/logging.h"

namespace ensemble {

Mailbox* MailboxTable::Open(EndpointId id) {
  ENS_CHECK_MSG(id.id <= UINT32_MAX, "channel endpoint id out of range: " << id.id);
  Mailbox* box = Find(id);
  if (box == nullptr) {
    boxes_.push_back(std::make_unique<Mailbox>(id));
    box = boxes_.back().get();
    by_id_.Insert(static_cast<uint32_t>(id.id), box);
  }
  return box;
}

void ChannelNetwork::Bind(Mailbox* box, ChannelNetwork* owner) {
  std::lock_guard<std::mutex> lock(box->mu);
  box->owner.store(owner, std::memory_order_relaxed);
}

ChannelNetwork::Resident* ChannelNetwork::FindResident(EndpointId ep) {
  for (Resident& r : resident_) {
    if (r.attached && r.box->id == ep) {
      return &r;
    }
  }
  return nullptr;
}

void ChannelNetwork::Attach(EndpointId ep, DeliverFn deliver) {
  Mailbox* box = table_->Open(ep);
  {
    std::lock_guard<std::mutex> lock(box->mu);
    box->open = true;
    box->owner.store(this, std::memory_order_relaxed);
  }
  Resident r;
  r.box = box;
  r.deliver = std::move(deliver);
  resident_.push_back(std::move(r));
}

void ChannelNetwork::Detach(EndpointId ep) {
  Resident* r = FindResident(ep);
  if (r == nullptr) {
    return;
  }
  size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(r->box->mu);
    r->box->open = false;
    r->box->owner.store(nullptr, std::memory_order_relaxed);
    dropped = r->box->queue.size();
    r->box->queue.clear();
    r->box->depth.store(0, std::memory_order_relaxed);
  }
  stats_.dropped += dropped;
  // Only marked: Detach may run from inside this endpoint's own delivery.
  r->attached = false;
}

void ChannelNetwork::SetDrainHook(EndpointId ep, std::function<void()> hook) {
  Resident* r = FindResident(ep);
  if (r != nullptr) {
    r->drain_hook = std::move(hook);
  }
}

ChannelNetwork::ReleasedEndpoint ChannelNetwork::Release(EndpointId ep) {
  ReleasedEndpoint out;
  Resident* r = FindResident(ep);
  if (r == nullptr) {
    return out;
  }
  // Not inside Poll (handoffs run from posted tasks), so the entry can go now;
  // Poll delivered everything it swapped out before returning.
  Bind(r->box, nullptr);
  out.deliver = std::move(r->deliver);
  out.drain_hook = std::move(r->drain_hook);
  out.valid = true;
  resident_.erase(resident_.begin() + (r - resident_.data()));
  return out;
}

void ChannelNetwork::Adopt(EndpointId ep, ReleasedEndpoint state) {
  if (!state.valid) {
    return;
  }
  Resident r;
  r.box = table_->Find(ep);
  r.deliver = std::move(state.deliver);
  r.drain_hook = std::move(state.drain_hook);
  // Owner store under the mailbox lock: a push either precedes it (our next
  // Poll delivers the packet) or follows it (and wakes us).
  Bind(r.box, this);
  resident_.push_back(std::move(r));
}

void ChannelNetwork::Push(Mailbox* box, EndpointId src, const Bytes& flat) {
  Packet shed;
  bool did_shed = false;
  ChannelNetwork* owner = nullptr;
  {
    std::lock_guard<std::mutex> lock(box->mu);
    if (!box->open) {
      stats_.dropped++;  // Detached: the member left the group.
      return;
    }
    box->queue.push_back(Packet{src, box->id, flat});
    if (pressure_.load(std::memory_order_relaxed) >= 2 &&
        box->queue.size() > shed_keep_) {
      // Kill watermark: drop-oldest keeps the freshest traffic and bounds the
      // mailbox.  Datagram semantics — reliability layers recover as from
      // loss.  The victim is released outside the lock.
      shed = std::move(box->queue.front());
      box->queue.pop_front();
      did_shed = true;
    }
    box->depth.store(box->queue.size(), std::memory_order_release);
    owner = box->owner.load(std::memory_order_relaxed);
  }
  if (did_shed) {
    stats_.dropped++;
    overload_sheds_++;
    ENS_TRACE(kOverloadShed, -1, 1, shed.datagram.size());
  }
  if (owner != nullptr) {
    owner->waker_.NotifyCoalesced();
  }
}

void ChannelNetwork::Send(EndpointId src, EndpointId dst, const Iovec& gather) {
  CountIfPacked(&stats_, gather);
  stats_.sent++;
  stats_.bytes_sent += gather.size();
  Mailbox* box = table_->Find(dst);
  if (box == nullptr) {
    stats_.dropped++;
    return;
  }
  // Flatten models the NIC gather; a fresh heap chunk also makes the payload
  // safe to release on the receiving shard (pool chunks are shard-local).
  Push(box, src, gather.Flatten());
}

size_t ChannelNetwork::DrainQueues() {
  resident_.erase(std::remove_if(resident_.begin(), resident_.end(),
                                 [](const Resident& r) { return !r.attached; }),
                  resident_.end());
  // Deliver only what is queued *now*: deliveries may push responses, and a
  // local ping-pong pair must not trap the worker in one Poll() forever.
  size_t n = 0;
  for (Resident& r : resident_) {
    if (r.box->depth.load(std::memory_order_acquire) == 0) {
      continue;  // A push racing this load wakes us; the next Poll gets it.
    }
    {
      std::lock_guard<std::mutex> lock(r.box->mu);
      r.batch.swap(r.box->queue);
      r.box->depth.store(0, std::memory_order_relaxed);
    }
    for (const Packet& packet : r.batch) {
      if (r.attached) {
        stats_.delivered++;
        r.deliver(packet);
      } else {
        stats_.dropped++;  // Detached by an earlier delivery of this batch.
      }
    }
    n += r.batch.size();
    r.batch.clear();
  }
  if (n > 0) {
    for (Resident& r : resident_) {
      if (r.attached && r.drain_hook) {
        r.drain_hook();
      }
    }
  }
  return n;
}

size_t ChannelNetwork::Poll() {
  size_t n = DrainQueues();
  return n + RunDueTimers();
}

uint64_t ChannelNetwork::dispatch_depth() const {
  uint64_t depth = 0;
  for (const auto& box : table_->all()) {
    if (box->owner.load(std::memory_order_relaxed) == this) {
      depth += box->depth.load(std::memory_order_relaxed);
    }
  }
  return depth;
}

}  // namespace ensemble
