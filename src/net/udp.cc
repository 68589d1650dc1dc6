#include "src/net/udp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "src/net/udp_uring.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"

#ifndef SOL_UDP
#define SOL_UDP 17
#endif
#ifndef UDP_GRO
#define UDP_GRO 104
#endif

namespace ensemble {

const char* NetBackendName(NetBackend b) {
  switch (b) {
    case NetBackend::kEager: return "eager";
    case NetBackend::kMmsg: return "mmsg";
    case NetBackend::kUring: return "uring";
  }
  return "?";
}

namespace {
constexpr size_t kMaxDatagram = 65536;
constexpr int kSocketBufBytes = 1 << 22;  // Headroom for bursty batched sends.

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

// A non-blocking UDP socket with the bursty-send buffer sizes; -1 on failure.
int OpenUdpSocket() {
  int fd = socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    return -1;
  }
  int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int buf = kSocketBufBytes;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  return fd;
}
}  // namespace

UdpNetwork::UdpNetwork() = default;

UdpNetwork::~UdpNetwork() {
  Flush();
  engine_.reset();  // Ring teardown before the fds it references close.
  for (auto& [ep, state] : endpoints_) {
    if (state.fd >= 0) {
      close(state.fd);
    }
  }
}

void UdpNetwork::set_backend_config(NetBackendConfig config) {
  Flush();
  cfg_ = config;
  ResolveBackend();
}

void UdpNetwork::ResolveBackend() {
  NetBackend want = cfg_.backend;
  if (want == NetBackend::kUring && !UringEngine::Available()) {
    LogUnsupportedOnce("io_uring backend (falling back to mmsg)");
    want = NetBackend::kMmsg;
  }
  if (want != NetBackend::kUring && engine_) {
    ShutdownUring(want);
  }
  if (want == NetBackend::kUring && !engine_) {
    auto engine = std::make_unique<UringEngine>(&recv_pool_, &stats_);
    bool up = engine->Init(
        [this](uint64_t cookie, uint16_t src_port, Bytes payload) {
          auto it = endpoints_.find(EndpointId{cookie});
          if (it == endpoints_.end()) {
            stats_.dropped++;  // Raced a detach; nowhere to deliver.
            return;
          }
          Packet packet;
          auto src = by_port_.find(src_port);
          packet.src = src != by_port_.end() ? src->second : EndpointId{0};
          packet.dst = EndpointId{cookie};
          packet.datagram = std::move(payload);
          if (it->second.deliver) {
            it->second.deliver(packet);
          }
        });
    if (up) {
      engine_ = std::move(engine);
      engine_->SetWakerFd(waker_.fd());
      for (auto& [ep, state] : endpoints_) {
        engine_->AddSocket(state.fd, ep.id);
      }
    } else {
      LogUnsupportedOnce("io_uring backend (falling back to mmsg)");
      want = NetBackend::kMmsg;
    }
  }
  active_ = want;
  stats_.backend_active = static_cast<uint64_t>(active_);
}

void UdpNetwork::ShutdownUring(NetBackend to) {
  // New sends from deliver callbacks firing during the quiesce go to the
  // successor backend's staging, not the dying engine.
  active_ = to;
  stats_.backend_active = static_cast<uint64_t>(active_);
  engine_->DrainSends();
  // Cancel each armed multishot recv and wait for it to terminate before the
  // ring closes — otherwise a datagram the ring pulls into a provided buffer
  // between the final reap and close(ring_fd) is silently dropped.
  for (auto& [ep, state] : endpoints_) {
    engine_->RemoveSocket(state.fd);
  }
  engine_->ReapAndDeliver();  // Endpoints are still attached: deliver it all.
  engine_.reset();
  for (auto& [ep, state] : endpoints_) {
    int zero = 0;
    setsockopt(state.fd, SOL_UDP, UDP_GRO, &zero, sizeof(zero));
  }
}

void UdpNetwork::UringQuiesce(int fd) {
  engine_->RemoveSocket(fd);
  // Deliver datagrams the ring had already pulled off this (or any) socket —
  // the endpoint is still attached, so its deliver callback still resolves.
  engine_->DeliverPending();
}

void UdpNetwork::Attach(EndpointId ep, DeliverFn deliver) {
  Endpoint state;
  state.fd = OpenUdpSocket();
  if (state.fd < 0) {
    ok_ = false;
    return;
  }
  sockaddr_in addr = LoopbackAddr(0);
  if (bind(state.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(state.fd);
    ok_ = false;
    return;
  }
  socklen_t len = sizeof(addr);
  getsockname(state.fd, reinterpret_cast<sockaddr*>(&addr), &len);
  state.port = ntohs(addr.sin_port);
  state.deliver = std::move(deliver);
  by_port_[state.port] = ep;
  int fd = state.fd;
  endpoints_[ep] = std::move(state);
  if (engine_) {
    engine_->AddSocket(fd, ep.id);
  }
}

void UdpNetwork::Detach(EndpointId ep) {
  drain_hooks_.erase(ep);
  auto it = endpoints_.find(ep);
  if (it == endpoints_.end()) {
    return;
  }
  FlushEndpoint(it->second);  // Staged farewells (Leave) still go out.
  if (engine_) {
    // Remove WITHOUT delivering pending receives.  Detach runs from endpoint
    // destructors — often mid-teardown of the whole runtime — so pushing
    // packets up the stack here re-enters app callbacks and counters that may
    // already be destroyed.  Anything the ring pulled for this endpoint drops
    // (the kernel would have dropped its socket queue at close anyway);
    // other endpoints' packets stay queued for the next Poll.  The migration
    // path (Release) still quiesces WITH delivery: there the endpoint lives
    // on elsewhere and the runtime is fully alive.
    engine_->RemoveSocket(it->second.fd);
  }
  by_port_.erase(it->second.port);
  if (it->second.fd >= 0) {
    close(it->second.fd);
  }
  endpoints_.erase(it);
}

void UdpNetwork::AddPeer(EndpointId ep, uint16_t port) {
  if (port == 0 || endpoints_.count(ep) > 0) {
    return;  // Local endpoints already resolve; port 0 means "not bound".
  }
  peers_[ep] = port;
  by_port_[port] = ep;
}

UdpNetwork::ReleasedEndpoint UdpNetwork::Release(EndpointId ep) {
  ReleasedEndpoint out;
  auto it = endpoints_.find(ep);
  if (it == endpoints_.end()) {
    return out;
  }
  FlushEndpoint(it->second);  // Staged sends go out before ownership moves.
  if (engine_) {
    UringQuiesce(it->second.fd);
    // The next owner may not run GRO-aware receives; hand over a socket that
    // delivers plain datagrams (its Adopt re-enables GRO if it runs uring).
    int zero = 0;
    setsockopt(it->second.fd, SOL_UDP, UDP_GRO, &zero, sizeof(zero));
  }
  out.fd = it->second.fd;
  out.port = it->second.port;
  out.deliver = std::move(it->second.deliver);
  if (auto hook = drain_hooks_.find(ep); hook != drain_hooks_.end()) {
    out.drain_hook = std::move(hook->second);
    drain_hooks_.erase(hook);
  }
  endpoints_.erase(it);
  // The endpoint keeps its port on the thief's shard; by_port_ stays for
  // source attribution and the peer entry keeps local senders reaching it.
  peers_[ep] = out.port;
  return out;
}

void UdpNetwork::Adopt(EndpointId ep, ReleasedEndpoint state) {
  if (state.fd < 0) {
    return;
  }
  peers_.erase(ep);
  Endpoint local;
  local.fd = state.fd;
  local.port = state.port;
  local.deliver = std::move(state.deliver);
  by_port_[local.port] = ep;
  if (state.drain_hook) {
    drain_hooks_[ep] = std::move(state.drain_hook);
  }
  int fd = local.fd;
  endpoints_[ep] = std::move(local);  // Next PollWait rebuilds the fd set.
  if (engine_) {
    engine_->AddSocket(fd, ep.id);
  }
}

void UdpNetwork::SetDrainHook(EndpointId ep, std::function<void()> hook) {
  if (hook) {
    drain_hooks_[ep] = std::move(hook);
  } else {
    drain_hooks_.erase(ep);
  }
}

uint16_t UdpNetwork::PortOf(EndpointId ep) const {
  auto it = endpoints_.find(ep);
  return it == endpoints_.end() ? 0 : it->second.port;
}

void UdpNetwork::SendEager(int fd, uint16_t port, const Iovec& gather) {
  // The real scatter-gather send — one iovec entry per part, no flatten, one
  // syscall per datagram.
  std::vector<iovec> iov(gather.part_count());
  for (size_t i = 0; i < gather.part_count(); i++) {
    iov[i].iov_base = const_cast<uint8_t*>(gather.part(i).data());
    iov[i].iov_len = gather.part(i).size();
  }
  sockaddr_in addr = LoopbackAddr(port);
  msghdr msg;
  std::memset(&msg, 0, sizeof(msg));
  msg.msg_name = &addr;
  msg.msg_namelen = sizeof(addr);
  msg.msg_iov = iov.data();
  msg.msg_iovlen = iov.size();
  stats_.send_syscalls++;
  if (sendmsg(fd, &msg, 0) >= 0) {
    stats_.sent++;
    stats_.bytes_sent += gather.size();
  } else {
    stats_.dropped++;
  }
}

void UdpNetwork::Send(EndpointId src, EndpointId dst, const Iovec& gather) {
  auto from = endpoints_.find(src);
  if (from == endpoints_.end()) {
    stats_.dropped++;
    return;
  }
  // Destination resolution: a locally attached endpoint, else a published
  // peer (an endpoint on another shard's UdpNetwork).
  uint16_t port = 0;
  if (auto to = endpoints_.find(dst); to != endpoints_.end()) {
    port = to->second.port;
  } else if (auto peer = peers_.find(dst); peer != peers_.end()) {
    port = peer->second;
  } else {
    stats_.dropped++;
    return;
  }
  CountIfPacked(&stats_, gather);
  if (active_ == NetBackend::kUring) {
    engine_->StageSend(from->second.fd, port, gather);
    if (engine_->staged_sends() >= EffectiveSendBatch()) {
      engine_->SubmitSends();  // Submit, don't wait: Flush() is the barrier.
    }
    return;
  }
  if (active_ == NetBackend::kMmsg) {
    Enqueue(from->second, port, gather);
    return;
  }
  SendEager(from->second.fd, port, gather);
}

void UdpNetwork::Enqueue(Endpoint& from, uint16_t port, const Iovec& gather) {
  from.ring.push_back(Staged{port, gather});
  stats_.batched_datagrams++;
  if (from.ring.size() >= EffectiveSendBatch()) {
    FlushEndpoint(from);
  }
}

void UdpNetwork::FlushEndpoint(Endpoint& ep) {
  if (ep.ring.empty()) {
    return;
  }
  size_t n = ep.ring.size();
  stats_.max_send_batch = std::max<uint64_t>(stats_.max_send_batch, n);
  if (n > 1) {
    stats_.send_batches++;
  }
  // Per-message iovec arrays live in one flat vector; `starts` indexes it.
  std::vector<iovec> iov;
  std::vector<size_t> starts(n);
  std::vector<sockaddr_in> addrs(n);
  for (size_t i = 0; i < n; i++) {
    starts[i] = iov.size();
    const Iovec& gather = ep.ring[i].gather;
    for (size_t p = 0; p < gather.part_count(); p++) {
      iov.push_back(iovec{const_cast<uint8_t*>(gather.part(p).data()),
                          gather.part(p).size()});
    }
    addrs[i] = LoopbackAddr(ep.ring[i].port);
  }
  std::vector<mmsghdr> msgs(n);
  for (size_t i = 0; i < n; i++) {
    std::memset(&msgs[i], 0, sizeof(msgs[i]));
    msgs[i].msg_hdr.msg_name = &addrs[i];
    msgs[i].msg_hdr.msg_namelen = sizeof(addrs[i]);
    msgs[i].msg_hdr.msg_iov = iov.data() + starts[i];
    msgs[i].msg_hdr.msg_iovlen =
        (i + 1 < n ? starts[i + 1] : iov.size()) - starts[i];
  }
  // sendmmsg may transmit a prefix; keep going until everything was handed to
  // the kernel or a real error stops us.
  size_t done = 0;
  while (done < n) {
    stats_.send_syscalls++;
    int sent = sendmmsg(ep.fd, msgs.data() + done,
                        static_cast<unsigned>(n - done), 0);
    if (sent <= 0) {
      stats_.dropped += n - done;
      break;
    }
    for (size_t i = done; i < done + static_cast<size_t>(sent); i++) {
      stats_.sent++;
      stats_.bytes_sent += ep.ring[i].gather.size();
    }
    done += static_cast<size_t>(sent);
  }
  ep.ring.clear();
}

void UdpNetwork::Flush() {
  for (auto& [ep, state] : endpoints_) {
    FlushEndpoint(state);
  }
  if (engine_) {
    // Wait for the send CQEs: on return the wire (and the sent/bytes
    // counters) are caught up, matching the synchronous backends.
    engine_->DrainSends();
  }
}

void UdpNetwork::ScheduleTimer(VTime delay, TimerFn fn) {
  timers_.Schedule(NowNanos() + delay, std::move(fn));
}

size_t UdpNetwork::DrainOneEager(Endpoint& state, EndpointId ep) {
  size_t events = 0;
  uint8_t buf[kMaxDatagram];
  while (true) {
    sockaddr_in from;
    socklen_t from_len = sizeof(from);
    stats_.recv_syscalls++;
    ssize_t n = recvfrom(state.fd, buf, sizeof(buf), 0,
                         reinterpret_cast<sockaddr*>(&from), &from_len);
    if (n < 0) {
      break;  // EWOULDBLOCK: drained.
    }
    Packet packet;
    auto src = by_port_.find(ntohs(from.sin_port));
    packet.src = src != by_port_.end() ? src->second : EndpointId{0};
    packet.dst = ep;
    packet.datagram = Bytes::Copy(buf, static_cast<size_t>(n));
    stats_.delivered++;
    if (state.deliver) {
      state.deliver(packet);
    }
    events++;
  }
  return events;
}

size_t UdpNetwork::DrainOneBatched(Endpoint& state, EndpointId ep) {
  // Pooled zero-copy receive: the kernel writes each datagram into a pool
  // chunk and the delivered Bytes slice aliases it — no post-recv copy.  A
  // chunk whose slice was handed out is replaced (the consumer's last ref
  // recycles it); untouched chunks are reused for the next syscall.
  size_t events = 0;
  size_t vlen = std::max<size_t>(1, cfg_.batch);
  if (recv_bufs_.size() < vlen) {
    recv_bufs_.resize(vlen);
  }
  std::vector<sockaddr_in> addrs(vlen);
  std::vector<iovec> iov(vlen);
  std::vector<mmsghdr> msgs(vlen);
  while (true) {
    for (size_t i = 0; i < vlen; i++) {
      if (recv_bufs_[i].empty()) {
        recv_bufs_[i] = recv_pool_.Allocate(kMaxDatagram);
      }
      iov[i] = iovec{recv_bufs_[i].MutableData(), kMaxDatagram};
    }
    for (size_t i = 0; i < vlen; i++) {
      std::memset(&msgs[i], 0, sizeof(msgs[i]));
      msgs[i].msg_hdr.msg_name = &addrs[i];
      msgs[i].msg_hdr.msg_namelen = sizeof(addrs[i]);
      msgs[i].msg_hdr.msg_iov = &iov[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    stats_.recv_syscalls++;
    int n = recvmmsg(state.fd, msgs.data(), static_cast<unsigned>(vlen), 0,
                     nullptr);
    if (n <= 0) {
      break;
    }
    size_t got = static_cast<size_t>(n);
    for (size_t i = 0; i < got; i++) {
      Packet packet;
      auto src = by_port_.find(ntohs(addrs[i].sin_port));
      packet.src = src != by_port_.end() ? src->second : EndpointId{0};
      packet.dst = ep;
      packet.datagram = recv_bufs_[i].Slice(0, msgs[i].msg_len);
      recv_bufs_[i] = Bytes();  // Chunk now owned by the delivered slice.
      stats_.delivered++;
      if (state.deliver) {
        state.deliver(packet);
      }
      events++;
    }
    if (got < vlen) {
      break;  // Socket drained.
    }
  }
  return events;
}

size_t UdpNetwork::DrainSockets() {
  if (active_ == NetBackend::kUring) {
    if (!engine_->recv_broken()) {
      return engine_->ReapAndDeliver();
    }
    // A multishot recv died with a terminal error (kernel accepted the ring
    // but not IORING_RECV_MULTISHOT, say): the uring receive path is dead, so
    // fall back to mmsg instead of spinning on re-arms that never deliver.
    LogUnsupportedOnce("io_uring multishot recv (falling back to mmsg)");
    ShutdownUring(NetBackend::kMmsg);
  }
  size_t events = 0;
  for (auto& [ep, state] : endpoints_) {
    events += active_ == NetBackend::kMmsg ? DrainOneBatched(state, ep)
                                           : DrainOneEager(state, ep);
  }
  return events;
}

size_t UdpNetwork::Poll() {
  size_t drained = DrainSockets();
  if (drained > 0) {
    // End-of-drain boundary: endpoints flush response traffic their deliver
    // callbacks staged (packed messages with no later timer tick would
    // otherwise never leave).  Hooks may stage into our send rings.
    for (auto& [ep, hook] : drain_hooks_) {
      hook();
    }
  }
  size_t timers = timers_.RunDue(NowNanos());
  if (timers > 0) {
    ENS_TRACE(kTimerFire, -1, timers, 0);
  }
  // The wire is caught up on Poll() exit: everything staged by deliveries,
  // drain hooks, or timer callbacks goes out before we return.
  Flush();
  return drained + timers;
}

void UdpNetwork::IdleWait(VTime max_wait) {
  // Block until traffic arrives, another thread calls Wakeup(), the next
  // timer is due, or `max_wait` passes — whichever is first.
  VTime wait = std::min(max_wait, timers_.NanosUntilNext(NowNanos()));
  if (active_ == NetBackend::kUring) {
    // The multishot recvs and the ring-registered waker poll make every wake
    // source a CQE; the sleep is one io_uring_enter with an EXT_ARG timeout.
    engine_->WaitCompletions(static_cast<uint64_t>(wait));
    waker_.Drain();
    return;
  }
  std::vector<pollfd> fds;
  for (const auto& [ep, state] : endpoints_) {
    fds.push_back(pollfd{state.fd, POLLIN, 0});
  }
  if (waker_.fd() >= 0) {
    fds.push_back(pollfd{waker_.fd(), POLLIN, 0});
  }
  int timeout_ms = static_cast<int>((wait + 999'999) / 1'000'000);
  if (!fds.empty()) {
    ::poll(fds.data(), fds.size(), timeout_ms);
  }
  waker_.Drain();
}

size_t UdpNetwork::PollWait(VTime max_wait) {
  size_t events = Poll();
  if (events > 0) {
    return events;
  }
  IdleWait(max_wait);
  return Poll();
}

size_t UdpNetwork::PollFor(VTime duration) {
  size_t events = 0;
  VTime deadline = NowNanos() + duration;
  while (NowNanos() < deadline) {
    // Sleep at most ~1ms per iteration (the historical timer tick cadence).
    events += PollWait(std::min<VTime>(Millis(1), deadline - NowNanos()));
    if (endpoints_.empty()) {
      break;
    }
  }
  events += Poll();
  return events;
}

}  // namespace ensemble
