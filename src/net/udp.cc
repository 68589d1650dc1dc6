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
#include "src/obs/stats_adapters.h"
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

void BuildSendMsg(uint16_t port, const Iovec& gather, sockaddr_in* addr, iovec* iov,
                  msghdr* msg) {
  *addr = LoopbackAddr(port);
  for (size_t i = 0; i < gather.part_count(); i++) {
    iov[i] = iovec{const_cast<uint8_t*>(gather.part(i).data()), gather.part(i).size()};
  }
  std::memset(msg, 0, sizeof(*msg));
  msg->msg_name = addr;
  msg->msg_namelen = sizeof(*addr);
  msg->msg_iov = iov;
  msg->msg_iovlen = gather.part_count();
}

UdpNetwork::UdpNetwork() { RebuildPollFds(); }

UdpNetwork::~UdpNetwork() {
  Flush();
  engine_.reset();  // Ring teardown before the fds it references close.
  for (auto& [ep, state] : endpoints_) {
    close(state.fd);
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
    bool up = engine->Init([this](uint64_t cookie, uint16_t src_port, Bytes payload) {
      auto it = endpoints_.find(EndpointId{cookie});
      if (it == endpoints_.end()) {
        stats_.dropped++;  // Raced a detach; nowhere to deliver.
        return;
      }
      DeliverDatagram(it->first, it->second.deliver, src_port, std::move(payload));
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
  uint16_t port = ntohs(addr.sin_port);
  state.deliver = std::move(deliver);
  ports_[ep] = port;
  by_port_[port] = ep;
  int fd = state.fd;
  endpoints_[ep] = std::move(state);
  RebuildPollFds();
  if (engine_) {
    engine_->AddSocket(fd, ep.id);
  }
}

void UdpNetwork::Detach(EndpointId ep) {
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
    // on elsewhere and the runtime is fully alive.  RemoveSocket submits
    // the sends just queued and waits for them.
    engine_->RemoveSocket(it->second.fd);
  }
  // The socket closes, so its port stops naming this endpoint.
  if (auto port = ports_.find(ep); port != ports_.end()) {
    by_port_.erase(port->second);
    ports_.erase(port);
  }
  close(it->second.fd);
  endpoints_.erase(it);
  RebuildPollFds();
}

void UdpNetwork::AddPeer(EndpointId ep, uint16_t port) {
  if (port == 0 || endpoints_.count(ep) > 0) {
    return;  // Local endpoints already resolve; port 0 means "not bound".
  }
  ports_[ep] = port;
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
    // Deliver what the ring already pulled off this socket while the
    // endpoint is still attached here.
    engine_->RemoveSocket(it->second.fd);
    engine_->DeliverPending();
    // The next owner may not run GRO-aware receives; hand over a socket that
    // delivers plain datagrams (its Adopt re-enables GRO if it runs uring).
    int zero = 0;
    setsockopt(it->second.fd, SOL_UDP, UDP_GRO, &zero, sizeof(zero));
  }
  out.fd = it->second.fd;
  out.valid = true;
  out.deliver = std::move(it->second.deliver);
  out.drain_hook = std::move(it->second.drain_hook);
  endpoints_.erase(it);
  RebuildPollFds();
  return out;
}

void UdpNetwork::Adopt(EndpointId ep, ReleasedEndpoint state) {
  if (!state.valid) {
    return;
  }
  Endpoint& local = endpoints_[ep];
  local.fd = state.fd;
  local.deliver = std::move(state.deliver);
  local.drain_hook = std::move(state.drain_hook);
  RebuildPollFds();
  if (engine_) {
    engine_->AddSocket(state.fd, ep.id);
  }
}

void UdpNetwork::SetDrainHook(EndpointId ep, std::function<void()> hook) {
  if (auto it = endpoints_.find(ep); it != endpoints_.end()) {
    it->second.drain_hook = std::move(hook);
  }
}

uint16_t UdpNetwork::PortOf(EndpointId ep) const {
  auto it = ports_.find(ep);
  return it == ports_.end() ? 0 : it->second;
}

void UdpNetwork::Send(EndpointId src, EndpointId dst, const Iovec& gather) {
  auto from = endpoints_.find(src);
  auto to = ports_.find(dst);
  if (from == endpoints_.end() || to == ports_.end()) {
    stats_.dropped++;
    return;
  }
  CountIfPacked(&stats_, gather);
  if (active_ == NetBackend::kEager) {
    SendEager(from->second.fd, to->second, gather);
  } else {
    Stage(from->second, to->second, gather);
  }
}

void UdpNetwork::SendEager(int fd, uint16_t port, const Iovec& gather) {
  // The real scatter-gather send — one iovec entry per part, no flatten, one
  // syscall per datagram.
  if (send_iov_.size() < gather.part_count()) {
    send_iov_.resize(gather.part_count());
  }
  sockaddr_in addr;
  msghdr msg;
  BuildSendMsg(port, gather, &addr, send_iov_.data(), &msg);
  stats_.send_syscalls++;
  if (sendmsg(fd, &msg, 0) >= 0) {
    stats_.sent++;
    stats_.bytes_sent += gather.size();
  } else {
    stats_.dropped++;
  }
}

void UdpNetwork::Stage(Endpoint& from, uint16_t port, const Iovec& gather) {
  if (from.staged == from.stage.size()) {
    from.stage.emplace_back();
  }
  StagedSend& slot = from.stage[from.staged++];
  slot.port = port;
  slot.gather = gather;  // Refcounts only; the slot's part array is reused.
  staged_total_++;
  stats_.batched_datagrams++;
  if (active_ == NetBackend::kUring) {
    if (staged_total_ >= EffectiveSendBatch()) {
      FlushStages();
      engine_->SubmitSends();  // Submit, don't wait: Flush() is the barrier.
    }
  } else if (from.staged >= EffectiveSendBatch()) {
    FlushEndpoint(from);
  }
}

void UdpNetwork::FlushEndpoint(Endpoint& ep) {
  size_t n = ep.staged;
  if (n == 0) {
    return;
  }
  stats_.max_send_batch = std::max<uint64_t>(stats_.max_send_batch, n);
  if (n > 1) {
    stats_.send_batches++;
  }
  if (active_ == NetBackend::kUring) {
    engine_->QueueSends(ep.fd, ep.stage.data(), n);
  } else {
    SendBatch(ep.fd, ep.stage.data(), n);
  }
  for (size_t i = 0; i < n; i++) {
    ep.stage[i].gather.Clear();  // Drop the refs, keep the part array.
  }
  ep.staged = 0;
  staged_total_ -= n;
}

void UdpNetwork::FlushStages() {
  for (auto& [ep, state] : endpoints_) {
    FlushEndpoint(state);
  }
}

void UdpNetwork::SendBatch(int fd, const StagedSend* stage, size_t n) {
  size_t parts = 0;
  for (size_t i = 0; i < n; i++) {
    parts += stage[i].gather.part_count();
  }
  if (send_iov_.size() < parts) {
    send_iov_.resize(parts);
  }
  if (send_msgs_.size() < n) {
    send_msgs_.resize(n);
    send_addrs_.resize(n);
  }
  iovec* iov = send_iov_.data();
  for (size_t i = 0; i < n; i++) {
    BuildSendMsg(stage[i].port, stage[i].gather, &send_addrs_[i], iov,
                 &send_msgs_[i].msg_hdr);
    iov += stage[i].gather.part_count();
  }
  // sendmmsg may transmit a prefix; keep going until everything was handed to
  // the kernel or a real error stops us.
  size_t done = 0;
  while (done < n) {
    stats_.send_syscalls++;
    int sent = sendmmsg(fd, send_msgs_.data() + done, static_cast<unsigned>(n - done), 0);
    if (sent <= 0) {
      stats_.dropped += n - done;
      break;
    }
    for (size_t i = done; i < done + static_cast<size_t>(sent); i++) {
      stats_.sent++;
      stats_.bytes_sent += stage[i].gather.size();
    }
    done += static_cast<size_t>(sent);
  }
}

void UdpNetwork::Flush() {
  FlushStages();
  if (engine_) {
    // Wait for the send CQEs: on return the wire (and the sent/bytes
    // counters) are caught up, matching the synchronous backends.
    engine_->DrainSends();
  }
}

void UdpNetwork::DeliverDatagram(EndpointId dst, const DeliverFn& deliver, uint16_t src_port,
                                 Bytes datagram) {
  Packet packet;
  auto src = by_port_.find(src_port);
  packet.src = src != by_port_.end() ? src->second : EndpointId{0};
  packet.dst = dst;
  packet.datagram = std::move(datagram);
  stats_.delivered++;
  if (deliver) {
    deliver(packet);
  }
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
    DeliverDatagram(ep, state.deliver, ntohs(from.sin_port),
                    Bytes::Copy(buf, static_cast<size_t>(n)));
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
  if (recv_msgs_.size() < vlen) {
    recv_bufs_.resize(vlen);
    recv_addrs_.resize(vlen);
    recv_iov_.resize(vlen);
    recv_msgs_.resize(vlen);
  }
  std::vector<mmsghdr>& msgs = recv_msgs_;
  while (true) {
    for (size_t i = 0; i < vlen; i++) {
      if (recv_bufs_[i].empty()) {
        recv_bufs_[i] = recv_pool_.Allocate(kMaxDatagram);
      }
      recv_iov_[i] = iovec{recv_bufs_[i].MutableData(), kMaxDatagram};
      std::memset(&msgs[i], 0, sizeof(msgs[i]));
      msgs[i].msg_hdr.msg_name = &recv_addrs_[i];
      msgs[i].msg_hdr.msg_namelen = sizeof(recv_addrs_[i]);
      msgs[i].msg_hdr.msg_iov = &recv_iov_[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    stats_.recv_syscalls++;
    int n = recvmmsg(state.fd, msgs.data(), static_cast<unsigned>(vlen), 0, nullptr);
    if (n <= 0) {
      break;
    }
    size_t got = static_cast<size_t>(n);
    for (size_t i = 0; i < got; i++) {
      Bytes datagram = recv_bufs_[i].Slice(0, msgs[i].msg_len);
      recv_bufs_[i] = Bytes();  // Chunk now owned by the delivered slice.
      DeliverDatagram(ep, state.deliver, ntohs(recv_addrs_[i].sin_port), std::move(datagram));
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
    for (auto& [ep, state] : endpoints_) {
      if (state.drain_hook) {
        state.drain_hook();
      }
    }
  }
  size_t timers = RunDueTimers();
  // The wire is caught up on Poll() exit: everything staged by deliveries,
  // drain hooks, or timer callbacks goes out before we return.
  Flush();
  return drained + timers;
}

void UdpNetwork::IdleWait(VTime max_wait) {
  // Block until traffic arrives, another thread pokes the waker, the next
  // timer is due, or `max_wait` passes — whichever is first.
  VTime wait = IdleBudget(max_wait);
  if (active_ == NetBackend::kUring) {
    // The multishot recvs and the ring-registered waker poll make every wake
    // source a CQE; the sleep is one io_uring_enter with an EXT_ARG timeout.
    engine_->WaitCompletions(static_cast<uint64_t>(wait));
    waker_.Drain();
    return;
  }
  int timeout_ms = static_cast<int>((wait + 999'999) / 1'000'000);
  if (!poll_fds_.empty()) {
    ::poll(poll_fds_.data(), poll_fds_.size(), timeout_ms);
  }
  waker_.Drain();
}

void UdpNetwork::RegisterMetrics(obs::MetricsRegistry& reg, const std::string& tag) {
  ShardNetwork::RegisterMetrics(reg, tag);
  obs::RegisterPoolStats(reg, &recv_pool_);
}

void UdpNetwork::RebuildPollFds() {
  poll_fds_.clear();
  for (const auto& [ep, state] : endpoints_) {
    poll_fds_.push_back(pollfd{state.fd, POLLIN, 0});
  }
  if (waker_.fd() >= 0) {
    poll_fds_.push_back(pollfd{waker_.fd(), POLLIN, 0});
  }
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
