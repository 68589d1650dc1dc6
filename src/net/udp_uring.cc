#include "src/net/udp_uring.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstring>

#ifndef UDP_SEGMENT
#define UDP_SEGMENT 103
#endif
#ifndef UDP_GRO
#define UDP_GRO 104
#endif
#ifndef SOL_UDP
#define SOL_UDP 17
#endif
#ifndef CMSG_ALIGN
#define CMSG_ALIGN(len) (((len) + sizeof(size_t) - 1) & ~(sizeof(size_t) - 1))
#endif

#if !defined(ENSEMBLE_URING_OFF)

#include <linux/io_uring.h>
#include <netinet/udp.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>

#include "src/util/logging.h"

namespace ensemble {

namespace {

// Raw syscall wrappers (no liburing in the image; the kernel header is all we
// need).
int SysUringSetup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(syscall(__NR_io_uring_setup, entries, p));
}
int SysUringEnter(int fd, unsigned to_submit, unsigned min_complete,
                  unsigned flags, const void* arg, size_t argsz) {
  return static_cast<int>(
      syscall(__NR_io_uring_enter, fd, to_submit, min_complete, flags, arg, argsz));
}
int SysUringRegister(int fd, unsigned opcode, const void* arg, unsigned nr_args) {
  return static_cast<int>(syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

// user_data encoding: kind tag in the top byte, payload (socket index / send
// slot index) below.
constexpr uint64_t kKindShift = 56;
enum UdKind : uint64_t {
  kUdRecv = 1,     // payload = sockets_ index
  kUdSend = 2,     // payload = slots_ index
  kUdWaker = 3,    // oneshot poll on the waker eventfd
  kUdCancel = 4,   // ASYNC_CANCEL of a recv (payload = sockets_ index)
  kUdProvide = 5,  // PROVIDE_BUFFERS re-provision (payload = bid)
};
constexpr uint64_t MakeUd(UdKind kind, uint64_t payload) {
  return (static_cast<uint64_t>(kind) << kKindShift) | payload;
}
constexpr UdKind UdKindOf(uint64_t ud) {
  return static_cast<UdKind>(ud >> kKindShift);
}
constexpr uint64_t UdPayload(uint64_t ud) {
  return ud & ((uint64_t{1} << kKindShift) - 1);
}

static_assert(sizeof(RecvmsgOut) == sizeof(io_uring_recvmsg_out) &&
                  offsetof(RecvmsgOut, payloadlen) == offsetof(io_uring_recvmsg_out, payloadlen) &&
                  offsetof(RecvmsgOut, flags) == offsetof(io_uring_recvmsg_out, flags),
              "RecvmsgOut must mirror the kernel's io_uring_recvmsg_out");

// Ring geometry: submission ring depth (also the number of send slots) and
// provided receive-buffer slots, one pool chunk each.
constexpr unsigned kSqEntries = 256;
constexpr unsigned kRecvBuffers = 32;

// GSO run limits: the coalesced payload must fit one super-datagram (the IP
// length field bounds it) and the kernel caps segments at UDP_MAX_SEGMENTS
// (64); stay comfortably inside both.
constexpr size_t kMaxGsoSegs = 60;
constexpr size_t kMaxGsoBytes = 60000;

// Per-request control space: one UDP_SEGMENT (send) or UDP_GRO (recv) cmsg.
constexpr size_t kCmsgSpace = 64;

std::atomic<int> g_forced_available{-1};

}  // namespace

// ---- Nested types ----------------------------------------------------------

// In-flight send state: everything the kernel may still read (msghdr, iovecs,
// address, cmsg) plus the refs keeping the parts alive — the staged parts
// themselves, or a slice of the slot's GSO buffer.  Retired by the send CQE;
// every member keeps its storage for the slot's next send.
struct UringEngine::SendSlot {
  int fd = -1;
  msghdr hdr;
  sockaddr_in addr;
  alignas(8) char cmsg[kCmsgSpace];
  std::vector<iovec> iov;
  Iovec refs;
  Bytes gso_buf;                // GSO path: the flattened run, kMaxGsoBytes.
  uint32_t datagrams = 0;       // Wire datagrams this slot carries.
  uint32_t bytes = 0;           // Payload bytes across them.
};

struct UringEngine::SocketRec {
  int fd = -1;
  uint64_t cookie = 0;
  // The msghdr the multishot recv was armed with.  The kernel copies it at
  // submission, but the configured name/control lengths define the in-buffer
  // layout of every CQE it produces, so they are kept here for parsing.
  msghdr hdr;
  uint32_t hdr_name_len = 0;
  uint32_t hdr_ctrl_len = 0;
  bool armed = false;      // Multishot recv SQE outstanding.
  bool want_rearm = false; // Terminated (ENOBUFS etc.); re-arm next pass.
  bool removed = false;    // Slot retired; index stays (user_data stability).
};

struct UringEngine::PendingRecv {
  uint64_t cookie;
  uint16_t src_port;
  Bytes payload;
};

// ---- Availability ----------------------------------------------------------

bool UringEngine::Available() {
  int forced = g_forced_available.load(std::memory_order_relaxed);
  if (forced >= 0) {
    return forced != 0;
  }
  static const bool kProbe = [] {
    io_uring_params p;
    std::memset(&p, 0, sizeof(p));
    int fd = SysUringSetup(4, &p);
    if (fd < 0) {
      return false;
    }
    // The datapath needs EXT_ARG timed waits (5.11+) plus multishot RECVMSG
    // (6.0+).  FEAT_EXT_ARG alone passes on 5.11-5.19 kernels where every
    // multishot recv SQE would -EINVAL, so also ask the opcode probe for
    // IORING_OP_SEND_ZC — it landed in the same release as
    // IORING_RECV_MULTISHOT and, unlike a request flag, is probeable.
    bool ok = (p.features & IORING_FEAT_EXT_ARG) != 0;
    if (ok) {
      constexpr unsigned kProbeOps = IORING_OP_SEND_ZC + 1;
      alignas(io_uring_probe) uint8_t
          buf[sizeof(io_uring_probe) + kProbeOps * sizeof(io_uring_probe_op)];
      std::memset(buf, 0, sizeof(buf));
      auto* probe = reinterpret_cast<io_uring_probe*>(buf);
      ok = SysUringRegister(fd, IORING_REGISTER_PROBE, probe, kProbeOps) >= 0 &&
           probe->last_op >= IORING_OP_SEND_ZC &&
           (probe->ops[IORING_OP_SEND_ZC].flags & IO_URING_OP_SUPPORTED) != 0;
    }
    close(fd);
    return ok;
  }();
  return kProbe;
}

void UringEngine::ForceAvailabilityForTest(int forced) {
  g_forced_available.store(forced, std::memory_order_relaxed);
}

// ---- Setup / teardown ------------------------------------------------------

UringEngine::~UringEngine() { TeardownRing(); }

bool UringEngine::Init(RecvFn deliver) {
  deliver_ = std::move(deliver);
  if (!Available() || !SetupRing()) {
    TeardownRing();
    return false;
  }
  slots_.resize(kSqEntries);
  free_slots_.reserve(kSqEntries);
  for (uint32_t i = 0; i < kSqEntries; i++) {
    free_slots_.push_back(kSqEntries - 1 - i);  // Pop from the back → 0 first.
  }
  // Seed provided-buffer group 0 with one pool chunk per slot.
  ring_bufs_.resize(kRecvBuffers);
  need_provide_.reserve(ring_bufs_.size());
  for (uint16_t bid = 0; bid < ring_bufs_.size(); bid++) {
    QueueProvide(bid);
  }
  FlushProvides();
  SubmitQueued();
  return true;
}

bool UringEngine::SetupRing() {
  io_uring_params p;
  std::memset(&p, 0, sizeof(p));
  p.flags = IORING_SETUP_CQSIZE;
  p.cq_entries = std::max(kSqEntries, kRecvBuffers) * 4;
  ring_fd_ = SysUringSetup(kSqEntries, &p);
  if (ring_fd_ < 0) {
    return false;
  }
  if ((p.features & IORING_FEAT_SINGLE_MMAP) == 0 ||
      (p.features & IORING_FEAT_NODROP) == 0 ||
      (p.features & IORING_FEAT_EXT_ARG) == 0) {
    return false;  // Pre-5.11 kernel: let the mmsg path handle it.
  }
  sq_ring_sz_ = p.sq_off.array + p.sq_entries * sizeof(unsigned);
  cq_ring_sz_ = p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
  size_t ring_sz = std::max(sq_ring_sz_, cq_ring_sz_);
  sq_ring_ = mmap(nullptr, ring_sz, PROT_READ | PROT_WRITE,
                  MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
  if (sq_ring_ == MAP_FAILED) {
    sq_ring_ = nullptr;
    return false;
  }
  sq_ring_sz_ = ring_sz;
  cq_ring_ = sq_ring_;  // FEAT_SINGLE_MMAP.
  sqes_sz_ = p.sq_entries * sizeof(io_uring_sqe);
  sqes_ = mmap(nullptr, sqes_sz_, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES);
  if (sqes_ == MAP_FAILED) {
    sqes_ = nullptr;
    return false;
  }
  auto* sq_base = static_cast<uint8_t*>(sq_ring_);
  sq_head_ = reinterpret_cast<unsigned*>(sq_base + p.sq_off.head);
  sq_tail_ = reinterpret_cast<unsigned*>(sq_base + p.sq_off.tail);
  sq_mask_ = *reinterpret_cast<unsigned*>(sq_base + p.sq_off.ring_mask);
  sq_array_ = reinterpret_cast<unsigned*>(sq_base + p.sq_off.array);
  sq_flags_ = reinterpret_cast<unsigned*>(sq_base + p.sq_off.flags);
  auto* cq_base = static_cast<uint8_t*>(cq_ring_);
  cq_head_ = reinterpret_cast<unsigned*>(cq_base + p.cq_off.head);
  cq_tail_ = reinterpret_cast<unsigned*>(cq_base + p.cq_off.tail);
  cq_mask_ = *reinterpret_cast<unsigned*>(cq_base + p.cq_off.ring_mask);
  cqes_ = cq_base + p.cq_off.cqes;
  sq_entries_ = p.sq_entries;
  cq_entries_ = p.cq_entries;
  // Identity-map the SQ index array once; GetSqe then only writes SQEs.
  for (unsigned i = 0; i < sq_entries_; i++) {
    sq_array_[i] = i;
  }
  return true;
}

void UringEngine::TeardownRing() {
  if (sqes_ != nullptr) {
    munmap(sqes_, sqes_sz_);
    sqes_ = nullptr;
  }
  if (sq_ring_ != nullptr) {
    munmap(sq_ring_, sq_ring_sz_);
    sq_ring_ = nullptr;
  }
  if (ring_fd_ >= 0) {
    close(ring_fd_);  // Tears down in-flight requests with the ring.
    ring_fd_ = -1;
  }
  ring_bufs_.clear();
}

// Marks `bid` as needing a fresh pool chunk.  Deferred to FlushProvides so a
// CQE handler never writes SQEs mid-reap.
void UringEngine::QueueProvide(uint16_t bid) { need_provide_.push_back(bid); }

// Hands each queued slot a fresh pool chunk via a PROVIDE_BUFFERS SQE (which
// rides the next submission — no extra syscall).  The previous chunk (if any)
// recycles through the pool once the last delivered slice drops its ref —
// the same ownership rule as the recvmmsg pooled path.
void UringEngine::FlushProvides() {
  for (uint16_t bid : need_provide_) {
    Bytes chunk = pool_->Allocate(pool_->chunk_size());
    auto* sqe = static_cast<io_uring_sqe*>(GetSqe());
    sqe->opcode = IORING_OP_PROVIDE_BUFFERS;
    sqe->fd = 1;  // One buffer per SQE: each bid carries a distinct chunk.
    sqe->addr = reinterpret_cast<uint64_t>(chunk.MutableData());
    sqe->len = static_cast<uint32_t>(pool_->chunk_size());
    sqe->buf_group = 0;
    sqe->off = bid;
    sqe->user_data = MakeUd(kUdProvide, bid);
    ring_bufs_[bid] = std::move(chunk);
    stats_->bufring_refills++;
  }
  need_provide_.clear();
}

// ---- SQE plumbing ----------------------------------------------------------

int UringEngine::Enter(unsigned to_submit, unsigned min_complete, unsigned flags,
                       const void* arg, size_t argsz) {
  stats_->uring_enters++;
  int ret;
  do {
    ret = SysUringEnter(ring_fd_, to_submit, min_complete, flags, arg, argsz);
  } while (ret < 0 && errno == EINTR);
  return ret;
}

void* UringEngine::GetSqe() {
  unsigned head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
  unsigned tail = *sq_tail_;
  if (tail - head >= sq_entries_) {
    // SQ full: push what we have and retire completions to make room.
    SubmitQueued();
    head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
    while (tail - head >= sq_entries_) {
      Enter(0, 1, IORING_ENTER_GETEVENTS, nullptr, 0);
      ProcessCompletions();
      head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
    }
  }
  auto* sqe = static_cast<io_uring_sqe*>(sqes_) + (tail & sq_mask_);
  std::memset(sqe, 0, sizeof(*sqe));
  __atomic_store_n(sq_tail_, tail + 1, __ATOMIC_RELEASE);
  sqes_queued_++;
  return sqe;
}

int UringEngine::SubmitQueued(unsigned min_complete, bool getevents) {
  unsigned n = sqes_queued_;
  if (n == 0 && !getevents) {
    return 0;
  }
  sqes_queued_ = 0;
  unsigned flags = getevents ? IORING_ENTER_GETEVENTS : 0;
  int ret = Enter(n, min_complete, flags, nullptr, 0);
  // EBUSY: the CQ overflow list is non-empty (FEAT_NODROP) and nothing was
  // consumed; reap to make room and retry.  ReapCqes (not ProcessCompletions)
  // so no re-arm SQEs are written mid-retry.
  for (int attempt = 0; ret < 0 && errno == EBUSY && attempt < 8; attempt++) {
    ReapCqes();
    ret = Enter(n, min_complete, flags, nullptr, 0);
  }
  unsigned consumed = ret >= 0 ? std::min(static_cast<unsigned>(ret), n) : 0;
  stats_->uring_sqes += consumed;
  if (consumed > 1) {
    stats_->uring_sqe_batches++;
  }
  // Anything the kernel did not consume stays in the ring between its sq head
  // and our tail; restore the count so the next submit covers it — otherwise
  // those SQEs are stranded and DrainSends waits on CQEs that never arrive.
  sqes_queued_ += n - consumed;
  if (ret < 0) {
    ENS_LOG(kWarn) << "io_uring_enter failed: " << std::strerror(errno);
  }
  return ret;
}

// ---- Receive arming --------------------------------------------------------

bool UringEngine::AddSocket(int fd, uint64_t cookie) {
  if (!ok()) {
    return false;
  }
  int one = 1;
  setsockopt(fd, SOL_UDP, UDP_GRO, &one, sizeof(one));  // Best-effort.
  size_t index;
  auto it = sock_by_fd_.find(fd);
  if (it != sock_by_fd_.end()) {
    // Double-add of a live fd: refresh the cookie but never arm a second
    // multishot recv on the same user_data.
    index = it->second;
    SocketRec& live = sockets_[index];
    live.cookie = cookie;
    live.removed = false;
    if (live.armed) {
      return true;
    }
  } else if (!free_sock_slots_.empty()) {
    // Reuse a retired slot (RemoveSocket waited for its recv to terminate, so
    // no in-flight CQE still carries this index).
    index = free_sock_slots_.back();
    free_sock_slots_.pop_back();
    sock_by_fd_[fd] = index;
  } else {
    index = sockets_.size();
    sockets_.emplace_back();
    sock_by_fd_[fd] = index;
  }
  SocketRec& rec = sockets_[index];
  rec.fd = fd;
  rec.cookie = cookie;
  rec.removed = false;
  rec.want_rearm = false;
  ArmRecv(index);
  SubmitQueued();
  return true;
}

void UringEngine::ArmRecv(size_t sock_index) {
  SocketRec& rec = sockets_[sock_index];
  auto* sqe = static_cast<io_uring_sqe*>(GetSqe());
  // Multishot RECVMSG with buffer selection: the kernel picks a registered
  // buffer per datagram and lays out io_uring_recvmsg_out + name + control +
  // payload inside it.  One SQE keeps producing CQEs until cancelled or the
  // buffer ring runs dry.
  rec.hdr_name_len = sizeof(sockaddr_in);
  rec.hdr_ctrl_len = kCmsgSpace;
  std::memset(&rec.hdr, 0, sizeof(rec.hdr));
  rec.hdr.msg_namelen = rec.hdr_name_len;
  rec.hdr.msg_controllen = rec.hdr_ctrl_len;
  sqe->opcode = IORING_OP_RECVMSG;
  sqe->fd = rec.fd;
  sqe->addr = reinterpret_cast<uint64_t>(&rec.hdr);
  sqe->ioprio = IORING_RECV_MULTISHOT;
  sqe->flags = IOSQE_BUFFER_SELECT;
  sqe->buf_group = 0;
  sqe->user_data = MakeUd(kUdRecv, sock_index);
  rec.armed = true;
  rec.want_rearm = false;
}

void UringEngine::SetWakerFd(int fd) {
  waker_fd_ = fd;
  if (ok() && fd >= 0) {
    ArmWakerPoll();
    SubmitQueued();
  }
}

void UringEngine::ArmWakerPoll() {
  // Oneshot on purpose: the eventfd is level-triggered and only drained at
  // the IdleWait boundary, so a multishot poll would keep the kernel posting
  // CQEs as fast as we reap them.  RearmPending re-arms after each firing.
  auto* sqe = static_cast<io_uring_sqe*>(GetSqe());
  sqe->opcode = IORING_OP_POLL_ADD;
  sqe->fd = waker_fd_;
  sqe->poll32_events = POLLIN;
  sqe->user_data = MakeUd(kUdWaker, 0);
  waker_armed_ = true;
}

void UringEngine::RearmPending() {
  bool any = !need_provide_.empty();
  // Provides go first so a re-armed recv in the same submission can already
  // select the refilled slots (PROVIDE_BUFFERS completes synchronously).
  FlushProvides();
  for (size_t i = 0; i < sockets_.size(); i++) {
    if (sockets_[i].want_rearm && !sockets_[i].removed) {
      ArmRecv(i);
      any = true;
    }
  }
  if (waker_fd_ >= 0 && !waker_armed_) {
    ArmWakerPoll();
    any = true;
  }
  if (any) {
    SubmitQueued();
  }
}

// ---- Send path -------------------------------------------------------------

uint32_t UringEngine::AcquireSlot() {
  while (free_slots_.empty()) {
    // All send slots in flight: submit and wait for completions (receives
    // arriving meanwhile just join the pending queue).
    SubmitQueued(1, /*getevents=*/true);
    ProcessCompletions();
  }
  uint32_t index = free_slots_.back();
  free_slots_.pop_back();
  return index;
}

void UringEngine::BuildPlainSlot(SendSlot& slot, int fd, StagedSend& s) {
  // Zero-copy scatter-gather: the slot takes the staged parts (pinning them
  // until the CQE retires it) and its iovecs alias them.
  slot.fd = fd;
  std::swap(slot.refs, s.gather);
  if (slot.iov.size() < slot.refs.part_count()) {
    slot.iov.resize(slot.refs.part_count());
  }
  BuildSendMsg(s.port, slot.refs, &slot.addr, slot.iov.data(), &slot.hdr);
  slot.datagrams = 1;
  slot.bytes = static_cast<uint32_t>(slot.refs.size());
}

void UringEngine::BuildGsoSlot(SendSlot& slot, int fd, const StagedSend* stage,
                               const size_t* run, size_t count) {
  // Coalesce the run into one contiguous buffer the kernel re-segments at
  // seg_size (UDP_SEGMENT cmsg): one SQE, one traversal, `count` datagrams.
  // The buffer is the slot's own; its last send's slice was dropped when
  // that send retired.
  const StagedSend& first = stage[run[0]];
  uint16_t seg_size = static_cast<uint16_t>(first.gather.size());
  if (slot.gso_buf.empty()) {
    slot.gso_buf = Bytes::Allocate(kMaxGsoBytes);
  }
  uint32_t total = 0;
  for (size_t i = 0; i < count; i++) {
    const Iovec& gather = stage[run[i]].gather;
    for (size_t p = 0; p < gather.part_count(); p++) {
      std::memcpy(slot.gso_buf.MutableData() + total, gather.part(p).data(),
                  gather.part(p).size());
      total += static_cast<uint32_t>(gather.part(p).size());
    }
  }
  slot.fd = fd;
  slot.refs.Append(slot.gso_buf.Slice(0, total));
  if (slot.iov.empty()) {
    slot.iov.resize(1);
  }
  BuildSendMsg(first.port, slot.refs, &slot.addr, slot.iov.data(), &slot.hdr);
  slot.hdr.msg_control = slot.cmsg;
  slot.hdr.msg_controllen = CMSG_SPACE(sizeof(uint16_t));
  std::memset(slot.cmsg, 0, sizeof(slot.cmsg));
  cmsghdr* cm = CMSG_FIRSTHDR(&slot.hdr);
  cm->cmsg_level = SOL_UDP;
  cm->cmsg_type = UDP_SEGMENT;
  cm->cmsg_len = CMSG_LEN(sizeof(uint16_t));
  std::memcpy(CMSG_DATA(cm), &seg_size, sizeof(seg_size));
  slot.datagrams = static_cast<uint32_t>(count);
  slot.bytes = total;
  stats_->gso_sends++;
  stats_->gso_segments += count;
}

void UringEngine::PushSendSqe(uint32_t slot_index) {
  SendSlot& slot = slots_[slot_index];
  auto* sqe = static_cast<io_uring_sqe*>(GetSqe());
  sqe->opcode = IORING_OP_SENDMSG;
  sqe->fd = slot.fd;
  sqe->addr = reinterpret_cast<uint64_t>(&slot.hdr);
  sqe->user_data = MakeUd(kUdSend, slot_index);
  inflight_sends_++;
}

void UringEngine::QueueSends(int fd, StagedSend* stage, size_t n) {
  size_t run[kMaxGsoSegs];
  for (size_t i = 0; i < n; i++) {
    uint16_t port = stage[i].port;
    if (port == 0) {
      continue;  // Already sent in an earlier entry's run.
    }
    // The run: stage[i] and the next entries for the same port, in stage
    // order, while they fit one GSO super-datagram of stage[i]'s segment
    // size (a shorter one may close it — the kernel allows a short tail).
    // Other destinations' entries are skipped, never reordered past.
    size_t count = 1;
    run[0] = i;
    size_t seg = stage[i].gather.size();
    if (seg > 0) {
      size_t total = seg;
      for (size_t j = i + 1; j < n && count < kMaxGsoSegs; j++) {
        if (stage[j].port != port) {
          continue;
        }
        size_t next = stage[j].gather.size();
        if (next == 0 || next > seg || total + next > kMaxGsoBytes) {
          break;
        }
        run[count++] = j;
        total += next;
        if (next < seg) {
          break;  // A short datagram must close the super-packet.
        }
      }
    }
    uint32_t slot_index = AcquireSlot();
    if (count > 1) {
      BuildGsoSlot(slots_[slot_index], fd, stage, run, count);
    } else {
      BuildPlainSlot(slots_[slot_index], fd, stage[i]);
    }
    PushSendSqe(slot_index);
    for (size_t k = 0; k < count; k++) {
      stage[run[k]].port = 0;
    }
  }
}

void UringEngine::SubmitSends() {
  SubmitQueued();
  if (inflight_sends_ > 0) {
    ProcessCompletions();  // Retire what already finished (loopback: most of it).
  }
}

void UringEngine::DrainSends() {
  SubmitSends();
  while (inflight_sends_ > 0) {
    Enter(0, 1, IORING_ENTER_GETEVENTS, nullptr, 0);
    ProcessCompletions();
  }
}

// ---- Completion processing -------------------------------------------------

void UringEngine::HandleRecvCqe(size_t sock_index, int res, uint32_t flags) {
  SocketRec& rec = sockets_[sock_index];
  if ((flags & IORING_CQE_F_MORE) == 0) {
    rec.armed = false;
    rec.want_rearm = !rec.removed;
  }
  if (res < 0) {
    // -ENOBUFS: buffer ring momentarily empty — re-arm re-reads the socket.
    // -ECANCELED: RemoveSocket's cancel landed.
    if (res == -ECANCELED) {
      rec.want_rearm = false;
    } else if (res != -ENOBUFS) {
      // Any other error is terminal for this arm (e.g. -EINVAL from a kernel
      // without IORING_RECV_MULTISHOT that slipped past the setup probes).
      // Re-arming would spin forever on the same error, so stop and flag the
      // engine; the owner falls back to the mmsg backend.
      rec.want_rearm = false;
      if (!recv_broken_) {
        recv_broken_ = true;
        ENS_LOG(kWarn) << "io_uring multishot recv failed terminally: "
                       << std::strerror(-res);
      }
    }
    return;
  }
  if ((flags & IORING_CQE_F_BUFFER) == 0) {
    return;  // No buffer attached (zero-byte datagram edge): nothing to slice.
  }
  uint16_t bid = static_cast<uint16_t>(flags >> IORING_CQE_BUFFER_SHIFT);
  const Bytes& chunk = ring_bufs_[bid];
  RecvTrain train =
      ParseRecvBuffer(chunk.data(), chunk.size(), rec.hdr_name_len, rec.hdr_ctrl_len);
  if (!train.ok) {
    stats_->dropped++;
    QueueProvide(bid);
    return;
  }
  // Split a GRO train into logical datagrams; a plain receive is the
  // degenerate single-segment case.
  size_t produced = 0;
  train.ForEachDatagram([&](size_t offset, size_t length) {
    pending_.push_back(PendingRecv{rec.cookie, train.src_port, chunk.Slice(offset, length)});
    produced++;
  });
  if (produced > 1) {
    stats_->gro_recvs++;
    stats_->gro_segments += produced;
  }
  // The chunk is now (partly) owned by the delivered slices; hand the slot a
  // fresh chunk and let this one recycle when the last ref drops.
  QueueProvide(bid);
}

size_t UringEngine::ReapCqes() {
  size_t handled = 0;
  for (;;) {
    unsigned head = *cq_head_;
    unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
    if (head == tail) {
      break;
    }
    size_t burst = tail - head;
    stats_->uring_cqes += burst;
    if (burst > 1) {
      stats_->uring_cqe_batches++;
    }
    while (head != tail) {
      const auto* cqe =
          static_cast<const io_uring_cqe*>(cqes_) + (head & cq_mask_);
      uint64_t ud = cqe->user_data;
      int res = cqe->res;
      uint32_t flags = cqe->flags;
      head++;
      __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
      handled++;
      switch (UdKindOf(ud)) {
        case kUdRecv:
          HandleRecvCqe(UdPayload(ud), res, flags);
          break;
        case kUdSend: {
          uint32_t slot_index = static_cast<uint32_t>(UdPayload(ud));
          SendSlot& slot = slots_[slot_index];
          if (res >= 0) {
            stats_->sent += slot.datagrams;
            stats_->bytes_sent += slot.bytes;
          } else {
            stats_->dropped += slot.datagrams;
          }
          slot.refs.Clear();  // Drop the pinned parts, keep the array.
          free_slots_.push_back(slot_index);
          inflight_sends_--;
          break;
        }
        case kUdWaker:
          waker_armed_ = false;  // Oneshot fired; RearmPending re-arms.
          break;
        case kUdCancel:
          break;  // The recv's own CQE carries the interesting result.
        case kUdProvide:
          if (res < 0) {
            ENS_LOG(kWarn) << "io_uring PROVIDE_BUFFERS bid=" << UdPayload(ud)
                           << " failed: " << strerror(-res);
          }
          break;
      }
    }
  }
  return handled;
}

size_t UringEngine::ProcessCompletions() {
  size_t handled = ReapCqes();
  RearmPending();
  return handled;
}

size_t UringEngine::DeliverPending() {
  if (deliver_pass_) {
    return 0;  // Nested via a deliver callback: the outer pass owns pending_.
  }
  deliver_pass_ = true;
  size_t delivered = 0;
  // Bound the pass to what was queued on entry: a deliver callback can
  // re-enter the engine (send → batch submit → reap) and queue MORE pending
  // receives behind us.  Chasing pending_.size() live never terminates under
  // a self-sustaining workload (every delivery produces a new arrival), which
  // both wedges the owning worker inside one Poll and grows the husk prefix
  // without bound.  Late arrivals wait for the caller's next round.
  size_t limit = pending_.size();
  while (pending_head_ < limit) {
    PendingRecv pr = std::move(pending_[pending_head_]);
    pending_head_++;
    delivered++;
    if (deliver_) {
      deliver_(pr.cookie, pr.src_port, std::move(pr.payload));
    }
  }
  // Compact: drop the delivered husks, keep anything queued mid-pass.
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<ptrdiff_t>(pending_head_));
  pending_head_ = 0;
  deliver_pass_ = false;
  return delivered;
}

size_t UringEngine::ReapAndDeliver() {
  if (delivering_) {
    return 0;  // A deliver callback re-entered Poll: queue only.
  }
  delivering_ = true;
  size_t events = 0;
  // Alternate reap/deliver until quiescent: a delivery can trigger sends
  // whose completions land immediately on loopback.  Bounded — an echo
  // workload keeps completions arriving, so "quiescent" may never come; the
  // caller re-polls anyway.
  for (int round = 0; round < 32; round++) {
    ProcessCompletions();
    size_t got = DeliverPending();
    events += got;
    if (got == 0) {
      break;
    }
  }
  delivering_ = false;
  return events;
}

void UringEngine::WaitCompletions(uint64_t timeout_ns) {
  if (pending_head_ < pending_.size()) {
    return;  // Undelivered work already queued.
  }
  unsigned head = *cq_head_;
  unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
  if (head != tail) {
    return;  // Completions already available.
  }
  __kernel_timespec ts;
  ts.tv_sec = static_cast<int64_t>(timeout_ns / 1'000'000'000ull);
  ts.tv_nsec = static_cast<int64_t>(timeout_ns % 1'000'000'000ull);
  io_uring_getevents_arg arg;
  std::memset(&arg, 0, sizeof(arg));
  arg.ts = reinterpret_cast<uint64_t>(&ts);
  Enter(0, 1, IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG, &arg, sizeof(arg));
}

void UringEngine::RemoveSocket(int fd) {
  auto it = sock_by_fd_.find(fd);
  if (it == sock_by_fd_.end()) {
    return;
  }
  size_t index = it->second;
  SocketRec& rec = sockets_[index];
  rec.removed = true;
  rec.want_rearm = false;
  // Flush this fd's staged sends (we flush everything — simpler, and the
  // caller is at a flush boundary anyway), then cancel the multishot recv and
  // wait for it to terminate.  Data the ring already pulled out of the socket
  // queues in pending_; the caller delivers it before detaching.
  DrainSends();
  if (rec.armed) {
    auto* sqe = static_cast<io_uring_sqe*>(GetSqe());
    sqe->opcode = IORING_OP_ASYNC_CANCEL;
    sqe->fd = -1;
    sqe->addr = MakeUd(kUdRecv, index);
    sqe->user_data = MakeUd(kUdCancel, index);
    SubmitQueued();
    while (rec.armed && !rec.want_rearm) {
      Enter(0, 1, IORING_ENTER_GETEVENTS, nullptr, 0);
      ProcessCompletions();
      if (rec.removed && !rec.armed) {
        break;
      }
    }
  }
  rec.fd = -1;
  sock_by_fd_.erase(it);
  // The recv terminated (or was never armed), so nothing in flight references
  // this index; a later AddSocket may claim it.
  free_sock_slots_.push_back(index);
}

}  // namespace ensemble

#else  // ENSEMBLE_URING_OFF: inert stubs; callers fall back.

namespace ensemble {

struct UringEngine::SendSlot {};
struct UringEngine::SocketRec {};
struct UringEngine::PendingRecv {};

UringEngine::~UringEngine() = default;
bool UringEngine::Available() { return false; }
void UringEngine::ForceAvailabilityForTest(int) {}
bool UringEngine::Init(RecvFn) { return false; }
bool UringEngine::AddSocket(int, uint64_t) { return false; }
void UringEngine::RemoveSocket(int) {}
void UringEngine::SetWakerFd(int) {}
void UringEngine::QueueSends(int, StagedSend*, size_t) {}
void UringEngine::SubmitSends() {}
void UringEngine::DrainSends() {}
size_t UringEngine::ReapAndDeliver() { return 0; }
size_t UringEngine::DeliverPending() { return 0; }
void UringEngine::WaitCompletions(uint64_t) {}

}  // namespace ensemble

#endif

namespace ensemble {

// One constructor for both builds: the members it sets exist in each.
UringEngine::UringEngine(BufferPool* pool, NetworkStats* stats) : pool_(pool), stats_(stats) {}

RecvTrain ParseRecvBuffer(const uint8_t* buf, size_t size, size_t name_len, size_t ctrl_len) {
  RecvTrain train;
  size_t header = sizeof(RecvmsgOut) + name_len + ctrl_len;
  if (size < header) {
    return train;
  }
  RecvmsgOut out;
  std::memcpy(&out, buf, sizeof(out));
  // The kernel reports the full lengths of name and control data even where
  // they exceeded the configured areas; read no more than those areas hold.
  if (out.namelen >= sizeof(sockaddr_in) && name_len >= sizeof(sockaddr_in)) {
    sockaddr_in from;
    std::memcpy(&from, buf + sizeof(RecvmsgOut), sizeof(from));
    train.src_port = ntohs(from.sin_port);
  }
  // UDP_GRO cmsg: the payload is a coalesced train of gro-sized datagrams.
  size_t seg_size = 0;
  const uint8_t* ctrl = buf + sizeof(RecvmsgOut) + name_len;
  size_t remaining = std::min<size_t>(out.controllen, ctrl_len);
  while (remaining >= sizeof(cmsghdr)) {
    cmsghdr cm;
    std::memcpy(&cm, ctrl, sizeof(cm));
    if (cm.cmsg_len < sizeof(cmsghdr) || cm.cmsg_len > remaining) {
      break;
    }
    if (cm.cmsg_level == SOL_UDP && cm.cmsg_type == UDP_GRO &&
        cm.cmsg_len >= CMSG_LEN(sizeof(int))) {
      int gro = 0;
      std::memcpy(&gro, ctrl + CMSG_LEN(0), sizeof(gro));
      seg_size = gro > 0 ? static_cast<size_t>(gro) : 0;
    }
    size_t step = CMSG_ALIGN(cm.cmsg_len);
    if (step >= remaining) {
      break;
    }
    ctrl += step;
    remaining -= step;
  }
  // The recvmsg_out header + name + control eat into the provided chunk, so a
  // near-max datagram (or a GRO train coalesced close to chunk_size) can be
  // truncated: the kernel sets MSG_TRUNC and payloadlen may exceed the bytes
  // actually written.  A truncated control area may have lost the segment
  // size, so the train could not be split.  Either way nothing is delivered.
  if ((out.flags & (MSG_TRUNC | MSG_CTRUNC)) != 0 || out.payloadlen > size - header) {
    return train;
  }
  train.ok = true;
  train.offset = header;
  train.length = out.payloadlen;
  train.seg_size = seg_size > 0 && seg_size < train.length ? seg_size : train.length;
  return train;
}

}  // namespace ensemble
