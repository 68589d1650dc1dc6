// UringEngine — raw-syscall io_uring submission/completion datapath for
// UdpNetwork (no liburing dependency; the container bakes in only the kernel
// header).  One engine per UdpNetwork instance, i.e. one SQ/CQ ring pair per
// shard's socket group:
//
//   - Receives are MULTISHOT RECVMSG: one armed SQE per socket keeps posting
//     a CQE per datagram with no per-burst syscall.  Payloads land directly
//     in kernel-selected buffers registered from the refcounted receive pool
//     (IORING_OP_PROVIDE_BUFFERS, buffer group 0): each provided slot holds
//     one pool chunk, the delivered Bytes slices alias the chunk, and
//     consuming a CQE re-provides the slot with a fresh chunk — the consumed
//     one recycles through the pool when the last slice reference drops,
//     exactly the ownership rule the recvmmsg path established.  (The newer
//     IORING_REGISTER_PBUF_RING mapping is not used: this host's kernel
//     accepts the registration but never serves buffers from it, and the
//     re-provision SQEs ride existing submissions, so the classic group
//     costs no extra syscalls.)
//
//   - Sends wait in UdpNetwork's per-endpoint stages (the one send stage the
//     staged backends share) and are queued here at a flush, endpoint by
//     endpoint; one io_uring_enter carries the whole flush.  Within one
//     endpoint's stage the datagrams for each destination collapse into UDP
//     GSO runs (UDP_SEGMENT cmsg: one SQE, one kernel traversal, N wire
//     datagrams).  A run starts at the first unsent entry and takes the next
//     entries for the same port in stage order, skipping other destinations'
//     entries, so a view cast staged as d1 d2 d3 d1 d2 d3 … leaves as one
//     train per member.  Nothing is reordered within a destination: a run
//     ends at the first same-port datagram that does not fit (larger than
//     the segment, past kMaxGsoBytes or kMaxGsoSegs), and a shorter
//     datagram joins as the run's last segment.  Runs of one go out as
//     zero-copy scatter-gather SENDMSG SQEs whose iovecs alias the
//     refcounted parts (held in the send slot until the CQE retires them).
//
//   - UDP GRO (socket option, set per added socket) coalesces bursts of
//     equal-size datagrams — and hands a loopback GSO train over whole — into
//     one CQE whose payload the engine re-splits at the cmsg-reported segment
//     size (ParseRecvBuffer) — zero-copy slices, one per original datagram.
//     This composes with kWirePacked packing: a GRO segment is a packed
//     datagram, which the transport unpacker then splits into sub-messages,
//     so one kernel traversal can carry pack_window × gro_segs
//     messages.
//
//   - The owner's idle sleep is a single io_uring_enter(GETEVENTS) with an
//     EXT_ARG timeout; the cross-thread Waker eventfd joins the ring as a
//     (re-armed oneshot) POLL_ADD, so a foreign Wakeup() breaks the sleep
//     exactly as it breaks poll(2) on the mmsg path.
//
// Threading: engine methods are owner-thread only (the Waker eventfd is the
// cross-thread signal, and writing an eventfd is thread-safe by nature).
//
// Unavailability is graceful everywhere: Available() probes io_uring_setup
// once (seccomp or old kernels fail here), Init() failure leaves the engine
// !ok(), and UdpNetwork falls back to the mmsg backend.  The
// ENSEMBLE_URING=OFF build compiles all of this out to the same stubs.

#ifndef ENSEMBLE_SRC_NET_UDP_URING_H_
#define ENSEMBLE_SRC_NET_UDP_URING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/net/network.h"
#include "src/net/udp.h"
#include "src/util/bytes.h"
#include "src/util/pool.h"

namespace ensemble {

// The one builder of an outgoing msghdr, for every backend (defined in
// udp.cc): points `msg` at 127.0.0.1:`port` (written to `*addr`) and at
// `gather`'s parts (written to `iov`, which must hold gather.part_count()
// entries).  All three are the caller's storage, reused across sends; no
// part is copied and no control data is set (GSO adds its cmsg on top).
void BuildSendMsg(uint16_t port, const Iovec& gather, sockaddr_in* addr, iovec* iov,
                  msghdr* msg);

// The fixed header the kernel writes at the front of every multishot
// RECVMSG buffer (io_uring_recvmsg_out, mirrored so the parse below also
// builds where io_uring is compiled out): then come the configured name and
// control areas, then the payload.
struct RecvmsgOut {
  uint32_t namelen;
  uint32_t controllen;
  uint32_t payloadlen;
  uint32_t flags;
};

// One multishot RECVMSG buffer, parsed: where its payload lies and how it
// splits into the datagrams a GRO train coalesced.
struct RecvTrain {
  // False when the buffer cannot be delivered as a whole: too short for its
  // header, or the payload or control data was truncated.  Nothing of it is
  // delivered (a partial tail would corrupt packed-stream framing
  // downstream); the caller counts one drop.
  bool ok = false;
  uint16_t src_port = 0;  // 0 when the name area holds no sockaddr_in.
  size_t offset = 0;      // Payload start within the buffer.
  size_t length = 0;      // Payload bytes, all inside the buffer when ok.
  size_t seg_size = 0;    // The UDP_GRO segment size, or `length` if none.

  // Calls fn(offset, length) for each datagram of the train, in order: the
  // slices tile [offset, offset + length), each seg_size long but the last.
  template <typename Fn>
  void ForEachDatagram(Fn&& fn) const {
    for (size_t done = 0; done < length; done += seg_size) {
      fn(offset + done, std::min(seg_size, length - done));
    }
  }
};

// Parses the `size`-byte buffer at `buf` that a multishot RECVMSG armed with
// `name_len` / `ctrl_len` byte name and control areas filled: the RecvmsgOut
// header, the source address, the UDP_GRO cmsg walk, the truncation check and
// the segment size.  Pure, and reads nothing outside the buffer, whatever the
// header fields claim.
RecvTrain ParseRecvBuffer(const uint8_t* buf, size_t size, size_t name_len, size_t ctrl_len);

class UringEngine {
 public:
  // One logical received datagram (post-GRO-split).  `payload` aliases a
  // registered pool chunk; holding it pins the chunk until released.
  using RecvFn =
      std::function<void(uint64_t cookie, uint16_t src_port, Bytes payload)>;

  // `pool` provides the registered receive chunks (chunk_size must hold a max
  // datagram); `stats` receives the uring_* / gso_* / gro_* counters plus
  // sent/delivered/bytes accounting for traffic that flows through the rings.
  UringEngine(BufferPool* pool, NetworkStats* stats);
  ~UringEngine();

  UringEngine(const UringEngine&) = delete;
  UringEngine& operator=(const UringEngine&) = delete;

  // Probes io_uring_setup(2) once per process (cached).  False on kernels
  // without io_uring, under seccomp filters that block it, or in the
  // ENSEMBLE_URING=OFF build.
  static bool Available();
  // Test hook: force Available() to return `forced` (0/1); -1 restores the
  // real probe.  Lets the fallback path run on hosts where uring works.
  static void ForceAvailabilityForTest(int forced);

  // Sets up the rings and the registered buffer ring.  False (and !ok) on any
  // failure; the engine is then inert and the caller should fall back.
  bool Init(RecvFn deliver);
  bool ok() const { return ring_fd_ >= 0; }
  // True once a multishot recv terminated with an unexpected error (e.g.
  // -EINVAL from a kernel whose io_uring lacks IORING_RECV_MULTISHOT but
  // passed the setup-time probes).  The engine stops re-arming receives; the
  // owner should quiesce and fall back to the mmsg backend.
  bool recv_broken() const { return recv_broken_; }

  // Arms a multishot receive for `fd`; `cookie` tags its deliveries (the
  // attach-time endpoint id).  Sets UDP_GRO on the socket.
  bool AddSocket(int fd, uint64_t cookie);
  // Quiesces `fd`: submits queued sends, waits for their completions, cancels
  // the multishot receive and waits for it to terminate.  Datagrams the ring
  // already pulled out of the socket are queued for DeliverPending() — call
  // it before detaching the endpoint so nothing in flight is dropped.
  void RemoveSocket(int fd);
  // Registers the Waker eventfd as a (re-armed oneshot) poll so cross-thread
  // wakeups break WaitCompletions().
  void SetWakerFd(int fd);

  // Turns `n` staged datagrams of socket `fd` into send SQEs (one GSO run
  // per destination where the sizes allow, see the file comment) without
  // submitting them.  Consumes the entries: each is left with port 0 (which
  // names no destination) and its part array kept.
  void QueueSends(int fd, StagedSend* stage, size_t n);
  // Submits every queued SQE in one io_uring_enter and opportunistically
  // retires available completions WITHOUT delivering: receives complete into
  // the pending queue.  Safe mid-Send.
  void SubmitSends();
  // SubmitSends + wait until every in-flight send CQE has retired: on return
  // the wire is caught up (receives again only queue).  The Flush() boundary.
  void DrainSends();

  // Delivers queued receives, then reaps the completion ring, delivering new
  // receives as they are consumed.  Returns logical datagrams delivered.
  size_t ReapAndDeliver();
  // Delivers only the already-queued receives (Release/Detach path).
  size_t DeliverPending();

  // Blocks until at least one CQE is available or `timeout_ns` passes
  // (io_uring_enter GETEVENTS + EXT_ARG timeout).  Returns immediately when
  // completions or queued receives are already pending.  Consumes nothing.
  void WaitCompletions(uint64_t timeout_ns);

 private:
  struct SendSlot;
  struct SocketRec;
  struct PendingRecv;

  bool SetupRing();
  void TeardownRing();
  // Queues `bid` for (re-)provisioning with a fresh pool chunk.
  void QueueProvide(uint16_t bid);
  // Emits one PROVIDE_BUFFERS SQE per queued bid (does not submit).
  void FlushProvides();

  void* GetSqe();                      // Next free SQE (flushes if full).
  int Enter(unsigned to_submit, unsigned min_complete, unsigned flags,
            const void* arg, size_t argsz);
  int SubmitQueued(unsigned min_complete = 0, bool getevents = false);
  size_t ReapCqes();                   // CQ → pending queue / slot retirement.
  size_t ProcessCompletions();         // ReapCqes + re-arm stopped recvs.
  void HandleRecvCqe(size_t sock_index, int res, uint32_t flags);
  void RearmPending();                 // Re-arm multishot recvs that stopped.
  void ArmRecv(size_t sock_index);
  void ArmWakerPoll();

  void PushSendSqe(uint32_t slot_index);
  uint32_t AcquireSlot();              // Blocks on completions if exhausted.
  void BuildPlainSlot(SendSlot& slot, int fd, StagedSend& s);
  // Flattens stage[run[0]], …, stage[run[count - 1]] into the slot's GSO
  // buffer, segmented at the first entry's size.
  void BuildGsoSlot(SendSlot& slot, int fd, const StagedSend* stage, const size_t* run,
                    size_t count);

  BufferPool* pool_;
  NetworkStats* stats_;
  RecvFn deliver_;

  int ring_fd_ = -1;
  // Ring geometry + mapped pointers (raw mmap; see udp_uring.cc).
  void* sq_ring_ = nullptr;
  size_t sq_ring_sz_ = 0;
  void* cq_ring_ = nullptr;  // Equal to sq_ring_ with FEAT_SINGLE_MMAP.
  size_t cq_ring_sz_ = 0;
  void* sqes_ = nullptr;
  size_t sqes_sz_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned* sq_array_ = nullptr;
  unsigned* sq_flags_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  void* cqes_ = nullptr;
  unsigned sq_entries_ = 0;
  unsigned cq_entries_ = 0;
  unsigned sqes_queued_ = 0;   // Prepared but not yet submitted.

  // Provided-buffer group 0: bid → the pool chunk the kernel may write next.
  std::vector<Bytes> ring_bufs_;
  std::vector<uint16_t> need_provide_;  // Consumed bids awaiting re-provision.

  std::vector<SocketRec> sockets_;     // Index is the recv user_data payload.
  std::vector<size_t> free_sock_slots_;  // Retired indices awaiting reuse.
  std::map<int, size_t> sock_by_fd_;
  int waker_fd_ = -1;
  bool waker_armed_ = false;
  bool recv_broken_ = false;           // See recv_broken().

  std::vector<SendSlot> slots_;
  std::vector<uint32_t> free_slots_;
  size_t inflight_sends_ = 0;

  // FIFO of received-but-undelivered datagrams (vector + head index: vector
  // tolerates the incomplete element type, deque does not).
  std::vector<PendingRecv> pending_;
  size_t pending_head_ = 0;
  bool delivering_ = false;            // Re-entrancy guard for ReapAndDeliver.
  bool deliver_pass_ = false;          // Re-entrancy guard for DeliverPending:
                                       // a nested call (deliver callback →
                                       // quiesce/drain) would corrupt the
                                       // outer pass's cursor and husk prefix.
};

}  // namespace ensemble

#endif  // ENSEMBLE_SRC_NET_UDP_URING_H_
