// Workload shapes, the payload codec with its output checks, and the
// closed loop that runs one group of GroupEndpoints over a UdpNetwork
// from a single thread.

#ifndef ENSEMBLE_PERFBENCH_WORKLOADS_H_
#define ENSEMBLE_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/tracer.h"
#include "src/app/endpoint.h"
#include "src/net/udp.h"

namespace ensemble {
namespace perfbench {

// One workload: group size, datapath, and the closed-loop load.
struct Shape {
  std::string name;
  int members = 2;
  NetBackendConfig net;
  bool pack = false;
  size_t cast_bytes = 64;
  size_t window = 1;       // Operations kept outstanding by rank 0.
  bool reply = false;      // Rank 1 answers each cast with an equal-size Send.
  // Operations run before peak RSS is read: a fixed count, about 2 s of
  // work, so memory that grows per operation reads the same at any speed.
  uint64_t rss_ops = 0;
};

// False when `name` is not a workload.
bool ShapeFor(const std::string& name, Shape* out);

// ---- payloads ---------------------------------------------------------------
//
// Every payload starts with a 24-byte header [group u32][origin u32][seq u64]
// [sum u64], followed by bytes generated from (seed, origin, seq); `sum` is a
// checksum of those bytes.

constexpr size_t kHeaderBytes = 24;

struct Header {
  uint32_t group = 0;
  uint32_t origin = 0;
  uint64_t seq = 0;
  uint64_t sum = 0;
};

Bytes MakePayload(uint64_t seed, const Header& h, size_t size);
// Reads the header; false when the payload is shorter than one.
bool ReadHeader(const Iovec& payload, Header* h);
// Checksum of everything after the header, across any part boundaries.
uint64_t BodySum(const Iovec& payload);

// ---- CPU rotation -----------------------------------------------------------
//
// On a shared host the cores run at different speeds for long stretches
// (other tenants come and go), so a run that stays on whichever
// core it started on inherits that core's speed.  The benchmark instead
// moves its one thread round-robin over every CPU it may use, so each run
// samples all of them for equal time.

class CpuRotation {
 public:
  CpuRotation();  // The CPUs of the calling thread's affinity mask.
  // Pins the calling thread to the next CPU in turn.
  void Next();
  size_t size() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// ---- the closed loop -------------------------------------------------------

// Counts of one measured window.
struct WindowResult {
  double seconds = 0;          // Length of the measured window.
  uint64_t completed = 0;      // Operations completed inside the window.
  uint64_t attempted = 0;      // Operations started inside the window.
  uint64_t ops_ok = 0;         // Of those, operations fully verified.
  uint64_t expected = 0;       // Deliveries the attempted operations owe.
  uint64_t verified = 0;       // Deliveries of them that passed every check.
  uint64_t bench_allocs = 0;   // Payload buffers the generator allocated.
  bool stalled = false;        // No completion for kStallNanos.
  // Per slice of kSliceNanos: completed operations per second and, when
  // latency is recorded, the slice's latency quantiles.
  std::vector<double> slice_rates;
  std::vector<double> slice_p50_ns;
  std::vector<double> slice_p90_ns;
  uint64_t latency_samples = 0;  // Samples the quantiles were taken from.
};

class GroupRun {
 public:
  // Builds the network and the members; `tracer` non-null routes the
  // endpoints through a TracingNetwork and times the benchmark's own calls.
  GroupRun(const Shape& shape, uint64_t seed, SpanTracer* tracer);
  ~GroupRun();

  GroupRun(const GroupRun&) = delete;
  GroupRun& operator=(const GroupRun&) = delete;

  bool ok() const;
  // False when the network fell back from the backend the shape asks for
  // (io_uring unavailable, say), so the run would measure another datapath.
  bool backend_as_asked() const;
  // Starts every member (view install and bypass compile).
  void Start();
  // Casts once from rank 0 and polls until every member delivered it.
  bool FirstCast(uint64_t timeout_ns);
  // Runs the closed loop, untimed, until `ops` operations have completed,
  // then drains.  False when it stalls.
  bool RunOps(uint64_t ops);

  // Runs the closed loop: warm-up, then a measured window of `seconds`,
  // then drains what is outstanding.  The window is cut into slices of
  // kSliceNanos; after each the thread moves to the next CPU of `cpus`.
  // Latency is recorded only when `record_latency`.  `at_start` / `at_end`
  // run at the window's edges.
  WindowResult Measure(double warm_s, double seconds, CpuRotation* cpus,
                       bool record_latency, const std::function<void()>& at_start,
                       const std::function<void()>& at_end);

  UdpNetwork& udp() { return *udp_; }
  // The decorator the members talk to; null when untraced.
  TracingNetwork* tracing() { return traced_.get(); }
  GroupEndpoint& member(int rank) { return *eps_[static_cast<size_t>(rank)]; }
  int members() const { return shape_.members; }
  // Deliveries that failed a check (any cause), for the report.
  uint64_t check_failures() const { return check_failures_; }
  uint64_t order_failures() const { return order_failures_; }

 private:
  struct Slot {
    uint64_t seq = 0;
    bool active = false;
    bool in_window = false;
    uint64_t t_cast = 0;
    int cast_arrived = 0;
    int cast_verified = 0;
    bool reply_arrived = false;
    bool reply_verified = false;
  };
  struct OrderEntry {
    uint64_t pos = UINT64_MAX;
    uint32_t origin = 0;
    uint64_t seq = 0;
  };

  void CastOne();
  void Step();
  // Polls until nothing is outstanding; false after kStallNanos.
  bool Drain();
  void OnDeliver(int rank, const Event& ev);
  bool CheckDelivery(int rank, const Event& ev, Header* h);
  void MaybeComplete(Slot& s, uint64_t now);

  Shape shape_;
  uint64_t seed_;
  uint32_t group_;
  SpanTracer* tracer_;
  std::unique_ptr<UdpNetwork> udp_;
  std::unique_ptr<TracingNetwork> traced_;
  std::vector<std::unique_ptr<GroupEndpoint>> eps_;

  std::vector<Slot> ring_;
  uint64_t next_seq_ = 0;
  size_t outstanding_ = 0;
  // Per receiver: next expected seq, [origin * 2 + (send ? 1 : 0)].
  std::vector<std::vector<uint64_t>> next_expected_;
  // Total-order agreement: the k-th cast delivery must be the same at every
  // member; each member's k-th delivery is compared with the first one seen.
  std::vector<OrderEntry> order_;
  std::vector<uint64_t> order_pos_;
  uint64_t check_failures_ = 0;
  uint64_t order_failures_ = 0;

  // Window state.
  bool issuing_ = false;
  bool measuring_ = false;
  uint64_t done_ = 0;  // Operations completed by this group.
  uint64_t last_progress_ = 0;
  SampleBuffer slice_latency_;
  SampleBuffer* latency_ = nullptr;  // &slice_latency_ while recording.
  WindowResult result_;
};

constexpr uint64_t kStallNanos = 2'000'000'000;
constexpr uint64_t kSliceNanos = 250'000'000;

}  // namespace perfbench
}  // namespace ensemble

#endif  // ENSEMBLE_PERFBENCH_WORKLOADS_H_
