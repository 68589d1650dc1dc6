// Span tracing from outside the library.
//
// The benchmark attributes time to layers by timing the calls it makes into
// each layer's public functions, and the calls the library makes back out
// through the Network interface.  SpanTracer keeps an explicit stack of open
// spans and, at every enter/exit, charges the time since the previous event
// to whichever span is on top; time with no span open is charged to none.
// A span's self time is therefore exactly the part of its interval its
// children do not cover, and self times never count one interval twice: what
// they leave of a measured interval is the time spent outside every span.
//
// TracingNetwork is the layer boundary below the stack: a Network decorator
// over a UdpNetwork that times Send/Broadcast/Flush and wraps every deliver
// callback, timer and drain hook the endpoints register.  It also counts the
// datagrams it hands to the endpoints, so packing is measured per received
// datagram, the same granularity as the endpoints' own packet counters.

#ifndef ENSEMBLE_PERFBENCH_TRACER_H_
#define ENSEMBLE_PERFBENCH_TRACER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/net/udp.h"

namespace ensemble {
namespace perfbench {

// Bounded sample buffer: a uniform random sample (reservoir sampling) of
// everything added, in a fixed, preallocated footprint.  Random rather than
// every-k-th, because the workloads are periodic (pack windows, top-up
// bursts) and a fixed stride would alias with the period.
class SampleBuffer {
 public:
  explicit SampleBuffer(size_t capacity);

  void Add(uint64_t v) {
    seen_++;
    if (values_.size() < capacity_) {
      values_.push_back(v);
      return;
    }
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    uint64_t j = rng_ % seen_;
    if (j < capacity_) {
      values_[j] = v;
    }
  }
  void Clear() {
    values_.clear();
    seen_ = 0;
  }
  // q in [0, 1]; 0 when empty.  Reorders the kept samples.
  double Quantile(double q);
  size_t kept() const { return values_.size(); }
  uint64_t seen() const { return seen_; }
  const std::vector<uint64_t>& values() const { return values_; }

 private:
  size_t capacity_;
  std::vector<uint64_t> values_;
  uint64_t seen_ = 0;
  uint64_t rng_ = UINT64_C(0x9E3779B97F4A7C15);
};

// The span kinds, named after the module each call enters.
enum class Seg : uint8_t {
  kAppCast,    // GroupEndpoint::Cast, timed by the benchmark.
  kAppSend,    // GroupEndpoint::Send, timed by the benchmark.
  kAppFlush,   // GroupEndpoint::Flush, timed by the benchmark.
  kNetSend,    // Network::Send, called by the endpoint.
  kNetBcast,   // Network::Broadcast, called by the endpoint.
  kNetFlush,   // Network::Flush, called by the endpoint.
  kNetPoll,    // UdpNetwork::Poll, timed by the benchmark.
  kStackUp,    // The endpoint's DeliverFn, called by the network.
  kTimer,      // An endpoint timer, fired by the network.
  kDrainHook,  // An endpoint drain hook, run by the network.
  kBenchCb,    // The benchmark's own delivery callback (payload checks).
  kBenchGen,   // The benchmark's payload generator.
  kCount,
};
constexpr size_t kSegCount = static_cast<size_t>(Seg::kCount);
const char* SegName(Seg s);

class SpanTracer {
 public:
  SpanTracer();

  void Enter(Seg s);
  void Exit();

  // Round accounting: self time between BeginRound and EndRound is also
  // charged to Totals::round_self_ns.  Rounds do not nest.
  void BeginRound();
  void EndRound();

  // Zeroes every total and sample; open spans keep their frames.
  void Reset();

  struct Totals {
    uint64_t calls = 0;
    uint64_t incl_ns = 0;   // Sum of span durations.
    uint64_t self_ns = 0;   // Sum of self time (children excluded).
    uint64_t round_self_ns = 0;  // Self time inside rounds.
  };
  const Totals& totals(Seg s) const { return totals_[static_cast<size_t>(s)]; }
  SampleBuffer& incl_samples(Seg s) { return incl_[static_cast<size_t>(s)]; }
  SampleBuffer& self_samples(Seg s) { return self_[static_cast<size_t>(s)]; }
  uint64_t rounds() const { return rounds_; }
  uint64_t round_ns() const { return round_ns_; }

 private:
  struct Frame {
    Seg seg;
    uint64_t start;
    uint64_t self;
  };
  // Charges now - last_ to the top frame, if any.
  void Sweep(uint64_t now);

  static constexpr size_t kMaxDepth = 32;
  std::array<Frame, kMaxDepth> stack_{};
  size_t depth_ = 0;
  uint64_t last_ = 0;
  bool in_round_ = false;
  uint64_t round_start_ = 0;
  std::array<Totals, kSegCount> totals_{};
  std::vector<SampleBuffer> incl_;
  std::vector<SampleBuffer> self_;
  uint64_t rounds_ = 0;
  uint64_t round_ns_ = 0;
};

// RAII span; a null tracer makes it free of any clock read.
class Span {
 public:
  Span(SpanTracer* t, Seg s) : t_(t) {
    if (t_ != nullptr) {
      t_->Enter(s);
    }
  }
  ~Span() {
    if (t_ != nullptr) {
      t_->Exit();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTracer* t_;
};

// Network decorator: forwards everything to `inner` and records a span
// around each call the endpoints make and each callback they register.
// Polling stays on the inner UdpNetwork (the benchmark times it there).
class TracingNetwork : public Network {
 public:
  // Datagrams delivered to the endpoints, one per receiver.
  struct RxCounts {
    uint64_t datagrams = 0;
    uint64_t packed = 0;   // Of those, packed datagrams ([kWirePacked][count]...).
    uint64_t submsgs = 0;  // Sub-messages inside the packed ones.
  };

  TracingNetwork(UdpNetwork* inner, SpanTracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  TracingNetwork(const TracingNetwork&) = delete;
  TracingNetwork& operator=(const TracingNetwork&) = delete;

  void Attach(EndpointId ep, DeliverFn deliver) override;
  void Detach(EndpointId ep) override { inner_->Detach(ep); }
  void Send(EndpointId src, EndpointId dst, const Iovec& gather) override {
    Span s(tracer_, Seg::kNetSend);
    inner_->Send(src, dst, gather);
  }
  void Broadcast(EndpointId src, const Iovec& gather) override {
    Span s(tracer_, Seg::kNetBcast);
    inner_->Broadcast(src, gather);
  }
  void ScheduleTimer(VTime delay, TimerFn fn) override;
  VTime Now() const override { return inner_->Now(); }
  void Flush() override {
    Span s(tracer_, Seg::kNetFlush);
    inner_->Flush();
  }
  void SetDrainHook(EndpointId ep, std::function<void()> hook) override;
  void SetPressure(int level) override { inner_->SetPressure(level); }

  const RxCounts& rx() const { return rx_; }
  void ResetRx() { rx_ = RxCounts{}; }

 private:
  UdpNetwork* inner_;
  SpanTracer* tracer_;
  RxCounts rx_;
};

}  // namespace perfbench
}  // namespace ensemble

#endif  // ENSEMBLE_PERFBENCH_TRACER_H_
