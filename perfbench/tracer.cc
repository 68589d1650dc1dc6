#include "perfbench/tracer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/perf/timer.h"

namespace ensemble {
namespace perfbench {

namespace {
constexpr size_t kSpanSamples = 1 << 14;  // Per span kind, both buffers.
}  // namespace

SampleBuffer::SampleBuffer(size_t capacity) : capacity_(capacity) {
  values_.reserve(capacity_);
}

double SampleBuffer::Quantile(double q) {
  if (values_.empty()) {
    return 0;
  }
  size_t k = static_cast<size_t>(q * static_cast<double>(values_.size() - 1));
  std::nth_element(values_.begin(), values_.begin() + static_cast<ptrdiff_t>(k),
                   values_.end());
  return static_cast<double>(values_[k]);
}

const char* SegName(Seg s) {
  switch (s) {
    case Seg::kAppCast:
      return "app.cast";
    case Seg::kAppSend:
      return "app.send";
    case Seg::kAppFlush:
      return "app.flush";
    case Seg::kNetSend:
      return "net.send";
    case Seg::kNetBcast:
      return "net.broadcast";
    case Seg::kNetFlush:
      return "net.flush";
    case Seg::kNetPoll:
      return "net.poll";
    case Seg::kStackUp:
      return "stack.up";
    case Seg::kTimer:
      return "timer.fire";
    case Seg::kDrainHook:
      return "timer.drain_hook";
    case Seg::kBenchCb:
      return "bench.deliver_cb";
    case Seg::kBenchGen:
      return "bench.make_payload";
    case Seg::kCount:
      break;
  }
  return "?";
}

SpanTracer::SpanTracer() {
  incl_.reserve(kSegCount);
  self_.reserve(kSegCount);
  for (size_t i = 0; i < kSegCount; i++) {
    incl_.emplace_back(kSpanSamples);
    self_.emplace_back(kSpanSamples);
  }
  last_ = NowNanos();
}

void SpanTracer::Sweep(uint64_t now) {
  uint64_t d = now - last_;
  last_ = now;
  if (depth_ == 0) {
    return;
  }
  Frame& top = stack_[depth_ - 1];
  top.self += d;
  Totals& t = totals_[static_cast<size_t>(top.seg)];
  t.self_ns += d;
  if (in_round_) {
    t.round_self_ns += d;
  }
}

void SpanTracer::Enter(Seg s) {
  uint64_t now = NowNanos();
  Sweep(now);
  if (depth_ == kMaxDepth) {
    std::fprintf(stderr, "perfbench: span stack overflow\n");
    std::abort();
  }
  stack_[depth_++] = Frame{s, now, 0};
}

void SpanTracer::Exit() {
  uint64_t now = NowNanos();
  Sweep(now);
  const Frame f = stack_[--depth_];
  size_t i = static_cast<size_t>(f.seg);
  uint64_t dur = now - f.start;
  totals_[i].calls++;
  totals_[i].incl_ns += dur;
  incl_[i].Add(dur);
  self_[i].Add(f.self);
}

void SpanTracer::BeginRound() {
  uint64_t now = NowNanos();
  Sweep(now);
  in_round_ = true;
  round_start_ = now;
}

void SpanTracer::EndRound() {
  if (!in_round_) {
    return;  // The round began before the last Reset.
  }
  uint64_t now = NowNanos();
  Sweep(now);
  in_round_ = false;
  rounds_++;
  round_ns_ += now - round_start_;
}

void SpanTracer::Reset() {
  Sweep(NowNanos());
  totals_ = {};
  for (size_t i = 0; i < kSegCount; i++) {
    incl_[i].Clear();
    self_[i].Clear();
  }
  rounds_ = round_ns_ = 0;
  in_round_ = false;
}

void TracingNetwork::Attach(EndpointId ep, DeliverFn deliver) {
  inner_->Attach(ep, [this, d = std::move(deliver)](const Packet& p) {
    rx_.datagrams++;
    if (p.datagram.size() >= 2 && p.datagram[0] == kWirePacked) {
      rx_.packed++;
      rx_.submsgs += p.datagram[1];
    }
    Span s(tracer_, Seg::kStackUp);
    d(p);
  });
}

void TracingNetwork::ScheduleTimer(VTime delay, TimerFn fn) {
  inner_->ScheduleTimer(delay, [t = tracer_, f = std::move(fn)]() {
    Span s(t, Seg::kTimer);
    f();
  });
}

void TracingNetwork::SetDrainHook(EndpointId ep, std::function<void()> hook) {
  if (!hook) {
    inner_->SetDrainHook(ep, nullptr);
    return;
  }
  inner_->SetDrainHook(ep, [t = tracer_, h = std::move(hook)]() {
    Span s(t, Seg::kDrainHook);
    h();
  });
}

}  // namespace perfbench
}  // namespace ensemble
