#include "perfbench/workloads.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/perf/timer.h"
#include "src/stack/engine.h"

namespace ensemble {
namespace perfbench {

namespace {

constexpr size_t kRingSlots = 1024;   // Power of two, > any window.
constexpr size_t kOrderSlots = 4096;  // Power of two.
constexpr size_t kSliceSamples = 1 << 16;  // Latency samples kept per slice.

// Streaming word checksum: bytes are consumed little-endian into 64-bit
// words wherever the parts of an Iovec happen to split them.
class Checksum {
 public:
  void Feed(const uint8_t* p, size_t len) {
    while (fill_ != 0 && len > 0) {
      Byte(*p++);
      len--;
    }
    while (len >= 8) {
      uint64_t w;
      std::memcpy(&w, p, 8);
      Mix(w);
      p += 8;
      len -= 8;
    }
    while (len > 0) {
      Byte(*p++);
      len--;
    }
  }
  uint64_t Finish() {
    if (fill_ != 0) {
      Mix(acc_);
    }
    Mix(total_);
    return h_;
  }

 private:
  void Byte(uint8_t b) {
    acc_ |= static_cast<uint64_t>(b) << (8 * fill_);
    if (++fill_ == 8) {
      Mix(acc_);
      acc_ = 0;
      fill_ = 0;
    }
  }
  void Mix(uint64_t w) {
    h_ = (h_ ^ w) * UINT64_C(0x9E3779B97F4A7C15);
    h_ ^= h_ >> 29;
    total_ += 8;
  }
  uint64_t h_ = UINT64_C(0xCBF29CE484222325);
  uint64_t acc_ = 0;
  unsigned fill_ = 0;
  uint64_t total_ = 0;
};

uint64_t SplitMix(uint64_t x) {
  x += UINT64_C(0x9E3779B97F4A7C15);
  x = (x ^ (x >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
  x = (x ^ (x >> 27)) * UINT64_C(0x94D049BB133111EB);
  return x ^ (x >> 31);
}

void PutHeader(uint8_t* p, const Header& h) {
  std::memcpy(p, &h.group, 4);
  std::memcpy(p + 4, &h.origin, 4);
  std::memcpy(p + 8, &h.seq, 8);
  std::memcpy(p + 16, &h.sum, 8);
}

}  // namespace

bool ShapeFor(const std::string& name, Shape* out) {
  Shape s;
  s.name = name;
  if (name == "pingpong") {
    s.members = 2;
    s.net = NetBackendConfig::Eager();
    s.cast_bytes = 64;
    s.window = 1;
    s.reply = true;
    s.rss_ops = 150'000;
  } else if (name == "stream") {
    s.members = 4;
    s.net = NetBackendConfig::Uring(16);
    s.pack = true;
    s.cast_bytes = 64;
    s.window = 64;
    s.rss_ops = 250'000;
  } else if (name == "bulk") {
    s.members = 2;
    s.net = NetBackendConfig::Batched(16);
    s.cast_bytes = 16384;
    s.window = 8;
    s.rss_ops = 15'000;
  } else {
    return false;
  }
  s.net.ingress = IngressMode::kPerEndpoint;
  *out = s;
  return true;
}

Bytes MakePayload(uint64_t seed, const Header& h, size_t size) {
  Bytes b = Bytes::Allocate(size);
  uint8_t* p = b.MutableData();
  uint8_t* body = p + kHeaderBytes;
  size_t n = size - kHeaderBytes;
  uint64_t x = SplitMix(seed ^ SplitMix((static_cast<uint64_t>(h.origin) << 48) ^ h.seq)) | 1;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    uint64_t w = x * UINT64_C(0x2545F4914F6CDD1D);
    std::memcpy(body + i, &w, 8);
  }
  for (; i < n; i++) {
    body[i] = static_cast<uint8_t>(x >> (8 * (i % 8)));
  }
  Checksum sum;
  sum.Feed(body, n);
  Header out = h;
  out.sum = sum.Finish();
  PutHeader(p, out);
  return b;
}

bool ReadHeader(const Iovec& payload, Header* h) {
  if (payload.size() < kHeaderBytes) {
    return false;
  }
  uint8_t raw[kHeaderBytes];
  size_t got = 0;
  for (size_t i = 0; i < payload.part_count() && got < kHeaderBytes; i++) {
    const Bytes& part = payload.part(i);
    size_t take = std::min(part.size(), kHeaderBytes - got);
    std::memcpy(raw + got, part.data(), take);
    got += take;
  }
  std::memcpy(&h->group, raw, 4);
  std::memcpy(&h->origin, raw + 4, 4);
  std::memcpy(&h->seq, raw + 8, 8);
  std::memcpy(&h->sum, raw + 16, 8);
  return true;
}

uint64_t BodySum(const Iovec& payload) {
  Checksum sum;
  size_t skip = kHeaderBytes;
  for (size_t i = 0; i < payload.part_count(); i++) {
    const Bytes& part = payload.part(i);
    size_t drop = std::min(skip, part.size());
    skip -= drop;
    sum.Feed(part.data() + drop, part.size() - drop);
  }
  return sum.Finish();
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; c++) {
      if (CPU_ISSET(c, &set)) {
        cpus_.push_back(c);
      }
    }
  }
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

GroupRun::GroupRun(const Shape& shape, uint64_t seed, SpanTracer* tracer)
    : shape_(shape),
      seed_(seed),
      group_(static_cast<uint32_t>(SplitMix(seed) >> 32) | 1),
      tracer_(tracer),
      ring_(kRingSlots),
      order_(kOrderSlots),
      slice_latency_(kSliceSamples) {
  udp_ = std::make_unique<UdpNetwork>();
  udp_->set_backend_config(shape_.net);
  Network* net = udp_.get();
  if (tracer_ != nullptr) {
    traced_ = std::make_unique<TracingNetwork>(udp_.get(), tracer_);
    net = traced_.get();
  }
  EndpointConfig config;
  config.mode = StackMode::kMachine;
  config.layers = TenLayerStack();
  config.pack_messages = shape_.pack;
  for (int r = 0; r < shape_.members; r++) {
    auto ep = std::make_unique<GroupEndpoint>(EndpointId{static_cast<uint64_t>(r + 1)},
                                              net, config);
    ep->OnDeliver([this, r](const Event& ev) {
      Span s(tracer_, Seg::kBenchCb);
      OnDeliver(r, ev);
    });
    eps_.push_back(std::move(ep));
  }
  next_expected_.assign(static_cast<size_t>(shape_.members),
                        std::vector<uint64_t>(2 * static_cast<size_t>(shape_.members), 0));
  order_pos_.assign(static_cast<size_t>(shape_.members), 0);
}

// Members go first: they detach through the decorator, which goes before
// the network it forwards to.
GroupRun::~GroupRun() { eps_.clear(); }

bool GroupRun::ok() const { return udp_->ok(); }

bool GroupRun::backend_as_asked() const {
  return udp_->active_backend() == shape_.net.backend;
}

void GroupRun::Start() {
  auto view = std::make_shared<View>();
  view->vid = ViewId{0, 1};
  for (int r = 0; r < shape_.members; r++) {
    view->members.push_back(EndpointId{static_cast<uint64_t>(r + 1)});
  }
  for (auto& ep : eps_) {
    ep->Start(view);
  }
}

bool GroupRun::FirstCast(uint64_t timeout_ns) {
  uint64_t seq = next_seq_;
  CastOne();
  eps_[0]->Flush();
  const Slot& s = ring_[seq & (kRingSlots - 1)];
  uint64_t deadline = NowNanos() + timeout_ns;
  while (s.active && s.seq == seq && s.cast_arrived < shape_.members) {
    if (NowNanos() > deadline) {
      return false;
    }
    udp_->Poll();
  }
  return s.cast_verified == shape_.members;
}

void GroupRun::CastOne() {
  uint64_t seq = next_seq_++;
  Slot& s = ring_[seq & (kRingSlots - 1)];
  if (s.active) {
    std::fprintf(stderr, "perfbench: completion ring overrun\n");
    std::abort();
  }
  s = Slot{};
  s.seq = seq;
  s.active = true;
  s.in_window = measuring_;
  if (measuring_) {
    result_.attempted++;
    result_.expected += static_cast<uint64_t>(shape_.members) + (shape_.reply ? 1 : 0);
    result_.bench_allocs++;
  }
  outstanding_++;
  Bytes payload;
  {
    Span span(tracer_, Seg::kBenchGen);
    payload = MakePayload(seed_, Header{group_, 0, seq, 0}, shape_.cast_bytes);
  }
  if (tracer_ != nullptr && shape_.reply) {
    tracer_->BeginRound();
  }
  s.t_cast = NowNanos();
  Span span(tracer_, Seg::kAppCast);
  eps_[0]->Cast(Iovec(std::move(payload)));
}

bool GroupRun::RunOps(uint64_t ops) {
  uint64_t target = done_ + ops;
  issuing_ = true;
  last_progress_ = NowNanos();
  while (done_ < target && NowNanos() - last_progress_ < kStallNanos) {
    Step();
  }
  issuing_ = false;
  return Drain() && done_ >= target;
}

bool GroupRun::Drain() {
  uint64_t deadline = NowNanos() + kStallNanos;
  while (outstanding_ > 0 && NowNanos() < deadline) {
    udp_->Poll();
  }
  return outstanding_ == 0;
}

void GroupRun::Step() {
  size_t topped_up = 0;
  while (issuing_ && outstanding_ < shape_.window) {
    CastOne();
    topped_up++;
  }
  if (topped_up > 0) {
    Span s(tracer_, Seg::kAppFlush);
    eps_[0]->Flush();
  }
  Span s(tracer_, Seg::kNetPoll);
  udp_->Poll();
}

WindowResult GroupRun::Measure(double warm_s, double seconds, CpuRotation* cpus,
                               bool record_latency, const std::function<void()>& at_start,
                               const std::function<void()>& at_end) {
  result_ = WindowResult{};
  issuing_ = true;
  uint64_t now = NowNanos();
  last_progress_ = now;
  uint64_t warm_end = now + static_cast<uint64_t>(warm_s * 1e9);
  while ((now = NowNanos()) < warm_end && now - last_progress_ < kStallNanos) {
    Step();
  }
  if (at_start) {
    at_start();
  }
  latency_ = record_latency ? &slice_latency_ : nullptr;
  measuring_ = true;
  uint64_t start = NowNanos();
  uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  uint64_t slice_start = start;
  uint64_t slice_done = 0;
  // Closes the slice ending at `t`: its rate and latency quantiles.
  auto close_slice = [&](uint64_t t) {
    result_.slice_rates.push_back(static_cast<double>(result_.completed - slice_done) /
                                  (static_cast<double>(t - slice_start) / 1e9));
    slice_done = result_.completed;
    slice_start = t;
    if (slice_latency_.kept() > 0) {
      result_.latency_samples += slice_latency_.seen();
      result_.slice_p50_ns.push_back(slice_latency_.Quantile(0.50));
      result_.slice_p90_ns.push_back(slice_latency_.Quantile(0.90));
      slice_latency_.Clear();
    }
  };
  while ((now = NowNanos()) < end && now - last_progress_ < kStallNanos) {
    Step();
    if (now - slice_start >= kSliceNanos) {
      close_slice(now);
      if (cpus != nullptr) {
        cpus->Next();
      }
    }
  }
  if (result_.completed > slice_done) {
    close_slice(now);
  }
  measuring_ = false;
  issuing_ = false;
  latency_ = nullptr;
  result_.seconds = static_cast<double>(now - start) / 1e9;
  if (at_end) {
    at_end();
  }
  result_.stalled = !Drain();
  return result_;
}

bool GroupRun::CheckDelivery(int rank, const Event& ev, Header* h) {
  bool send = ev.type == EventType::kDeliverSend;
  bool ok = ev.payload.size() == shape_.cast_bytes;
  ok = ok && h->group == group_;  // In-group delivery.
  ok = ok && ev.origin >= 0 && ev.origin < shape_.members &&
       h->origin == static_cast<uint32_t>(ev.origin);
  ok = ok && BodySum(ev.payload) == h->sum;  // Intact bytes.
  if (h->origin < static_cast<uint32_t>(shape_.members)) {
    // Per-origin FIFO with no gaps or duplicates.
    uint64_t& next = next_expected_[static_cast<size_t>(rank)][2 * h->origin + (send ? 1 : 0)];
    ok = ok && h->seq == next;
    next = h->seq + 1;
  }
  if (!send) {
    // Total-order agreement: every member's k-th cast delivery is the same.
    uint64_t k = order_pos_[static_cast<size_t>(rank)]++;
    OrderEntry& e = order_[k & (kOrderSlots - 1)];
    bool agree = true;
    if (e.pos == k) {
      agree = e.origin == h->origin && e.seq == h->seq;
    } else if (e.pos == UINT64_MAX || e.pos < k) {
      e = OrderEntry{k, h->origin, h->seq};
    } else {
      agree = false;  // This member lags the first by a whole ring.
    }
    if (!agree) {
      order_failures_++;
      ok = false;
    }
  }
  if (!ok) {
    check_failures_++;
  }
  return ok;
}

void GroupRun::OnDeliver(int rank, const Event& ev) {
  uint64_t now = NowNanos();
  Header h;
  if (!ReadHeader(ev.payload, &h)) {
    check_failures_++;
    return;
  }
  bool ok = CheckDelivery(rank, ev, &h);
  Slot& s = ring_[h.seq & (kRingSlots - 1)];
  if (!s.active || s.seq != h.seq) {
    if (ok) {
      check_failures_++;  // A delivery no outstanding operation owes.
    }
    return;
  }
  if (ev.type == EventType::kDeliverCast) {
    s.cast_arrived++;
    s.cast_verified += ok ? 1 : 0;
    if (shape_.reply && rank == 1) {
      if (measuring_) {
        result_.bench_allocs++;
      }
      Bytes reply = MakePayload(seed_, Header{group_, 1, h.seq, 0}, shape_.cast_bytes);
      Span span(tracer_, Seg::kAppSend);
      eps_[1]->Send(0, Iovec(std::move(reply)));
    }
  } else if (ev.type == EventType::kDeliverSend && shape_.reply && rank == 0) {
    s.reply_arrived = true;
    s.reply_verified = ok;
    if (tracer_ != nullptr) {
      tracer_->EndRound();
    }
  }
  MaybeComplete(s, now);
}

void GroupRun::MaybeComplete(Slot& s, uint64_t now) {
  if (s.cast_arrived < shape_.members || (shape_.reply && !s.reply_arrived)) {
    return;
  }
  s.active = false;
  outstanding_--;
  done_++;
  last_progress_ = now;
  if (s.in_window) {
    bool reply_ok = !shape_.reply || s.reply_verified;
    result_.verified += static_cast<uint64_t>(s.cast_verified) + (shape_.reply && reply_ok ? 1 : 0);
    if (s.cast_verified == shape_.members && reply_ok) {
      result_.ops_ok++;
    }
  }
  if (measuring_) {
    result_.completed++;
    if (latency_ != nullptr) {
      latency_->Add(now - s.t_cast);
    }
  }
}

}  // namespace perfbench
}  // namespace ensemble
