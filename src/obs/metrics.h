// Metrics registry: one named place for every counter in the system.
//
// The paper's whole method is cost accounting — Tables 1–2 and Fig. 6 exist
// because every layer's time and every allocation was attributable.  Each
// subsystem keeps its own stats struct (NetworkStats, DispatchStats,
// TaskQueueStats, WakerStats, pool stats) as the hot-path representation
// (plain RelaxedCounter fields, no indirection where the work happens); this
// registry makes them *reportable*: each shard registers its instances under
// stable names, and Snapshot() is the single aggregation path — it merges
// per-shard sources (sum, or max for high-water fields), and its text/JSON
// exporters are the single rendering path for benches and tests.
//
// Three metric kinds:
//   counter   — monotonic uint64, read from a RelaxedCounter* or a callback.
//   gauge     — instantaneous int64 from a callback (resident counts, active
//               backend, EWMA); never merged across sources — register
//               gauges under per-shard names.
//   histogram — log2-bucketed distribution (latencies, batch sizes) backed by
//               RelaxedCounter buckets; merged bucket-wise across shards.
//
// Thread-safety: registration is mutex-guarded and happens at setup time;
// Snapshot() may run concurrently with writers (relaxed reads — a live
// snapshot is approximate, an after-join snapshot is exact).  Registered
// pointers/callbacks must outlive the registry reads; the ShardRuntime owns
// both its registry and every source it registers.

#ifndef ENSEMBLE_SRC_OBS_METRICS_H_
#define ENSEMBLE_SRC_OBS_METRICS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/counters.h"

namespace ensemble {
namespace obs {

class JsonWriter;

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

// How multiple sources registered under one name combine at snapshot time.
enum class Agg : uint8_t { kSum, kMax };

// Log2 histogram: value v lands in bucket floor(log2(v)) (v=0 in bucket 0).
// 64 buckets cover the whole uint64 range, so nanosecond latencies and byte
// counts share the type.  Observe() is two relaxed increments + one add.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Observe(uint64_t v) {
    buckets_[BucketOf(v)]++;
    count_++;
    sum_ += v;
  }

  static size_t BucketOf(uint64_t v) {
    return v == 0 ? 0 : static_cast<size_t>(63 - __builtin_clzll(v));
  }
  // Inclusive upper bound of bucket i (its values are < 2^(i+1)).
  static uint64_t BucketCeil(size_t i) {
    return i >= 63 ? UINT64_MAX : (uint64_t{2} << i) - 1;
  }

  uint64_t count() const { return count_.value(); }
  uint64_t sum() const { return sum_.value(); }
  uint64_t bucket(size_t i) const { return buckets_[i].value(); }

 private:
  RelaxedCounter buckets_[kBuckets];
  RelaxedCounter count_;
  RelaxedCounter sum_;
};

// One merged metric in a snapshot.
struct Sample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  Agg agg = Agg::kSum;
  int sources = 0;     // Instances merged into this sample.
  uint64_t value = 0;  // Counter total / gauge reading (two's-complement).
  // Histogram payload (kind == kHistogram).
  uint64_t count = 0;
  uint64_t sum = 0;
  std::vector<uint64_t> buckets;

  double Mean() const { return count == 0 ? 0 : static_cast<double>(sum) / static_cast<double>(count); }
  // Percentile estimate (bucket upper bound), q in [0,1].
  uint64_t Percentile(double q) const;
};

class MetricsSnapshot {
 public:
  // Sorted by name.
  std::vector<Sample> samples;

  const Sample* Find(std::string_view name) const;
  uint64_t Value(std::string_view name) const;  // 0 when absent.

  // Counters and histograms become differences vs `prev` (missing in prev =
  // unchanged since zero); gauges keep their current reading.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& prev) const;

  // Human-readable table.  skip_zero drops all-zero counters/histograms so
  // periodic deltas stay short; gauges always print.
  std::string Text(bool skip_zero = true) const;
  // One JSON object {"name": value, ...}; histograms become sub-objects with
  // count/sum/mean/p50/p99 plus non-empty buckets.  Always complete (no
  // zero-skipping): this is the machine-readable export.
  std::string Json() const;
  // Appends the same object into an in-progress writer (benches embed it).
  void AppendJson(JsonWriter& w) const;
};

class MetricsRegistry {
 public:
  using ReadFn = std::function<uint64_t()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registers a counter source.  The same name may be registered many times
  // (one per shard); Snapshot() merges with `agg`.
  void Counter(std::string name, const RelaxedCounter* c, Agg agg = Agg::kSum);
  // Counter read through a callback (plain uint64_t fields, computed values).
  void CounterFn(std::string name, ReadFn fn, Agg agg = Agg::kSum);
  // Instantaneous value; not merged — use distinct (per-shard) names.
  void Gauge(std::string name, std::function<int64_t()> fn);
  // Registry-owned histogram; returns the instance to observe into.  Same
  // name from several shards merges bucket-wise.
  LatencyHistogram* Histogram(std::string name);
  // External histogram (caller-owned storage).
  void HistogramSource(std::string name, const LatencyHistogram* h);

  MetricsSnapshot Snapshot() const;
  size_t NumEntries() const;

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    Agg agg = Agg::kSum;
    const RelaxedCounter* counter = nullptr;
    ReadFn read;
    std::function<int64_t()> gauge;
    const LatencyHistogram* hist = nullptr;
  };

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::deque<std::unique_ptr<LatencyHistogram>> owned_;
};

}  // namespace obs
}  // namespace ensemble

#endif  // ENSEMBLE_SRC_OBS_METRICS_H_
