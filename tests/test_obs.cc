// Observability subsystem: JSON writer/validator, metrics registry merge and
// delta semantics, trace-ring wraparound, and the Chrome trace export golden
// check.  The concurrent-writer tests also run in the TSan CI leg (the ctest
// regex matches "Obs").

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/app/harness.h"
#include "src/layers/mnak.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/stats_adapters.h"
#include "src/obs/trace.h"
#include "src/util/counters.h"

namespace ensemble {
namespace obs {
namespace {

// ---- protocol counters --------------------------------------------------------

TEST(ObsProtocol, GossipCountersAndRetransDepthMoveInFourMemberGroup) {
  MetricsRegistry reg;
  RegisterProtocolStats(reg);
  HarnessConfig config;
  config.n = 4;
  config.ep.mode = StackMode::kMachine;
  config.ep.params.stable_interval = 4;
  GroupHarness g(config);
  g.StartAll();
  MetricsSnapshot before = reg.Snapshot();
  auto depth = [&](const MetricsSnapshot& snap) {
    return static_cast<int64_t>(snap.Value("mnak.retrans_depth")) -
           static_cast<int64_t>(before.Value("mnak.retrans_depth"));
  };
  for (int i = 0; i < 20; i++) {
    for (int m = 0; m < 4; m++) {
      g.CastFrom(m, "c");
    }
  }
  // Member 0 holds the total-order token, so its 20 casts pass mnak at once
  // and wait in its retransmission buffer; the others wait for the token.
  int64_t peak = depth(reg.Snapshot());
  EXPECT_GE(peak, 20);
  g.Run(Millis(100));
  MetricsSnapshot now = reg.Snapshot();
  MetricsSnapshot delta = now.DeltaSince(before);
  uint64_t sent = delta.Value("collect.gossips_sent");
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(delta.Value("collect.gossips_recv"), 3 * sent);  // Perfect network.
  EXPECT_GT(delta.Value("collect.stable_advances"), 0u);
  // After quiescence the gauge is the four buffers' depth, which stability
  // has pruned below the peak: only casts no gossip reported yet remain.
  int64_t buffered = 0;
  for (int m = 0; m < 4; m++) {
    buffered += static_cast<int64_t>(
        static_cast<MnakLayer*>(g.member(m).stack()->FindLayer(LayerId::kMnak))
            ->retrans_buffer_size());
  }
  EXPECT_EQ(depth(now), buffered);
  EXPECT_LT(buffered, peak);
}

// ---- JSON writer + validator -----------------------------------------------

TEST(ObsJson, WriterBuildsNestedDocument) {
  JsonWriter w;
  w.BeginObject();
  w.KV("name", "a \"quoted\"\nvalue");
  w.KV("count", uint64_t{42});
  w.KV("ratio", 1.5);
  w.KV("neg", int64_t{-7});
  w.KV("flag", true);
  w.Key("list").BeginArray();
  w.Value(1).Value(2).Value(3);
  w.EndArray();
  w.Key("empty").BeginObject().EndObject();
  w.Key("empty_list").BeginArray().EndArray();
  w.EndObject();
  std::string doc = w.Take();

  std::string error;
  EXPECT_TRUE(ValidateJson(doc, &error)) << error << "\n" << doc;
  EXPECT_NE(doc.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(doc.find("\\n"), std::string::npos);
  EXPECT_NE(doc.find("\"list\":[1,2,3]"), std::string::npos);
}

TEST(ObsJson, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(ValidateJson("{}"));
  EXPECT_TRUE(ValidateJson("[]"));
  EXPECT_TRUE(ValidateJson("  {\"a\": [1, -2.5e3, true, false, null, \"s\"]} "));
  EXPECT_TRUE(ValidateJson("\"bare string\""));
  EXPECT_TRUE(ValidateJson("42"));

  std::string error;
  EXPECT_FALSE(ValidateJson("", &error));
  EXPECT_FALSE(ValidateJson("{", &error));
  EXPECT_FALSE(ValidateJson("{\"a\":}", &error));
  EXPECT_FALSE(ValidateJson("[1,]", &error));
  EXPECT_FALSE(ValidateJson("{\"a\":1} trailing", &error));
  EXPECT_FALSE(ValidateJson("{'single': 1}", &error));
  EXPECT_FALSE(ValidateJson("[1, 01]", &error));
  EXPECT_FALSE(error.empty());
}

TEST(ObsJson, ValidatorBoundsDepth) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ValidateJson(deep));
  std::string ok(32, '[');
  ok += std::string(32, ']');
  EXPECT_TRUE(ValidateJson(ok));
}

// ---- Metrics registry ------------------------------------------------------

TEST(ObsMetrics, MergesCountersAcrossSources) {
  RelaxedCounter a, b, hw1, hw2;
  a += 10;
  b += 32;
  hw1 = 5;
  hw2 = 9;
  MetricsRegistry reg;
  reg.Counter("x.total", &a);
  reg.Counter("x.total", &b);  // Second shard, same name: sums.
  reg.Counter("x.high_water", &hw1, Agg::kMax);
  reg.Counter("x.high_water", &hw2, Agg::kMax);
  reg.CounterFn("x.fn", [] { return uint64_t{7}; });
  reg.Gauge("x.shard0.g", [] { return int64_t{-3}; });

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("x.total"), 42u);
  EXPECT_EQ(snap.Find("x.total")->sources, 2);
  EXPECT_EQ(snap.Value("x.high_water"), 9u);
  EXPECT_EQ(snap.Value("x.fn"), 7u);
  EXPECT_EQ(static_cast<int64_t>(snap.Value("x.shard0.g")), -3);
  EXPECT_EQ(snap.Value("x.absent"), 0u);
  // Sorted by name.
  for (size_t i = 1; i < snap.samples.size(); i++) {
    EXPECT_LT(snap.samples[i - 1].name, snap.samples[i].name);
  }
}

TEST(ObsMetrics, HistogramMergesAcrossShards) {
  MetricsRegistry reg;
  LatencyHistogram* h0 = reg.Histogram("lat.ns");  // "Shard 0".
  LatencyHistogram* h1 = reg.Histogram("lat.ns");  // "Shard 1".
  for (int i = 0; i < 100; i++) {
    h0->Observe(100);  // Bucket 6.
  }
  for (int i = 0; i < 100; i++) {
    h1->Observe(5000);  // Bucket 12.
  }
  h1->Observe(0);

  MetricsSnapshot snap = reg.Snapshot();
  const Sample* s = snap.Find("lat.ns");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, MetricKind::kHistogram);
  EXPECT_EQ(s->sources, 2);
  EXPECT_EQ(s->count, 201u);
  EXPECT_EQ(s->sum, 100u * 100 + 100u * 5000);
  EXPECT_EQ(s->buckets[LatencyHistogram::BucketOf(100)], 100u);
  EXPECT_EQ(s->buckets[LatencyHistogram::BucketOf(5000)], 100u);
  EXPECT_EQ(s->buckets[0], 1u);
  // Percentiles come back as bucket ceilings: p25 in the low mode, p99 high.
  EXPECT_LE(s->Percentile(0.25), LatencyHistogram::BucketCeil(6));
  EXPECT_GE(s->Percentile(0.99), 4096u);
}

TEST(ObsMetrics, HistogramBucketBoundariesAtPowersOfTwo) {
  // An exact power of two 2^k is the *first* value of bucket k: BucketOf must
  // not round it down into bucket k-1, and the bucket's reported ceiling is
  // the last value before the next power of two.
  for (size_t k = 0; k < 63; k++) {
    uint64_t v = uint64_t{1} << k;
    EXPECT_EQ(LatencyHistogram::BucketOf(v), k) << "v=2^" << k;
    if (k > 0) {
      EXPECT_EQ(LatencyHistogram::BucketOf(v - 1), k - 1) << "v=2^" << k << "-1";
    }
    EXPECT_EQ(LatencyHistogram::BucketCeil(k),
              k >= 63 ? UINT64_MAX : (uint64_t{2} << k) - 1);
    EXPECT_EQ(LatencyHistogram::BucketOf(LatencyHistogram::BucketCeil(k)), k);
  }
  // Zero is special-cased into bucket 0 (no clz on 0).
  EXPECT_EQ(LatencyHistogram::BucketOf(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketOf(UINT64_MAX), 63u);
  EXPECT_EQ(LatencyHistogram::BucketCeil(63), UINT64_MAX);

  MetricsRegistry reg;
  LatencyHistogram* h = reg.Histogram("pow2.ns");
  h->Observe(1024);           // First value of bucket 10.
  h->Observe(2047);           // Last value of bucket 10.
  MetricsSnapshot snap = reg.Snapshot();
  const Sample* s = snap.Find("pow2.ns");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->buckets[10], 2u);
  // Every quantile of a one-bucket population is that bucket's ceiling.
  EXPECT_EQ(s->Percentile(0.0), 2047u);
  EXPECT_EQ(s->Percentile(0.5), 2047u);
  EXPECT_EQ(s->Percentile(1.0), 2047u);
}

TEST(ObsMetrics, HistogramSingleSampleQuantiles) {
  MetricsRegistry reg;
  LatencyHistogram* h = reg.Histogram("one.ns");
  h->Observe(300);  // Bucket 8 (256..511).
  MetricsSnapshot snap = reg.Snapshot();
  const Sample* s = snap.Find("one.ns");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 1u);
  EXPECT_EQ(s->sum, 300u);
  // With one sample every quantile resolves to its bucket ceiling — never 0,
  // never a neighbouring bucket.
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(s->Percentile(q), LatencyHistogram::BucketCeil(8)) << "q=" << q;
  }
}

TEST(ObsMetrics, HistogramMergeOfDisjointRanges) {
  // Shard 0 only ever sees sub-microsecond values, shard 1 only multi-ms
  // ones; the merged quantiles must switch modes exactly at the population
  // split, not blend the ranges.
  MetricsRegistry reg;
  LatencyHistogram* lo = reg.Histogram("disjoint.ns");
  LatencyHistogram* hi = reg.Histogram("disjoint.ns");
  for (int i = 0; i < 90; i++) {
    lo->Observe(500);  // Bucket 8.
  }
  for (int i = 0; i < 10; i++) {
    hi->Observe(4'000'000);  // Bucket 21.
  }
  MetricsSnapshot snap = reg.Snapshot();
  const Sample* s = snap.Find("disjoint.ns");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 100u);
  EXPECT_EQ(s->buckets[8], 90u);
  EXPECT_EQ(s->buckets[21], 10u);
  uint64_t lo_ceil = LatencyHistogram::BucketCeil(8);
  uint64_t hi_ceil = LatencyHistogram::BucketCeil(21);
  EXPECT_EQ(s->Percentile(0.50), lo_ceil);
  EXPECT_EQ(s->Percentile(0.90), lo_ceil);  // 90th sample is still low-mode.
  EXPECT_EQ(s->Percentile(0.95), hi_ceil);
  EXPECT_EQ(s->Percentile(0.99), hi_ceil);
}

TEST(ObsMetrics, DeltaSubtractsCountersKeepsGauges) {
  RelaxedCounter c;
  int64_t gauge_now = 5;
  MetricsRegistry reg;
  reg.Counter("d.count", &c);
  reg.Gauge("d.shard0.gauge", [&] { return gauge_now; });
  LatencyHistogram* h = reg.Histogram("d.hist");

  c += 10;
  h->Observe(8);
  MetricsSnapshot before = reg.Snapshot();

  c += 5;
  h->Observe(8);
  h->Observe(1 << 20);
  gauge_now = 11;
  MetricsSnapshot delta = reg.Snapshot().DeltaSince(before);

  EXPECT_EQ(delta.Value("d.count"), 5u);
  EXPECT_EQ(static_cast<int64_t>(delta.Value("d.shard0.gauge")), 11);
  const Sample* hs = delta.Find("d.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 2u);
  EXPECT_EQ(hs->buckets[LatencyHistogram::BucketOf(8)], 1u);
  EXPECT_EQ(hs->buckets[LatencyHistogram::BucketOf(1 << 20)], 1u);
}

TEST(ObsMetrics, TextAndJsonExporters) {
  RelaxedCounter c, z;
  c += 3;
  MetricsRegistry reg;
  reg.Counter("t.nonzero", &c);
  reg.Counter("t.zero", &z);
  reg.Histogram("t.hist")->Observe(1000);
  MetricsSnapshot snap = reg.Snapshot();

  std::string text = snap.Text();
  EXPECT_NE(text.find("t.nonzero"), std::string::npos);
  EXPECT_EQ(text.find("t.zero"), std::string::npos);  // skip_zero default.
  EXPECT_NE(snap.Text(false).find("t.zero"), std::string::npos);

  std::string json = snap.Json();
  std::string error;
  EXPECT_TRUE(ValidateJson(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"t.zero\""), std::string::npos);  // JSON is complete.
  EXPECT_NE(json.find("\"t.hist\""), std::string::npos);
}

// Snapshot-delta correctness with writers running: live snapshots are
// approximate but must be monotonic, and the after-join snapshot exact.
// (This test is in the TSan leg: the RelaxedCounter reads must be data-race
// free against the writer threads.)
TEST(ObsMetrics, SnapshotUnderConcurrentWriters) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 200000;
  std::vector<std::unique_ptr<RelaxedCounter>> counters;
  MetricsRegistry reg;
  for (int t = 0; t < kThreads; t++) {
    counters.push_back(std::make_unique<RelaxedCounter>());
    reg.Counter("cc.total", counters.back().get());
  }
  LatencyHistogram* hist = reg.Histogram("cc.hist");

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (uint64_t i = 0; i < kPerThread; i++) {
        (*counters[static_cast<size_t>(t)])++;
        if (i % 64 == 0) {
          hist->Observe(i + 1);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);

  MetricsSnapshot prev = reg.Snapshot();
  for (int i = 0; i < 50; i++) {
    MetricsSnapshot cur = reg.Snapshot();
    // Counters are monotonic, so live deltas never go negative...
    EXPECT_GE(cur.Value("cc.total"), prev.Value("cc.total"));
    // ...and DeltaSince agrees with direct subtraction.
    MetricsSnapshot delta = cur.DeltaSince(prev);
    EXPECT_EQ(delta.Value("cc.total"), cur.Value("cc.total") - prev.Value("cc.total"));
    prev = std::move(cur);
  }
  for (auto& th : threads) {
    th.join();
  }
  MetricsSnapshot final_snap = reg.Snapshot();
  EXPECT_EQ(final_snap.Value("cc.total"), kThreads * kPerThread);
  const Sample* hs = final_snap.Find("cc.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, kThreads * (kPerThread / 64));
}

// ---- Trace ring ------------------------------------------------------------

TEST(ObsTrace, RingWrapsOverwritingOldest) {
  TraceRing ring(6, /*shard=*/3);  // Rounds up to 8.
  EXPECT_EQ(ring.capacity(), 8u);
  for (uint64_t i = 0; i < 20; i++) {
    ring.Emit(TraceKind::kRingPush, static_cast<int32_t>(i), i, i * 2);
  }
  EXPECT_EQ(ring.total(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);

  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first: the surviving events are 12..19, in emit order.
  for (size_t i = 0; i < events.size(); i++) {
    EXPECT_EQ(events[i].a, 12 + i);
    EXPECT_EQ(events[i].b, 2 * (12 + i));
    EXPECT_EQ(events[i].shard, 3u);
  }
  for (size_t i = 1; i < events.size(); i++) {
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
}

TEST(ObsTrace, PartialRingSnapshotsInOrder) {
  TraceRing ring(16, 0);
  ring.Emit(TraceKind::kTimerFire, -1, 1, 0);
  ring.Emit(TraceKind::kWakeup, -1, 2, 0);
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, static_cast<uint16_t>(TraceKind::kTimerFire));
  EXPECT_EQ(events[1].kind, static_cast<uint16_t>(TraceKind::kWakeup));
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(ObsTrace, ThreadRingGateAndMacro) {
  TraceRing ring(16, 0);
  InstallThreadTraceRing(&ring);
  SetTraceEnabled(false);
  ENS_TRACE(kRingPush, 1, 2, 3);
  EXPECT_EQ(ring.total(), 0u);  // Gate off: single-branch no-op.

  SetTraceEnabled(true);
  ENS_TRACE(kRingPush, 1, 2, 3);
  SetTraceEnabled(false);
  InstallThreadTraceRing(nullptr);

  if (kTraceCompiledIn) {
    ASSERT_EQ(ring.total(), 1u);
    TraceEvent e = ring.Snapshot()[0];
    EXPECT_EQ(e.kind, static_cast<uint16_t>(TraceKind::kRingPush));
    EXPECT_EQ(e.member, 1);
    EXPECT_EQ(e.a, 2u);
    EXPECT_EQ(e.b, 3u);
  } else {
    EXPECT_EQ(ring.total(), 0u);  // Compiled out: zero bytes at call sites.
  }
  // Emitting with no thread ring installed must be safe.
  SetTraceEnabled(true);
  TraceToThreadRing(TraceKind::kWakeup, -1, 0, 0);
  SetTraceEnabled(false);
}

// Golden check: the Chrome trace export parses and carries the expected
// structure (thread tracks, instant events, async migration begin/end).
TEST(ObsTrace, ChromeTraceJsonParses) {
  TraceRing shard0(32, 0);
  TraceRing shard1(32, 1);
  shard0.Emit(TraceKind::kLayerDown, 2, 4, 0);
  shard0.Emit(TraceKind::kBypassDownPunt, 2, 6, 0);
  shard0.Emit(TraceKind::kStealRequest, -1, 0, 0);
  shard0.Emit(TraceKind::kHandoffStart, 7, 1, 0);   // Async begin on shard 0...
  shard1.Emit(TraceKind::kAdopt, 7, 0, 3);          // ...ends on shard 1.
  shard1.Emit(TraceKind::kRingDrain, -1, 5, 0);

  std::string json = ChromeTraceJson({&shard0, &shard1});
  std::string error;
  ASSERT_TRUE(ValidateJson(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"shard 0\""), std::string::npos);
  EXPECT_NE(json.find("\"shard 1\""), std::string::npos);
  // The migration lifecycle is an async begin/end pair with a shared id.
  EXPECT_NE(json.find("\"migration\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find(TraceKindName(TraceKind::kBypassDownPunt)), std::string::npos);
}

TEST(ObsTrace, WriteChromeTraceRoundTripsThroughFile) {
  TraceRing ring(16, 0);
  ring.Emit(TraceKind::kTimerFire, -1, 2, 0);
  std::string path = ::testing::TempDir() + "obs_trace_golden.json";
  ASSERT_TRUE(WriteChromeTrace(path, {&ring}));
  std::string error;
  EXPECT_TRUE(ValidateJsonFile(path, &error)) << error;
  std::remove(path.c_str());
}

TEST(ObsTrace, EmptyRingSetStillValidJson) {
  TraceRing ring(8, 0);
  std::string json = ChromeTraceJson({&ring});
  std::string error;
  EXPECT_TRUE(ValidateJson(json, &error)) << error << "\n" << json;
  EXPECT_TRUE(ValidateJson(ChromeTraceJson({}), &error)) << error;
}

}  // namespace
}  // namespace obs
}  // namespace ensemble
