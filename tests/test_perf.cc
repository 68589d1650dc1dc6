// Unit tests: performance instrumentation — ELF symbol sizes, the latency
// harness, the CCP micro-measurement, and perf counters.

#include <gtest/gtest.h>

#include "src/perf/elf_symbols.h"
#include "src/perf/latency_harness.h"
#include "src/perf/perf_counters.h"
#include "src/perf/timer.h"

namespace ensemble {
namespace {

TEST(ElfSymbolsTest, LoadsOwnSymtab) {
  ElfSymbolTable table;
  ASSERT_TRUE(table.loaded());
  EXPECT_GT(table.symbol_count(), 100u);
}

TEST(ElfSymbolsTest, FindsLayerHandlersByName) {
  ElfSymbolTable table;
  uint64_t up_total = 0;
  for (const SymbolInfo* s : table.FindAllByNameSubstring("MnakLayer2UpE")) {
    up_total += s->size;  // Hot part + .cold fragments.
  }
  EXPECT_GT(up_total, 100u);  // A real function, not a stub.
  EXPECT_FALSE(table.FindAllByNameSubstring("Layer2DnE").empty());
}

TEST(ElfSymbolsTest, FindByAddressResolvesFunctions) {
  ElfSymbolTable table;
  // A plain C-linkage-free function in our binary: use CodeSizeOf on a
  // non-virtual function pointer target.
  const SymbolInfo* sym = table.FindByAddress(reinterpret_cast<const void*>(&NowNanos));
  if (sym != nullptr) {  // May be inlined away entirely; only check when found.
    EXPECT_GT(sym->size, 0u);
  }
  EXPECT_EQ(table.FindByAddress(nullptr), nullptr);
}

TEST(LatencyHarnessTest, AllModesMeasurePositiveLatencies) {
  for (StackMode mode : {StackMode::kImperative, StackMode::kFunctional, StackMode::kMachine}) {
    LatencyConfig config;
    config.mode = mode;
    config.layers = TenLayerStack();
    config.reps = 200;
    PhaseLatency lat = MeasureCodeLatency(config);
    EXPECT_GT(lat.down_stack_ns, 0.0) << StackModeName(mode);
    EXPECT_GT(lat.up_stack_ns, 0.0) << StackModeName(mode);
    EXPECT_GT(lat.total_ns(), 0.0) << StackModeName(mode);
  }
}

TEST(LatencyHarnessTest, HandModeMeasuresFourLayer) {
  LatencyConfig config;
  config.mode = StackMode::kHand;
  config.layers = FourLayerStack();
  config.reps = 200;
  PhaseLatency lat = MeasureCodeLatency(config);
  EXPECT_GT(lat.total_ns(), 0.0);
}

TEST(LatencyHarnessTest, MachBeatsFunc) {
  // The paper's core result, as a regression gate: the compiled bypass must
  // be at least 2x faster than the functional stack (paper: 4x).
  LatencyConfig mach;
  mach.mode = StackMode::kMachine;
  mach.reps = 3000;
  LatencyConfig func = mach;
  func.mode = StackMode::kFunctional;
  double m = MeasureCodeLatency(mach).total_ns();
  double f = MeasureCodeLatency(func).total_ns();
  EXPECT_LT(m * 2.0, f) << "MACH " << m << " ns vs FUNC " << f << " ns";
}

TEST(LatencyHarnessTest, CcpCheckIsSmallFractionOfRound) {
  double ccp = MeasureCcpCheckNs(TenLayerStack(), 20000);
  EXPECT_GT(ccp, 0.0);
  LatencyConfig config;
  config.mode = StackMode::kMachine;
  config.reps = 3000;
  double round = MeasureCodeLatency(config).total_ns();
  EXPECT_LT(ccp, round * 0.5);  // Paper: ~9%.
}

TEST(LatencyHarnessTest, SendRecvRoundsDeliverEverything) {
  EXPECT_EQ(RunSendRecvRounds(StackMode::kFunctional, TenLayerStack(), 100), 100u);
  EXPECT_EQ(RunSendRecvRounds(StackMode::kMachine, TenLayerStack(), 100), 100u);
  EXPECT_EQ(RunSendRecvRounds(StackMode::kHand, FourLayerStack(), 100), 100u);
  EXPECT_EQ(RunSendRecvRounds(StackMode::kImperative, FourLayerStack(), 100), 100u);
}

TEST(PerfCountersTest, StartStopNeverCrashes) {
  PerfCounterGroup group;
  group.Start();
  volatile uint64_t sink = 0;
  for (int i = 0; i < 100000; i++) {
    sink = sink + static_cast<uint64_t>(i);
  }
  auto readings = group.Stop();
  if (group.available()) {
    EXPECT_FALSE(readings.empty());
    for (const auto& r : readings) {
      EXPECT_FALSE(r.name.empty());
    }
  } else {
    EXPECT_TRUE(readings.empty());  // Graceful fallback.
  }
}

TEST(PhaseTimerTest, AccumulatesAcrossStartStop) {
  PhaseTimer t;
  t.Start();
  volatile int x = 0;
  for (int i = 0; i < 10000; i++) {
    x = x + i;
  }
  t.Stop();
  uint64_t first = t.total_ns();
  EXPECT_GT(first, 0u);
  t.Start();
  t.Stop();
  EXPECT_GE(t.total_ns(), first);
  t.Reset();
  EXPECT_EQ(t.total_ns(), 0u);
}

}  // namespace
}  // namespace ensemble
