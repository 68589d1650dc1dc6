// Seeded adversarial scenario engine.
//
// The paper's reliability argument is compositional: each layer refines its
// I/O-automata spec, so the stack refines the composed spec.  The executable
// side of that argument is only as strong as the behaviors the monitors
// actually see (CAMP makes the same point statically), and well-behaved
// two-host runs barely exercise them.  This engine generates adversarial
// schedules from a 64-bit seed — member churn storms, network partitions and
// merges, message-loss and reorder bursts, placement-skew flips, and
// many-group soaks — executes them on the simulated discrete-event plane
// (GroupHarness over SimQueue/SimNetwork) and the sharded-runtime plane
// (ShardRuntime, channel backend), and judges every run with the spec
// monitors (src/spec/monitors.h) plus the span-shape checker
// (src/scenario/span_check.h) as oracles.
//
// Reproducibility contract: every decision the generator makes flows from
// ScenarioConfig::seed through explicit Rng streams; the same config reruns
// the same schedule, and every executed operation is journaled into
// ScenarioResult::schedule.  A failing run (with artifact_dir set) dumps the
// schedule and, for runtime-plane scenarios, the TRACE_*.json of a traced
// re-execution.

#ifndef ENSEMBLE_SRC_SCENARIO_SCENARIO_H_
#define ENSEMBLE_SRC_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ensemble {
namespace scenario {

enum class ScenarioClass {
  // Simulated plane, total-order stack, stable membership: loss / duplicate /
  // reorder bursts flipped on and off mid-run.  Oracles: reliable FIFO,
  // no-duplicates, total-order agreement.
  kLossBurst,
  // Simulated plane, total-order stack: the group is split into two halves,
  // both keep sending, the partition heals, retransmission must repair every
  // gap.  Oracles: reliable FIFO, no-duplicates, total-order agreement.
  kPartitionHeal,
  // Simulated plane, membership stack: crash / join / rejoin bursts driving
  // real view changes (suspect → elect → sync → intra).  Oracles: FIFO
  // prefix among full participants, payload-level no-duplicates, virtual
  // synchrony across matched view transitions.
  kChurnStorm,
  // Sharded-runtime plane (channel backend): pair groups built with a skewed
  // placement, migrated between shards mid-traffic on generator impulses.
  // Oracles: delivery completeness, in-group delivery (every delivered cast
  // came from the receiver's own pair), and migration/overload span shapes
  // over the merged trace rings.
  kShardSkew,
  // Everything at once: num_groups simulated groups with a generator-chosen
  // mix of the three simulated classes above, plus one sharded-runtime
  // component with skew flips.  The acceptance gate for "1000 concurrent
  // groups under churn + partition + loss with every oracle green".
  kSoak,
};

const char* ScenarioClassName(ScenarioClass c);

struct ScenarioConfig {
  ScenarioClass cls = ScenarioClass::kLossBurst;
  uint64_t seed = 1;

  int group_size = 4;       // Members per simulated group.
  int rounds = 12;          // Traffic/fault rounds per group.
  int casts_per_round = 3;  // Casts injected per round (generator-chosen senders).
  int num_groups = 8;       // kSoak: concurrent simulated groups.

  int shard_members = 32;   // kShardSkew/kSoak: runtime-plane endpoints (pair groups).
  int shard_workers = 4;    // Runtime-plane worker threads.
  int skew_flips = 6;       // Placement flips injected mid-run.

  // Fault injection (self-test of the oracles): stack a deliberately broken
  // layer and expect the monitors to flag it.  fifo: src/layers/fifo_buggy.h
  // swaps adjacent casts; total: src/layers/total_buggy.h delivers global
  // sequence numbers with >= instead of ==.
  bool inject_fifo_bug = false;
  bool inject_total_bug = false;

  // Non-empty: a failing run writes SCHEDULE_<class>_<seed>.txt (op journal
  // + violations) here, and runtime-plane failures also write
  // TRACE_scenario_<seed>.json from a traced re-execution.
  std::string artifact_dir;
};

struct ScenarioResult {
  bool ok = false;
  ScenarioClass cls = ScenarioClass::kLossBurst;
  uint64_t seed = 0;
  std::vector<std::string> violations;

  // Census of what the schedule actually did (sanity that a "green" run was
  // not vacuously quiet).
  int groups_run = 0;
  uint64_t casts_sent = 0;
  uint64_t deliveries = 0;
  uint64_t views_installed = 0;
  uint64_t crashes = 0;
  uint64_t joins = 0;
  uint64_t partitions = 0;
  uint64_t loss_bursts = 0;
  uint64_t migrations = 0;

  // The executed operation journal, one line per generator decision; with
  // the seed this IS the schedule (dumped to the SCHEDULE artifact).
  std::vector<std::string> schedule;

  std::string ToString() const;  // One summary line + violations.
};

// Runs one scenario.  Deterministic on the simulated plane; the runtime
// plane is real threads, so its interleavings vary but its oracles hold for
// every interleaving.
ScenarioResult RunScenario(const ScenarioConfig& config);

struct SweepResult {
  int runs = 0;
  int failures = 0;
  std::vector<uint64_t> failing_seeds;
  bool ok() const { return failures == 0; }
};

// Runs `count` scenarios with seeds base_seed, base_seed+1, … stopping early
// once `wall_clock_budget_ms` is spent (always runs at least one).  Each
// failure prints its reproducing seed to `log` (may be null).
SweepResult RunSeedSweep(ScenarioConfig config, uint64_t base_seed, int count,
                         int64_t wall_clock_budget_ms, std::ostream* log);

}  // namespace scenario
}  // namespace ensemble

#endif  // ENSEMBLE_SRC_SCENARIO_SCENARIO_H_
