#!/usr/bin/env sh
# Tier-1 gate: configure, build, and run the test suite.  This is the exact
# sequence CI runs; run it locally before pushing.
#
# One script, one leg matrix.  Every leg flows through the same
# configure/build/ctest/smoke pipeline below; the case statement only sets
# the per-leg knobs (build dir, cmake flags, environment, test selection,
# post-suite smoke benches), so adding a leg is one case arm.
#
#   (none)      full suite + skew scheduler smoke + scaling smoke (1 and 2
#               workers over UDP, BENCH_scaling.json checked) + the
#               perfbench package built with warnings as errors,
#               perfbench_defects run, and every perfbench workload run end
#               to end for a second
#   --tsan      separate tree, -DENSEMBLE_TSAN=ON: concurrency suite (worker
#               task queue + every suite on the ShardNetwork base: its
#               contract on both networks, channel mailboxes, every UdpNetwork
#               suite incl. handoff and pressure, the sharded runtime and the
#               scenario classes that migrate on it + observability +
#               overload control on the runtime, whose kill-shed drops from
#               mailboxes that other shards push into) under ThreadSanitizer
#   --notrace   separate tree, -DENSEMBLE_TRACE=OFF (ENS_TRACE compiled out)
#   --nouring   separate tree, -DENSEMBLE_URING=OFF (io_uring stubbed): the
#               mmsg fallback must carry every uring-tagged configuration
#   --overload  overload-control tests + bench_overload --smoke: the 10x
#               sustained-load gate (bounded memory, graceful p99, every
#               ladder rung firing) plus strict validation of
#               BENCH_overload.json and TRACE_overload.json
#   --scenario  scenario-engine tests + bench_scenario --smoke: bounded seed
#               sweep over every adversarial class, the thousand-group soak,
#               and the injected-bug oracle self-test; a failing seed prints
#               on stdout and leaves SCHEDULE_*/TRACE_* artifacts in build/
#   --asan      separate tree under AddressSanitizer + UndefinedBehaviorSanitizer
#               with libstdc++ assertions: full suite + bench_scenario --smoke;
#               any memory error or undefined behaviour fails the run
#
# "Full suite" is every ctest entry: ensemble_tests and ensemble_alloc_tests
# (steady-state operator new counts of the compiled routes and of
# UdpNetwork's Send + Flush on each backend — eager, mmsg and uring, where
# the nouring leg's uring case checks the fallback to mmsg and counts that;
# it skips itself under a sanitizer, so it counts in the default, notrace
# and nouring legs).
set -eu

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
LEG="${1:-default}"
LEG="${LEG#--}"

BUILD_DIR=build
CMAKE_FLAGS=""
BUILD_TARGET=""
CTEST_ARGS="-j $JOBS"
SMOKES=""

case "$LEG" in
  default)  SMOKES="skew scaling perfbench" ;;
  tsan)     BUILD_DIR=build-tsan; CMAKE_FLAGS="-DENSEMBLE_TSAN=ON"
            BUILD_TARGET="--target ensemble_tests"
            # Any reported race fails the run even if the tests pass.
            export TSAN_OPTIONS="halt_on_error=0 exitcode=66"
            CTEST_ARGS="-R TaskQueue|ShardNetwork|ChannelNetwork|Udp|ShardRuntime|ScenarioTest.(ShardSkew|SmallSoak)|Obs|OverloadRuntime" ;;
  notrace)  BUILD_DIR=build-notrace; CMAKE_FLAGS="-DENSEMBLE_TRACE=OFF" ;;
  nouring)  BUILD_DIR=build-nouring; CMAKE_FLAGS="-DENSEMBLE_URING=OFF" ;;
  overload) CTEST_ARGS="-R Overload|Watermark|SendWindow|LiveCounter|BufferPool"
            SMOKES="overload" ;;
  scenario) CTEST_ARGS="-R Scenario|SpanCheck|SimQueueReplay|OverloadLadder"
            SMOKES="scenario" ;;
  asan)     BUILD_DIR=build-asan
            # CMake seeds a fresh tree's compile and link flags from these.
            export CXXFLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS"
            export LDFLAGS="-fsanitize=address,undefined"
            SMOKES="scenario" ;;
  *) echo "unknown leg: $LEG" >&2; exit 2 ;;
esac

# Strict artifact check: non-empty and parseable.
json_check() {
  test -s "$1"
  python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$1" \
    && echo "$1: valid JSON"
}

# One perfbench run of workload $1 (further arguments passed on): it must
# exit 0, which means every cast delivered, in order, with its checks met.
# Exit 2 is a skip only where the datapath it asks for is missing: no UDP
# sockets at all, or no io_uring for stream.
run_perfbench() {
  workload="$1"
  shift
  rc=0
  ./perfbench/perfbench --workload "$workload" --seed 1 "$@" > perfbench_run.out 2>&1 || rc=$?
  if [ "$rc" -eq 2 ] && grep -q "UDP sockets unavailable" perfbench_run.out; then
    echo "perfbench $workload: skipped (no UDP sockets)"
    return 0
  fi
  if [ "$rc" -eq 2 ] && [ "$workload" = stream ] &&
     grep -q "uring backend unavailable" perfbench_run.out; then
    echo "perfbench $workload: skipped (no io_uring)"
    return 0
  fi
  if [ "$rc" -ne 0 ]; then
    cat perfbench_run.out
    echo "perfbench $workload $*: exit $rc" >&2
    exit 1
  fi
  echo "perfbench $workload $*: $(tail -n 1 perfbench_run.out)"
}

# Post-suite smoke benches.  Each one skips itself cleanly when the
# environment has no UDP sockets (the benches print "unavailable"); with
# sockets it must also emit parseable artifacts.
run_smoke() {
  case "$1" in
    skew)
      # Shrunk skew run: fails if work stealing stops moving endpoints, and
      # the result file and Chrome trace export must stay loadable.
      rm -f BENCH_skew.json TRACE_skew.json
      ./bench/bench_skew --smoke > skew_smoke.out 2>&1 || { cat skew_smoke.out; exit 1; }
      cat skew_smoke.out
      if ! grep -q "unavailable" skew_smoke.out; then
        json_check BENCH_skew.json
        json_check TRACE_skew.json
      fi
      ;;
    scaling)
      # One 1-worker and one 2-worker configuration with sub-second windows:
      # bench_scaling exits nonzero when a configuration moves no traffic,
      # and its result file must stay loadable.
      rm -f BENCH_scaling.json
      ./bench/bench_scaling --smoke > scaling_smoke.out 2>&1 \
        || { cat scaling_smoke.out; exit 1; }
      cat scaling_smoke.out
      if ! grep -q "unavailable" scaling_smoke.out; then
        json_check BENCH_scaling.json
      fi
      ;;
    perfbench)
      # The benchmark package compiles the library on its own, and its
      # tracing Network decorator overrides library methods: build it here so
      # a library change that breaks it fails CI, not the next benchmark run.
      # perfbench_defects exits nonzero while a recorded defect reproduces.
      cmake -B perfbench -S ../perfbench -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
      cmake --build perfbench -j "$JOBS" --target perfbench perfbench_defects
      ./perfbench/perfbench_defects
      # Every workload end to end: a fast-path change that loses or reorders
      # a delivery fails here.  Traced pingpong also enforces its Table 1
      # accounting (segments leave at most 10% of a round unaccounted).
      for workload in pingpong stream bulk; do
        run_perfbench "$workload" --seconds 1 --trace 0
      done
      run_perfbench pingpong --seconds 1 --trace 1
      ;;
    overload)
      # 10x sustained offered load: bench_overload exits nonzero unless the
      # manager bounds memory under the byte watermark, keeps delivered p99
      # within 5x of the 1x baseline, and fires every ladder rung (channel
      # backend — no sockets needed, so this never skips).
      rm -f BENCH_overload.json TRACE_overload.json
      ./bench/bench_overload --smoke > overload_smoke.out 2>&1 \
        || { cat overload_smoke.out; exit 1; }
      cat overload_smoke.out
      json_check BENCH_overload.json
      json_check TRACE_overload.json
      ;;
    scenario)
      # Seeded adversarial gate: bounded sweep over every scenario class, the
      # thousand-group soak, and the injected-bug self-test (bench_scenario
      # exits nonzero on any red run or if the planted bugs go uncaught).  A
      # failure prints the reproducing seed and leaves SCHEDULE_* / TRACE_*
      # artifacts here for upload (channel + sim planes — no sockets needed).
      rm -f BENCH_scenario.json SCHEDULE_*.txt TRACE_scenario_*.json
      ./bench/bench_scenario --smoke > scenario_smoke.out 2>&1 \
        || { cat scenario_smoke.out; exit 1; }
      cat scenario_smoke.out
      json_check BENCH_scenario.json
      ;;
  esac
}

# Every leg builds with warnings as errors (CMake's own switch, 3.24+).
cmake -B "$BUILD_DIR" -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON $CMAKE_FLAGS
cmake --build "$BUILD_DIR" -j "$JOBS" $BUILD_TARGET
cd "$BUILD_DIR"
ctest --output-on-failure $CTEST_ARGS
for smoke in $SMOKES; do
  run_smoke "$smoke"
done
