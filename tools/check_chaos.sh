#!/usr/bin/env bash
# Builds the repo with ASan+UBSan (-DPERDNN_SANITIZE=address) and runs the
# robustness surface under it: the fault-plan/timeline unit tests, the
# retry-queue tests (both payloads), the end-to-end fault simulations, the
# fault-plan determinism gates (serial and sharded), and bench_chaos smoke
# runs (sweep + scripted plan + sharded fault scenario + strict-flag
# rejection). A second leg rebuilds with -DPERDNN_SIMD=OFF and re-runs the
# sharded fault suite so the scalar kernels get the same sanitizer coverage
# as the vector ones. Any sanitizer report fails the script.
#
# The fault-plan decoder leg feeds `perdnn simulate --fault-plan` malformed
# plans (out-of-range and fractional numbers, a window ending past INT_MAX,
# broken JSON, an unknown kind, an entity outside the world) and requires a
# clean exit 2 for each under the sanitizers, and exit 0 for a valid plan.
# Four legs in the same style follow. The trace-file leg feeds `perdnn
# simulate` malformed trace files (bad magic, signed and huge counts, a
# sampling interval or a point beyond its bound, no trajectories, a
# trajectory without points) and one written by `perdnn traces`. The
# trace-generator leg gives `perdnn traces` and `perdnn simulate` minutes
# beyond the generators' points-per-trajectory bound or not a number, and a
# user count outside int. The manifest leg feeds `perdnn_runner status`
# manifests with out-of-range, fractional and out-of-domain numbers (minutes
# beyond the same bound among them) and broken JSON, plus one valid
# manifest, and `perdnn_runner run` a manifest naming a malformed trace
# file. The tool-argument leg gives `perdnn partition` a load or uplink
# that is not the whole argument, outside int, not finite, or a --threads
# count outside int (one that used to wrap to a single thread, one that
# wrapped negative and aborted), and `perdnn_runner` a --workers count or a
# worker index/count that is not an int in range (one that wraps through
# atoi among them), plus one valid `perdnn partition`.
#
# The budgeted-cache leg rides along: the CacheBudget suites (which include
# the crash-mid-pressure kill -9 resume byte-identity gate and per-interval
# budget-invariant checks) run under the sanitizers in both legs, plus a
# bench_cache smoke run exercising eviction/partial-residency churn.
#
# Usage: tools/check_chaos.sh [build-dir]     (default: build-chaos)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-chaos}"

cmake -B "$BUILD_DIR" -S . -DPERDNN_SANITIZE=address -DPERDNN_SIMD=ON
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target test_faults test_edge test_sim bench_chaos bench_cache perdnn_cli \
  perdnn_runner

export PERDNN_THREADS=4
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1}"

CHAOS_TESTS='FaultPlan|FaultTimeline|FaultSim|RetryQueue|LayerCache|ParallelDeterminism|SimulationConfigValidate|SimulationMetricsFault|ShardDeterminism|ShardFault|CacheBudget'

ctest --test-dir "$BUILD_DIR" --output-on-failure -R "$CHAOS_TESTS"

# Smoke: the chaos sweep runs end-to-end and the strict CLI rejects junk.
"$BUILD_DIR"/bench/bench_chaos --model mobilenet --seed 7 --threads 4

PLAN_FILE="$(mktemp)"
trap 'rm -f "$PLAN_FILE"' EXIT
cat > "$PLAN_FILE" <<'EOF'
{"events":[
  {"kind":"server_crash","at":2,"duration":4,"server":0},
  {"kind":"backhaul_degrade","at":1,"duration":5,"server":1,"peer":-2,"severity":1.0},
  {"kind":"telemetry_dropout","at":0,"duration":10,"server":2},
  {"kind":"client_disconnect","at":3,"duration":2,"client":0}
]}
EOF
"$BUILD_DIR"/bench/bench_chaos --plan "$PLAN_FILE" --json --threads 4 > /dev/null

# Smoke: the sharded chaos path (fault scenarios folded into the tiled
# engine) at a small scale, under the sanitizers.
"$BUILD_DIR"/bench/bench_chaos --sharded --clients 1500 --tiles-x 6 \
  --tiles-y 6 --intervals 8 --shards 4 --threads 4 > /dev/null

if "$BUILD_DIR"/bench/bench_chaos --definitely-not-a-flag 2> /dev/null; then
  echo "error: bench_chaos accepted an unknown flag" >&2
  exit 1
fi

# Smoke: the budgeted-cache sweep (eviction + partial-residency churn in
# every budgeted scenario) at a small scale, under the sanitizers.
"$BUILD_DIR"/bench/bench_cache --clients 1500 --tiles-x 6 --tiles-y 6 \
  --intervals 8 --shards 4 --threads 4 > /dev/null

if "$BUILD_DIR"/bench/bench_cache --definitely-not-a-flag 2> /dev/null; then
  echo "error: bench_cache accepted an unknown flag" >&2
  exit 1
fi

# Decoder probes: every malformed input is refused with a clean exit 2.
PROBE_DIR="$BUILD_DIR/decoder-probes"
mkdir -p "$PROBE_DIR"
expect_exit() {  # probe name, expected exit status, command...
  local name="$1" want="$2" status=0
  shift 2
  "$@" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne "$want" ]; then
    echo "error: probe '$name' exited $status, expected $want" >&2
    exit 1
  fi
}

# Fault-plan decoder.
plan_probe() {  # name, expected exit status, plan JSON
  printf '%s\n' "$3" > "$PROBE_DIR/$1.json"
  expect_exit "fault plan $1" "$2" "$BUILD_DIR"/tools/perdnn simulate \
    mobilenet campus perdnn --users 3 --minutes 5 \
    --fault-plan "$PROBE_DIR/$1.json"
}
plan_probe at-out-of-range 2 \
  '{"events":[{"kind":"server_crash","at":1e300,"duration":2,"server":0}]}'
plan_probe duration-out-of-range 2 \
  '{"events":[{"kind":"server_crash","at":1,"duration":-1e12,"server":0}]}'
plan_probe fractional-at 2 \
  '{"events":[{"kind":"server_crash","at":2.9,"duration":2,"server":1}]}'
plan_probe fractional-server 2 \
  '{"events":[{"kind":"server_crash","at":2,"duration":2,"server":1.5}]}'
plan_probe window-past-int-max 2 \
  '{"events":[{"kind":"server_crash","at":2147483646,"duration":5,"server":0}]}'
plan_probe bad-json 2 '{"events":[{"kind":'
plan_probe unknown-kind 2 \
  '{"events":[{"kind":"meteor_strike","at":0,"server":0}]}'
plan_probe server-outside-world 2 \
  '{"events":[{"kind":"server_crash","at":0,"duration":2,"server":100000}]}'
plan_probe valid 0 \
  '{"events":[{"kind":"server_crash","at":1,"duration":2,"server":0},
    {"kind":"backhaul_degrade","at":0,"duration":3,"server":1,"severity":0.5}]}'

# Trace-file decoder.
trace_probe() {  # name, expected exit status, trace file text
  printf '%b\n' "$3" > "$PROBE_DIR/$1.txt"
  expect_exit "trace file $1" "$2" "$BUILD_DIR"/tools/perdnn simulate \
    mobilenet "$PROBE_DIR/$1.txt" perdnn
}
trace_probe bad-magic 2 'not-a-trace-file\n1\n0 20 1\n0 0'
trace_probe count-negative 2 'perdnn-traces v1\n-1\n0 20 1\n0 0'
trace_probe points-negative 2 'perdnn-traces v1\n1\n0 20 -3\n0 0'
trace_probe points-huge 2 'perdnn-traces v1\n1\n0 20 99999999999\n0 0'
trace_probe interval-beyond-bound 2 'perdnn-traces v1\n1\n0 1e300 1\n0 0'
trace_probe point-beyond-bound 2 \
  'perdnn-traces v1\n1\n0 20 4\n0 0\n1e12 0\n0 30\n30 30'
trace_probe no-trajectories 2 'perdnn-traces v1\n0'
trace_probe no-points 2 'perdnn-traces v1\n1\n0 20 0'
expect_exit "trace file generated" 0 "$BUILD_DIR"/tools/perdnn traces campus \
  "$PROBE_DIR/generated.txt" 3 5
expect_exit "trace file generated" 0 "$BUILD_DIR"/tools/perdnn simulate \
  mobilenet "$PROBE_DIR/generated.txt" perdnn

# Trace-generator bound: minutes and users reach the generators only through
# checked parses and the points-per-trajectory bound.
for minutes in 1e300 abc -3 nan 0.1; do
  expect_exit "traces minutes $minutes" 2 "$BUILD_DIR"/tools/perdnn traces \
    urban "$PROBE_DIR/bounded.txt" 5 "$minutes"
done
expect_exit "traces users 4294967297" 2 "$BUILD_DIR"/tools/perdnn traces \
  urban "$PROBE_DIR/bounded.txt" 4294967297 5
expect_exit "simulate --minutes 1e300" 2 "$BUILD_DIR"/tools/perdnn simulate \
  mobilenet urban perdnn --minutes 1e300
expect_exit "simulate --users 4294967297" 2 "$BUILD_DIR"/tools/perdnn \
  simulate mobilenet urban perdnn --users 4294967297
expect_exit "traces within the bound" 0 "$BUILD_DIR"/tools/perdnn traces \
  campus "$PROBE_DIR/bounded.txt" 3 5

# Manifest decoder.
manifest_probe() {  # name, expected exit status, manifest JSON
  printf '%s\n' "$3" > "$PROBE_DIR/$1.manifest.json"
  expect_exit "manifest $1" "$2" "$BUILD_DIR"/tools/perdnn_runner status \
    "$PROBE_DIR/$1.manifest.json" "$PROBE_DIR/sweep"
}
manifest_probe users-out-of-range 2 \
  '{"users":1e300,"policies":["perdnn"],"seeds":[1]}'
manifest_probe seed-out-of-range 2 '{"policies":["perdnn"],"seeds":[1e300]}'
manifest_probe fractional-seed 2 '{"policies":["perdnn"],"seeds":[1.5]}'
manifest_probe checkpoint-every-out-of-range 2 \
  '{"checkpoint_every":1e20,"policies":["perdnn"],"seeds":[1]}'
manifest_probe cache-budget-out-of-range 2 \
  '{"cache_budget_bytes":1e300,"policies":["perdnn"],"seeds":[1]}'
manifest_probe zero-downtime 2 '{"downtime":0,"policies":["perdnn"],"seeds":[1]}'
manifest_probe minutes-beyond-bound 2 \
  '{"minutes":1e300,"policies":["perdnn"],"seeds":[1]}'
manifest_probe bad-json 2 '{"policies":["perdnn"],"seeds":[1'
manifest_probe valid 0 \
  '{"model":"mobilenet","trace":"campus","users":3,"minutes":5,
    "policies":["ionn","perdnn"],"seeds":[1,2],"fault_intensities":[0,0.25]}'
printf '{"model":"mobilenet","trace":"%s","policies":["perdnn"],"seeds":[1]}\n' \
  "$PROBE_DIR/count-negative.txt" > "$PROBE_DIR/bad-trace.manifest.json"
expect_exit "manifest with a malformed trace file" 2 \
  "$BUILD_DIR"/tools/perdnn_runner run "$PROBE_DIR/bad-trace.manifest.json" \
  "$PROBE_DIR/bad-trace-sweep" --workers 1

# Tool arguments: a number must be the whole argument and in range.
for args in "4294967297" "1 1e400" "1 nan" "2x" "1 35abc" "0" "1 -35"; do
  # shellcheck disable=SC2086  # $args is two words on purpose
  expect_exit "partition $args" 2 "$BUILD_DIR"/tools/perdnn partition \
    mobilenet $args
done
expect_exit "partition within range" 0 "$BUILD_DIR"/tools/perdnn partition \
  mobilenet 2 35
for threads in 4294967297 2147483648; do
  expect_exit "partition --threads $threads" 2 "$BUILD_DIR"/tools/perdnn \
    partition mobilenet 2 35 --threads "$threads"
done
for workers in 2x 0 4294967297; do
  expect_exit "runner --workers $workers" 2 "$BUILD_DIR"/tools/perdnn_runner \
    run "$PROBE_DIR/valid.manifest.json" "$PROBE_DIR/args-sweep" \
    --workers "$workers"
done
expect_exit "runner worker index past int" 2 \
  "$BUILD_DIR"/tools/perdnn_runner worker "$PROBE_DIR/valid.manifest.json" \
  "$PROBE_DIR/args-sweep" 4294967296 4294967297
expect_exit "runner worker count 1x" 2 "$BUILD_DIR"/tools/perdnn_runner \
  worker "$PROBE_DIR/valid.manifest.json" "$PROBE_DIR/args-sweep" 0 1x

# ---- scalar leg: same sanitizer coverage with the SIMD kernels off --------
SCALAR_DIR="${BUILD_DIR}-scalar"
cmake -B "$SCALAR_DIR" -S . -DPERDNN_SANITIZE=address -DPERDNN_SIMD=OFF
cmake --build "$SCALAR_DIR" -j"$(nproc)" \
  --target test_faults test_sim bench_chaos

ctest --test-dir "$SCALAR_DIR" --output-on-failure \
  -R 'FaultTimeline|FaultSim|ShardDeterminism|ShardFault|ShardCacheBudget'

"$SCALAR_DIR"/bench/bench_chaos --sharded --clients 1500 --tiles-x 6 \
  --tiles-y 6 --intervals 8 --shards 4 --threads 4 > /dev/null

echo "Chaos check passed (build dirs: $BUILD_DIR, $SCALAR_DIR)"
