#!/usr/bin/env bash
# Builds the repo with ASan+UBSan (-DPERDNN_SANITIZE=address) and proves the
# observability contract end-to-end:
#   * journal/metrics/trace/timeseries/traffic-accountant unit tests, the
#     number formatter against its snprintf oracle (JsonNumber*) and the
#     journal determinism gate run clean under the sanitizers;
#   * one seeded faulted simulation journals BYTE-IDENTICAL JSONL across
#     --threads 1/2/8 and across a checkpoint/resume split (the resume
#     appends to the file the checkpointed run streamed);
#   * `perdnn_obs convert`'s binary (.jnl) form decodes to the same event
#     stream;
#   * every journal parses through the bundled JSON parser
#     (perdnn_obs validate) and the scripted-fault chain reconstructs;
#   * validate exits 2 on integer fields out of range (1e300, chain -1);
#   * a second -DPERDNN_SIMD=OFF configuration re-runs the forest/estimator/
#     shard-determinism tests with the AVX2 kernels compiled out, keeping
#     the scalar fallback ASan/UBSan-tested.
#
# Usage: tools/check_obs.sh [build-dir]     (default: build-obs)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-obs}"

cmake -B "$BUILD_DIR" -S . -DPERDNN_SANITIZE=address
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target perdnn_cli perdnn_obs_tool test_obs test_sim test_snapshot \
  test_net

export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1}"

ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'Journal|StreamWriter|JsonNumber|MetricsTest|TraceTest|SimTimeseries|TimeseriesSim|SnapshotTest|Traffic'

CLI="$BUILD_DIR/tools/perdnn"
OBS="$BUILD_DIR/tools/perdnn_obs"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# One seeded run with scripted faults: crash, total backhaul outage,
# telemetry dropout, client disconnect — every journalled subsystem fires.
cat > "$WORK/plan.json" <<'EOF'
{"events":[
  {"kind":"server_crash","at":2,"duration":3,"server":0},
  {"kind":"backhaul_degrade","at":1,"duration":4,"server":1,"peer":-2,"severity":1.0},
  {"kind":"telemetry_dropout","at":0,"duration":8,"server":2},
  {"kind":"client_disconnect","at":4,"duration":2,"client":1}
]}
EOF
SIM_ARGS=(simulate mobilenet campus perdnn --users 6 --minutes 20 --seed 5
          --fault-plan "$WORK/plan.json")

# Reference journal: serial.
"$CLI" "${SIM_ARGS[@]}" --threads 1 --journal-out "$WORK/ref.jsonl" > /dev/null
test -s "$WORK/ref.jsonl"

# Determinism matrix: threads, byte-compared against the reference.
for threads in 1 2 8; do
  out="$WORK/t${threads}.jsonl"
  "$CLI" "${SIM_ARGS[@]}" --threads "$threads" --journal-out "$out" \
    > /dev/null
  if ! cmp -s "$WORK/ref.jsonl" "$out"; then
    echo "error: journal differs at threads=$threads" >&2
    "$OBS" diff "$WORK/ref.jsonl" "$out" >&2 || true
    exit 1
  fi
done

# Checkpoint/resume split: stop after interval 4, journaling to the file
# the resume appends to (the checkpoint holds its offset, not its events),
# and the final journal must equal the uninterrupted one byte for byte.
"$CLI" "${SIM_ARGS[@]}" --threads 2 --journal-out "$WORK/resumed.jsonl" \
  --snapshot-save "$WORK/ckpt" --snapshot-at 4 > /dev/null
"$CLI" "${SIM_ARGS[@]}" --threads 8 \
  --snapshot-resume "$WORK/ckpt" --journal-out "$WORK/resumed.jsonl" \
  > /dev/null
if ! cmp -s "$WORK/ref.jsonl" "$WORK/resumed.jsonl"; then
  echo "error: resumed journal differs from the uninterrupted run" >&2
  "$OBS" diff "$WORK/ref.jsonl" "$WORK/resumed.jsonl" >&2 || true
  exit 1
fi

# The binary encoding carries the same stream (diff exits 0 on identical).
"$OBS" convert "$WORK/ref.jsonl" "$WORK/ref.jnl" > /dev/null
"$OBS" diff "$WORK/ref.jsonl" "$WORK/ref.jnl" > /dev/null

# Every journal parses through the bundled JSON parser, and the scripted
# disconnect's causal chain reconstructs from attach to detach.
for j in "$WORK"/*.jsonl "$WORK/ref.jnl"; do
  "$OBS" validate "$j" > /dev/null
done
# Out-of-range integers are input errors (exit 2), never an undefined
# double-to-int cast: this build traps float-cast-overflow.
LINE='{"interval":%s,"kind":"attach","chain":%s,"client":0,"server":0,"peer":-1,"bytes":0,"detail":0,"aux":0,"value":0}\n'
# shellcheck disable=SC2059
printf "$LINE" 1e300 1 > "$WORK/huge_interval.bad"
# shellcheck disable=SC2059
printf "$LINE" 0 -1 > "$WORK/negative_chain.bad"
for bad in "$WORK/huge_interval.bad" "$WORK/negative_chain.bad"; do
  status=0
  "$OBS" validate "$bad" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "error: perdnn_obs validate exited $status on $bad (want 2)" >&2
    exit 1
  fi
done
"$OBS" filter "$WORK/ref.jsonl" --kind fault_applied --client 1 \
  | grep -q '"kind":"fault_applied"'
"$OBS" chain "$WORK/ref.jsonl" --client 1 | grep -q "attach to server"
"$OBS" chain "$WORK/ref.jsonl" --client 1 | grep -q "detach from server"

# Scalar-fallback leg: SIMD compiled out, same sanitizers.
SCALAR_DIR="${BUILD_DIR}-scalar"
cmake -B "$SCALAR_DIR" -S . -DPERDNN_SANITIZE=address -DPERDNN_SIMD=OFF
cmake --build "$SCALAR_DIR" -j"$(nproc)" \
  --target test_ml test_estimation test_sim
ctest --test-dir "$SCALAR_DIR" --output-on-failure \
  -R 'FlatForest|Estimator|ShardDeterminism'

echo "Observability check passed (build dirs: $BUILD_DIR, $SCALAR_DIR)"
