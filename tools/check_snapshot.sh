#!/usr/bin/env bash
# Checkpoint/resume byte-identity gate.
#
# Proves, end-to-end through the real binaries, that
#   1. a run checkpointed at interval K and resumed reproduces the
#      uninterrupted run's timeseries CSV and SimulationMetrics JSON
#      byte-for-byte — at 1/2/8 threads, and under a scripted fault plan;
#   2. a sharded sweep killed mid-flight (SIGKILL to the whole process
#      group) and re-run produces merged outputs byte-identical to an
#      uninterrupted sweep — its merged journal too, in a second sweep with
#      "journal": true;
#   3. truncated/corrupted/garbage snapshots are *rejected* with exit code
#      2 — never a crash (SIGSEGV/SIGABRT would surface as exit >= 128);
#   4. `perdnn_runner inspect` reports the version each file declares (the
#      golden v2, v4 sharded and v7 fixtures, and a fresh checkpoint) and a
#      sharded checkpoint's own contents.
#
# Usage: tools/check_snapshot.sh <perdnn-binary> <perdnn_runner-binary>
# (CMake registers this via -DPERDNN_SNAPSHOT_CHECK=ON.)
set -uo pipefail

PERDNN="${1:?usage: check_snapshot.sh <perdnn-binary> <perdnn_runner-binary>}"
RUNNER="${2:?usage: check_snapshot.sh <perdnn-binary> <perdnn_runner-binary>}"
PERDNN="$(readlink -f "$PERDNN")"
RUNNER="$(readlink -f "$RUNNER")"
FIXTURES="$(cd "$(dirname "$0")/.." && pwd)/tests/snapshot/data"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

FAIL=0
fail() { echo "FAIL: $*" >&2; FAIL=1; }

SIM_ARGS=(inception campus perdnn --users 14 --minutes 25 --seed 9)
PLAN_FILE="$WORK/plan.json"
cat > "$PLAN_FILE" <<'EOF'
{"events":[
  {"kind":"server_crash","at":3,"duration":4,"server":0},
  {"kind":"backhaul_degrade","at":4,"duration":6,"server":1,"peer":-2,"severity":1.0},
  {"kind":"telemetry_dropout","at":2,"duration":8,"server":2},
  {"kind":"client_disconnect","at":5,"duration":2,"client":0}
]}
EOF

# --- 1. CLI checkpoint/resume byte-identity -------------------------------
for variant in clean faulted; do
  EXTRA=()
  [ "$variant" = faulted ] && EXTRA=(--fault-plan "$PLAN_FILE")
  "$PERDNN" simulate "${SIM_ARGS[@]}" "${EXTRA[@]}" --threads 2 \
    --timeseries-out "full_$variant.csv" \
    --sim-metrics-out "full_$variant.json" > /dev/null \
    || fail "$variant: uninterrupted run failed"
  "$PERDNN" simulate "${SIM_ARGS[@]}" "${EXTRA[@]}" --threads 2 \
    --snapshot-save "$variant.ckpt" --snapshot-at 6 > /dev/null \
    || fail "$variant: checkpoint run failed"
  for threads in 1 2 8; do
    "$PERDNN" simulate "${SIM_ARGS[@]}" "${EXTRA[@]}" --threads "$threads" \
      --snapshot-resume "$variant.ckpt" \
      --timeseries-out r.csv --sim-metrics-out r.json > /dev/null \
      || fail "$variant [--threads $threads]: resumed run failed"
    cmp -s "full_$variant.csv" r.csv \
      || fail "$variant [--threads $threads]: resumed timeseries differs"
    cmp -s "full_$variant.json" r.json \
      || fail "$variant [--threads $threads]: resumed metrics differ"
  done
  echo "ok: CLI resume byte-identical ($variant, 1/2/8 threads)"
done

# Periodic checkpointing must not perturb the run it rides along with.
"$PERDNN" simulate "${SIM_ARGS[@]}" --threads 2 \
  --snapshot-save periodic.ckpt --snapshot-every 4 \
  --timeseries-out periodic.csv --sim-metrics-out periodic.json > /dev/null \
  || fail "periodic checkpoint run failed"
cmp -s full_clean.csv periodic.csv || fail "periodic run timeseries differs"
cmp -s full_clean.json periodic.json || fail "periodic run metrics differ"
echo "ok: periodic checkpointing is output-neutral"

# --- 2. Sharded sweep: kill -9 mid-flight, resume, merge ------------------
# Twice: as is, and with "journal": true, whose shards stream their journals
# to disk and checkpoint only the offset, so a resumed shard truncates its
# journal back to the checkpoint and appends.
for variant in plain journal; do
  journal_field=""
  [ "$variant" = journal ] && journal_field='"journal": true,'
  cat > "manifest_$variant.json" <<EOF
{
  "model": "inception",
  "trace": "campus",
  "users": 12,
  "minutes": 20,
  "checkpoint_every": 3,
  $journal_field
  "policies": ["perdnn", "ionn"],
  "seeds": [1, 2],
  "fault_intensities": [0, 0.02]
}
EOF
  mkdir "sweep_full_$variant" "sweep_killed_$variant"
  "$RUNNER" run "manifest_$variant.json" "sweep_full_$variant" --workers 3 \
    > /dev/null || fail "$variant: uninterrupted sweep failed"

  setsid "$RUNNER" run "manifest_$variant.json" "sweep_killed_$variant" \
    --workers 3 > /dev/null 2>&1 < /dev/null &
  RUNNER_PID=$!
  # Kill once a shard has checkpointed, so the re-run resumes mid-shard
  # (and, journaling, truncates that shard's journal to its checkpoint).
  for _ in $(seq 200); do
    compgen -G "sweep_killed_$variant/*.ckpt" > /dev/null && break
    sleep 0.05
  done
  PGID="$(ps -o pgid= "$RUNNER_PID" 2> /dev/null | tr -d ' ' || true)"
  if [ -n "$PGID" ]; then
    kill -9 -- "-$PGID" 2> /dev/null
  else
    kill -9 "$RUNNER_PID" 2> /dev/null
  fi
  wait "$RUNNER_PID" 2> /dev/null
  status="$("$RUNNER" status "manifest_$variant.json" "sweep_killed_$variant" \
    | tail -1)"
  echo "$status"
  grep -q ' [1-9][0-9]* checkpointed' <<< "$status" \
    || fail "$variant: the kill landed before any shard checkpointed"
  "$RUNNER" run "manifest_$variant.json" "sweep_killed_$variant" --workers 3 \
    > /dev/null || fail "$variant: resumed sweep failed"
  merged=(merged_metrics.json merged_timeseries.csv)
  [ "$variant" = journal ] && merged+=(merged_journal.jsonl)
  for file in "${merged[@]}"; do
    cmp -s "sweep_full_$variant/$file" "sweep_killed_$variant/$file" \
      || fail "$variant: $file differs after kill/resume"
  done
  echo "ok: killed $variant sweep resumed to byte-identical merged outputs"
done
test -s sweep_full_journal/merged_journal.jsonl \
  || fail "journal sweep merged an empty journal"

# --- 3. Corruption fuzz: reject with exit 2, never crash ------------------
check_rejects() {
  local file="$1" what="$2"
  "$RUNNER" inspect "$file" > /dev/null 2>&1
  local code=$?
  if [ "$code" -ne 2 ]; then
    fail "inspect of $what exited $code (want 2)"
  fi
}

REF=clean.ckpt
SIZE=$(wc -c < "$REF")
for len in 0 1 7 8 12 20 100 $((SIZE / 2)) $((SIZE - 1)); do
  head -c "$len" "$REF" > "cut_$len.ckpt"
  check_rejects "cut_$len.ckpt" "truncation to $len bytes"
done
for off in 0 4 8 16 40 200 $((SIZE / 2)) $((SIZE - 9)) $((SIZE - 1)); do
  cp "$REF" flip.ckpt
  printf '\xa5' | dd of=flip.ckpt bs=1 seek="$off" conv=notrunc 2> /dev/null
  cmp -s "$REF" flip.ckpt && continue  # flip was a no-op at this offset
  check_rejects flip.ckpt "byte flip at offset $off"
done
head -c "$SIZE" /dev/urandom > noise.ckpt
check_rejects noise.ckpt "random noise"
cat "$REF" <(printf 'xx') > padded.ckpt
check_rejects padded.ckpt "trailing garbage"
echo "ok: corrupted snapshots rejected with exit 2 (no crashes)"

# The CLI front end must map the same failures to exit 2.
"$PERDNN" simulate "${SIM_ARGS[@]}" --snapshot-resume noise.ckpt \
  > /dev/null 2>&1
[ $? -eq 2 ] || fail "CLI resume from corrupt snapshot did not exit 2"
# A valid snapshot resumed against a different scenario must be refused,
# with the error's `snapshot:` prefix printed once.
"$PERDNN" simulate inception campus perdnn --users 14 --minutes 25 --seed 10 \
  --snapshot-resume clean.ckpt > /dev/null 2> wrong_scenario.err
[ $? -eq 2 ] || fail "CLI resume against wrong scenario did not exit 2"
[ "$(grep -o 'snapshot:' wrong_scenario.err | wc -l)" -eq 1 ] \
  || fail "CLI wrong-scenario error does not hold exactly one 'snapshot:':" \
          "$(cat wrong_scenario.err)"
echo "ok: CLI maps snapshot failures to exit 2"

# --- 4. inspect reports the version a file declares -----------------------
inspect_has() {
  local file="$1" pattern="$2" out
  out="$("$RUNNER" inspect "$file" 2>&1)"
  grep -qE "$pattern" <<< "$out" \
    || fail "inspect of $(basename "$file") printed no line matching '$pattern'"
}
inspect_has "$FIXTURES/v2.snap" 'valid snapshot \(version 2\)'
inspect_has "$FIXTURES/v4_shard.snap" 'valid snapshot \(version 4\)'
inspect_has "$FIXTURES/v4_shard.snap" '^  clients: +[1-9][0-9]*$'
inspect_has "$FIXTURES/v7_classic.snap" 'valid snapshot \(version 7\)'
inspect_has "$FIXTURES/v7_classic.snap" '^  journal events: +144 \(inline'
inspect_has "$FIXTURES/v7_shard.snap" '^  journal events: +582$'
inspect_has clean.ckpt 'valid snapshot \(version 8\)'
echo "ok: inspect reports declared versions and sharded contents"

if [ "$FAIL" -ne 0 ]; then
  echo "snapshot check FAILED" >&2
  exit 1
fi
echo "snapshot check passed"
