#!/usr/bin/env bash
# Fast-path performance regression gate.
#
# Runs `bench_micro --json` (or takes a pre-computed result via
# BENCH_FASTPATH_JSON=path, skipping the run), extracts one representative
# wall-clock per micro-bench (serial_s for the parallel-harness entries,
# fast_s for the fast-path entries) and compares them against the committed
# baseline BENCH_fastpath.json at the repo root:
#   * any micro more than 25% slower than its baseline fails the check
#     (plus a 2ms absolute slack so sub-millisecond entries aren't flaky);
#   * the upload-order fast-path speedups must stay >= 2x regardless of the
#     machine — that floor is the acceptance criterion of the fast path
#     itself, not a relative comparison;
#   * the forest_batch SIMD speedup must stay >= 3x, but only when the
#     current result's "simd" field says the vector kernel actually ran
#     ("avx2") — a scalar-only build or CPU is exempt, not failing. The
#     kernel's target is 4x and quiet runs measure ~3.8-4.8x, but the shared
#     dev runner has multi-second noisy stretches that best-of-3 timing
#     can't fully hide (observed down to ~3.4x); the floor sits below that
#     band so a slow run doesn't flake the gate while a real regression
#     (e.g. losing the tree-interleaved walkers) still fails it;
#   * the serial-vs-pool speedups of the parallel-harness entries must stay
#     >= 50% of their baseline speedup — skipped entirely when the baseline
#     records "hardware_threads":1, where pool "speedups" are single-core
#     scheduling noise (e.g. the forest_train 0.982x of a 1-core runner).
# When no baseline exists the current run becomes the baseline (commit it).
#
# The city-scale benchmark is gated too, when a result is supplied: set
# BENCH_SCALE_JSON=path/to/result.json (produced by `bench_scale --json`) and
# it is compared against the committed BENCH_scale.json baseline —
# clients_per_sec must stay >= 50% of baseline and peak_rss_bytes <= 150%.
# The 1M-client run takes minutes, so it is never executed here implicitly;
# without BENCH_SCALE_JSON the scale gate is skipped with a note.
#
# The chaos-at-scale benchmark (`bench_chaos --sharded --json-out`) is gated
# the same way: set BENCH_CHAOS_JSON=path/to/result.json and it is compared
# against the committed BENCH_chaos_scale.json baseline —
#   * zero-fault availability must stay >= 0.999 (absolute floor: a run with
#     no fault plan must not lose queries to the fault machinery);
#   * mid-faults clients_per_sec must stay >= 50% of baseline (fault handling
#     must not wreck throughput).
# Without BENCH_CHAOS_JSON the chaos gate is skipped with a note.
#
# The cache-pressure benchmark (`bench_cache --json-out`) is gated the same
# way: set BENCH_CACHE_JSON=path/to/result.json and it is compared against
# the committed BENCH_cache.json baseline —
#   * the unbudgeted scenario must report zero evictions and zero partial
#     stores (absolute floor: with no budget the budget machinery is inert);
#   * the 1x/1-prefix scenario's peak_cache_bytes must stay within its own
#     budget_bytes (the budget invariant, visible in the artifact itself);
#   * the 1x/1-prefix backhaul_bytes must stay <= 150% of baseline (the
#     budget must keep throttling proactive traffic);
#   * the 3x/1-prefix run_wall_s must stay <= 3x the 3x/unbudgeted
#     run_wall_s of the same file (budgeted admission must cost about the
#     resident entries, not a scan of every tile's table). Both walls come
#     from one run on one machine, so the ratio holds on any hardware.
# Without BENCH_CACHE_JSON the cache gate is skipped with a note.
#
# Usage: tools/check_bench_regression.sh [--update] [path/to/bench_micro]
#   --update   rewrite the baseline(s) with the current run, then exit 0.
#
# Plain bash + awk on the harness's own one-line JSON; no python/jq needed.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BASELINE="$ROOT/BENCH_fastpath.json"
SCALE_BASELINE="$ROOT/BENCH_scale.json"
CHAOS_BASELINE="$ROOT/BENCH_chaos_scale.json"
CACHE_BASELINE="$ROOT/BENCH_cache.json"

update=0
bench_micro="${BENCH_MICRO:-$ROOT/build/bench/bench_micro}"
for arg in "$@"; do
  case "$arg" in
    --update) update=1 ;;
    *) bench_micro="$arg" ;;
  esac
done

current="$(mktemp)"
trap 'rm -f "$current"' EXIT
if [ -n "${BENCH_FASTPATH_JSON:-}" ]; then
  if [ ! -f "$BENCH_FASTPATH_JSON" ]; then
    echo "error: BENCH_FASTPATH_JSON='$BENCH_FASTPATH_JSON' not found" >&2
    exit 2
  fi
  echo "using pre-computed result $BENCH_FASTPATH_JSON"
  cp "$BENCH_FASTPATH_JSON" "$current"
else
  if [ ! -x "$bench_micro" ]; then
    echo "error: bench_micro not found at '$bench_micro'" >&2
    echo "build it (cmake --build build --target bench_micro) or pass its path" >&2
    exit 2
  fi
  echo "running $bench_micro --json ..."
  "$bench_micro" --json "$current" >/dev/null
fi

if [ "$update" -eq 1 ] || [ ! -f "$BASELINE" ]; then
  cp "$current" "$BASELINE"
  echo "baseline written to $BASELINE — commit it"
  if [ -n "${BENCH_SCALE_JSON:-}" ] && [ -f "$BENCH_SCALE_JSON" ]; then
    cp "$BENCH_SCALE_JSON" "$SCALE_BASELINE"
    echo "scale baseline written to $SCALE_BASELINE — commit it"
  fi
  if [ -n "${BENCH_CHAOS_JSON:-}" ] && [ -f "$BENCH_CHAOS_JSON" ]; then
    cp "$BENCH_CHAOS_JSON" "$CHAOS_BASELINE"
    echo "chaos baseline written to $CHAOS_BASELINE — commit it"
  fi
  if [ -n "${BENCH_CACHE_JSON:-}" ] && [ -f "$BENCH_CACHE_JSON" ]; then
    cp "$BENCH_CACHE_JSON" "$CACHE_BASELINE"
    echo "cache baseline written to $CACHE_BASELINE — commit it"
  fi
  exit 0
fi

# Emits "name time speedup" per bench object. The harness writes its JSON on
# one line; splitting records on '{' isolates each bench object.
extract() {
  awk 'BEGIN { RS = "{" }
  /"name":"/ {
    name = ""; t = ""; sp = "-"
    if (match($0, /"name":"[^"]*"/)) name = substr($0, RSTART + 8, RLENGTH - 9)
    if (match($0, /"fast_s":[0-9.eE+-]+/)) t = substr($0, RSTART + 9, RLENGTH - 9)
    else if (match($0, /"serial_s":[0-9.eE+-]+/)) t = substr($0, RSTART + 11, RLENGTH - 11)
    if (match($0, /"speedup":[0-9.eE+-]+/)) sp = substr($0, RSTART + 10, RLENGTH - 10)
    if (name != "" && t != "") print name, t, sp
  }' "$1"
}

# Pulls a quoted or numeric scalar field out of a one-line JSON file.
json_field() { # file key
  awk -v k="$2" '{
    if (match($0, "\"" k "\":\"[^\"]*\""))
      print substr($0, RSTART + length(k) + 4, RLENGTH - length(k) - 5)
    else if (match($0, "\"" k "\":[0-9.eE+-]+"))
      print substr($0, RSTART + length(k) + 3, RLENGTH - length(k) - 3)
  }' "$1"
}

base_rows="$(extract "$BASELINE")"
base_ht="$(json_field "$BASELINE" hardware_threads)"
cur_simd="$(json_field "$current" simd)"
if [ "${base_ht:-0}" -le 1 ]; then
  echo "note: baseline hardware_threads=${base_ht:-?} — pool-speedup checks skipped"
fi
fail=0
while read -r name t sp; do
  bt="$(printf '%s\n' "$base_rows" | awk -v n="$name" '$1 == n { print $2 }')"
  if [ -z "$bt" ]; then
    echo "note: '$name' has no baseline entry (new bench — rerun with --update)"
    continue
  fi
  if awk -v c="$t" -v b="$bt" 'BEGIN { exit !(c > b * 1.25 + 0.002) }'; then
    echo "REGRESSION: $name ${t}s vs baseline ${bt}s (>25% slower)"
    fail=1
  else
    echo "ok: $name ${t}s (baseline ${bt}s)"
  fi
  case "$name" in
    upload_order_*)
      if awk -v s="$sp" 'BEGIN { exit !(s < 2.0) }'; then
        echo "REGRESSION: $name speedup ${sp}x below the 2x acceptance floor"
        fail=1
      fi ;;
    forest_batch)
      # SIMD floor only where the vector kernel ran; the scalar fallback is
      # a correctness path, not a performance contract.
      if [ "$cur_simd" = "avx2" ]; then
        if awk -v s="$sp" 'BEGIN { exit !(s < 3.0) }'; then
          echo "REGRESSION: forest_batch SIMD speedup ${sp}x below the 3x floor"
          fail=1
        fi
      else
        echo "note: forest_batch ran the scalar kernel (simd=${cur_simd:-unknown}) — 3x floor skipped"
      fi ;;
    simulator|forest_train|profiler_sweep)
      # Serial-vs-pool speedup: meaningless on a single-core baseline.
      if [ "${base_ht:-0}" -gt 1 ]; then
        bsp="$(printf '%s\n' "$base_rows" | awk -v n="$name" '$1 == n { print $3 }')"
        if [ -n "$bsp" ] && [ "$bsp" != "-" ] &&
           awk -v s="$sp" -v b="$bsp" 'BEGIN { exit !(s < b * 0.5) }'; then
          echo "REGRESSION: $name pool speedup ${sp}x vs baseline ${bsp}x (below 50%)"
          fail=1
        fi
      fi ;;
  esac
done <<< "$(extract "$current")"

# ---- city-scale gate (BENCH_scale.json) -----------------------------------
# Pulls one numeric field out of bench_scale's one-line JSON result.
scale_field() { # file key
  awk -v k="$2" '{
    if (match($0, "\"" k "\":[0-9.eE+-]+"))
      print substr($0, RSTART + length(k) + 3, RLENGTH - length(k) - 3)
  }' "$1"
}

if [ -z "${BENCH_SCALE_JSON:-}" ]; then
  echo "note: BENCH_SCALE_JSON not set — city-scale gate skipped"
elif [ ! -f "$BENCH_SCALE_JSON" ]; then
  echo "error: BENCH_SCALE_JSON='$BENCH_SCALE_JSON' not found" >&2
  exit 2
elif [ ! -f "$SCALE_BASELINE" ]; then
  cp "$BENCH_SCALE_JSON" "$SCALE_BASELINE"
  echo "scale baseline written to $SCALE_BASELINE — commit it"
else
  cur_cps="$(scale_field "$BENCH_SCALE_JSON" clients_per_sec)"
  base_cps="$(scale_field "$SCALE_BASELINE" clients_per_sec)"
  cur_rss="$(scale_field "$BENCH_SCALE_JSON" peak_rss_bytes)"
  base_rss="$(scale_field "$SCALE_BASELINE" peak_rss_bytes)"
  if [ -z "$cur_cps" ] || [ -z "$base_cps" ] || \
     [ -z "$cur_rss" ] || [ -z "$base_rss" ]; then
    echo "error: could not parse clients_per_sec/peak_rss_bytes from scale JSON" >&2
    exit 2
  fi
  if awk -v c="$cur_cps" -v b="$base_cps" 'BEGIN { exit !(c < b * 0.5) }'; then
    echo "REGRESSION: scale throughput ${cur_cps} clients/s vs baseline ${base_cps} (below 50% floor)"
    fail=1
  else
    echo "ok: scale throughput ${cur_cps} clients/s (baseline ${base_cps})"
  fi
  if awk -v c="$cur_rss" -v b="$base_rss" 'BEGIN { exit !(c > b * 1.5) }'; then
    echo "REGRESSION: scale peak RSS ${cur_rss} bytes vs baseline ${base_rss} (above 150% ceiling)"
    fail=1
  else
    echo "ok: scale peak RSS ${cur_rss} bytes (baseline ${base_rss})"
  fi
fi

# ---- chaos-at-scale gate (BENCH_chaos_scale.json) -------------------------
# Pulls one numeric field out of a named scenario object inside bench_chaos's
# one-line JSON result. Splitting records on '{' isolates each scenario.
chaos_scenario_field() { # file scenario key
  awk -v s="$2" -v k="$3" 'BEGIN { RS = "{" }
  index($0, "\"scenario\":\"" s "\"") {
    if (match($0, "\"" k "\":[0-9.eE+-]+"))
      print substr($0, RSTART + length(k) + 3, RLENGTH - length(k) - 3)
  }' "$1"
}

if [ -z "${BENCH_CHAOS_JSON:-}" ]; then
  echo "note: BENCH_CHAOS_JSON not set — chaos-at-scale gate skipped"
elif [ ! -f "$BENCH_CHAOS_JSON" ]; then
  echo "error: BENCH_CHAOS_JSON='$BENCH_CHAOS_JSON' not found" >&2
  exit 2
elif [ ! -f "$CHAOS_BASELINE" ]; then
  cp "$BENCH_CHAOS_JSON" "$CHAOS_BASELINE"
  echo "chaos baseline written to $CHAOS_BASELINE — commit it"
else
  zf_avail="$(chaos_scenario_field "$BENCH_CHAOS_JSON" zero-fault availability)"
  cur_mf_cps="$(chaos_scenario_field "$BENCH_CHAOS_JSON" mid-faults clients_per_sec)"
  base_mf_cps="$(chaos_scenario_field "$CHAOS_BASELINE" mid-faults clients_per_sec)"
  if [ -z "$zf_avail" ] || [ -z "$cur_mf_cps" ] || [ -z "$base_mf_cps" ]; then
    echo "error: could not parse zero-fault/mid-faults scenarios from chaos JSON" >&2
    exit 2
  fi
  # Zero-fault availability is an absolute floor, not a relative one: with no
  # fault plan the fault machinery must be inert, so any loss is a bug.
  if awk -v a="$zf_avail" 'BEGIN { exit !(a < 0.999) }'; then
    echo "REGRESSION: chaos zero-fault availability ${zf_avail} below the 0.999 floor"
    fail=1
  else
    echo "ok: chaos zero-fault availability ${zf_avail}"
  fi
  if awk -v c="$cur_mf_cps" -v b="$base_mf_cps" 'BEGIN { exit !(c < b * 0.5) }'; then
    echo "REGRESSION: chaos mid-faults throughput ${cur_mf_cps} clients/s vs baseline ${base_mf_cps} (below 50% floor)"
    fail=1
  else
    echo "ok: chaos mid-faults throughput ${cur_mf_cps} clients/s (baseline ${base_mf_cps})"
  fi
fi

# ---- cache-pressure gate (BENCH_cache.json) -------------------------------
# Scenario objects share the chaos JSON shape, so the same per-scenario
# field extractor applies.
if [ -z "${BENCH_CACHE_JSON:-}" ]; then
  echo "note: BENCH_CACHE_JSON not set — cache-pressure gate skipped"
elif [ ! -f "$BENCH_CACHE_JSON" ]; then
  echo "error: BENCH_CACHE_JSON='$BENCH_CACHE_JSON' not found" >&2
  exit 2
elif [ ! -f "$CACHE_BASELINE" ]; then
  cp "$BENCH_CACHE_JSON" "$CACHE_BASELINE"
  echo "cache baseline written to $CACHE_BASELINE — commit it"
else
  ub_evict="$(chaos_scenario_field "$BENCH_CACHE_JSON" 1x/unbudgeted cache_evictions)"
  ub_partial="$(chaos_scenario_field "$BENCH_CACHE_JSON" 1x/unbudgeted cache_partial_stores)"
  t_peak="$(chaos_scenario_field "$BENCH_CACHE_JSON" 1x/1-prefix peak_cache_bytes)"
  t_budget="$(chaos_scenario_field "$BENCH_CACHE_JSON" 1x/1-prefix budget_bytes)"
  t_servers="$(json_field "$BENCH_CACHE_JSON" servers)"
  cur_bh="$(chaos_scenario_field "$BENCH_CACHE_JSON" 1x/1-prefix backhaul_bytes)"
  base_bh="$(chaos_scenario_field "$CACHE_BASELINE" 1x/1-prefix backhaul_bytes)"
  dense_wall="$(chaos_scenario_field "$BENCH_CACHE_JSON" 3x/1-prefix run_wall_s)"
  dense_free_wall="$(chaos_scenario_field "$BENCH_CACHE_JSON" 3x/unbudgeted run_wall_s)"
  if [ -z "$ub_evict" ] || [ -z "$ub_partial" ] || [ -z "$t_peak" ] || \
     [ -z "$t_budget" ] || [ -z "$t_servers" ] || [ -z "$cur_bh" ] || \
     [ -z "$base_bh" ] || [ -z "$dense_wall" ] || [ -z "$dense_free_wall" ]; then
    echo "error: could not parse the 1x/unbudgeted, 1x/1-prefix, 3x/unbudgeted and 3x/1-prefix scenarios from cache JSON" >&2
    exit 2
  fi
  # With no budget set the budget machinery must be inert — absolute floor.
  if awk -v e="$ub_evict" -v p="$ub_partial" 'BEGIN { exit !(e > 0 || p > 0) }'; then
    echo "REGRESSION: unbudgeted cache run reports ${ub_evict} evictions / ${ub_partial} partial stores (must be 0)"
    fail=1
  else
    echo "ok: unbudgeted cache run is budget-inert"
  fi
  # peak_cache_bytes sums residency across all servers; budget_bytes is per
  # server, so the invariant ceiling is budget * servers.
  if awk -v p="$t_peak" -v b="$t_budget" -v s="$t_servers" 'BEGIN { exit !(p > b * s) }'; then
    echo "REGRESSION: 1-prefix peak cache ${t_peak} bytes exceeds budget ${t_budget} x ${t_servers} servers"
    fail=1
  else
    echo "ok: 1-prefix peak cache ${t_peak} bytes within budget ceiling"
  fi
  if awk -v c="$cur_bh" -v b="$base_bh" 'BEGIN { exit !(c > b * 1.5) }'; then
    echo "REGRESSION: 1-prefix backhaul ${cur_bh} bytes vs baseline ${base_bh} (above 150% ceiling)"
    fail=1
  else
    echo "ok: 1-prefix backhaul ${cur_bh} bytes (baseline ${base_bh})"
  fi
  if awk -v b="$dense_wall" -v u="$dense_free_wall" 'BEGIN { exit !(b > 3 * u) }'; then
    echo "REGRESSION: 3x/1-prefix run ${dense_wall}s exceeds 3x the 3x/unbudgeted run ${dense_free_wall}s"
    fail=1
  else
    echo "ok: 3x/1-prefix run ${dense_wall}s within 3x the 3x/unbudgeted run ${dense_free_wall}s"
  fi
fi

if [ "$fail" -ne 0 ]; then
  echo "bench regression check FAILED (refresh with --update only if the"
  echo "slowdown is intended and explained in the commit message)"
  exit 1
fi
echo "bench regression check passed"
