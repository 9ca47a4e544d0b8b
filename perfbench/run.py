#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the PerDNN simulator.

    python3 perfbench/run.py
        --workload city_steady|city_pressure|urban_replay|all
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Builds perfbench_run (the library from src/ plus perfbench_run.cpp) into
.bench_build/perfbench, then launches one process per run of the workload,
each generating its inputs from the seed, until S seconds have passed (at
least MIN_RUNS runs), or runs one traced run. Stream outputs go to a per-run
directory under .bench_build/runs that is removed after the run.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: host metrics as
the median over the runs (the tail percentile pools their interval walls),
simulated outcomes from the runs, which must agree exactly. --trace 1
reports the per-layer metrics of one traced run, writes its spans to
.bench_build/traces as chrome-trace JSON, and prints which end-to-end metric
each layer metric should move.

The last line of stdout is one JSON object:
  {"correct": bool, "attempted": runs, "failed": runs, "metrics": {...}}
A run fails when it crashes, exits non-zero or fails its output check.
--workload all measures every workload in turn, each for S seconds, and
ends with one object whose metric names carry a "<workload>." prefix.
"""
import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_run"
RUNS = ROOT / ".bench_build" / "runs"
TRACES = ROOT / ".bench_build" / "traces"

MIN_RUNS = 3  # set-up is reported as a median, so every invocation sets up 3x
DEADLINE_S = 170  # the whole invocation, after the build, must end by 180 s
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
# Above p90 the pooled tail of a 20 ms classic interval is set by a handful
# of host hiccups: across ten seeds its spread was twice that of p90.
TAIL_MAX_P = 90

# Per-layer metrics -> the end-to-end metric they should move (and the
# workload where), and the workload where they should not move.
TARGET_GROUPS = [
    ("sim.thread_speedup",
     "client_intervals_per_s on city_steady", "city_pressure"),
    ("sim.server_changes sim.attaches_shed sim.local_fallback_queries "
     "sim.degraded_attaches",
     "availability, offload_ratio on city_pressure", "city_steady"),
    ("sim.hit_ratio", "cold_latency_ms on city_steady, urban_replay",
     "city_pressure (0 under the budget)"),
    ("sim.interval_self_ms sim.migrate_ms",
     "interval_p50_ms on urban_replay", "sharded workloads"),
    ("sim.stage.bucket_ms sim.stage.phase_a_ms sim.stage.finish_ms",
     "client_intervals_per_s on city_steady", "urban_replay"),
    ("sim.stage.phase_b_ms sim.stage.phase_b_share",
     "client_intervals_per_s on city_pressure", "urban_replay"),
    ("sim.resume_s", "restart cost on city_pressure", "-"),
    ("edge.cache.evictions edge.cache.partial_stores edge.cache.peak_mib "
     "edge.cache.partial_share",
     "client_intervals_per_s, interval_tail_ms, cold_latency_ms, "
     "backhaul_gib on city_pressure", "city_steady (all zero)"),
    ("edge.retry.deferred edge.retry.retries edge.retry.abandoned "
     "edge.retry.abandon_share edge.retry.peak_backlog_mib",
     "availability on city_pressure, urban_replay", "city_steady"),
    ("edge.migration.orders edge.master.plan_migrations_ms "
     "edge.master.select_server_ms partition.plans "
     "partition.plan_latency_calls partition.upload_order_candidates "
     "partition.shortest_path_ms",
     "client_intervals_per_s on urban_replay", "sharded run time"),
    ("estimation.cache_hit_ratio estimation.estimates",
     "setup_s on every workload; client_intervals_per_s on urban_replay",
     "sharded run time"),
    ("estimation.train_s", "setup_s on every workload", "sharded run time"),
    ("faults.plan_events faults.server_failures",
     "availability on city_pressure", "city_steady"),
    ("par.tasks par.task_ms", "client_intervals_per_s on city_steady", "-"),
    ("obs.timeseries_mib", "interval_p50_ms on city_steady", "-"),
    ("obs.journal_mib obs.journal_events",
     "client_intervals_per_s on city_pressure", "-"),
    ("obs.output_s", "client_intervals_per_s on city_pressure (journal), "
     "interval_p50_ms on city_steady (timeseries)", "-"),
    ("snapshot.mib snapshot.encode_ms snapshot.decode_ms snapshot.save_ms "
     "snapshot.load_ms snapshot.checkpoint_s",
     "client_intervals_per_s, peak_rss_mib on city_pressure",
     "city_steady (no checkpoints)"),
    ("trace.overhead_share", "-", "-"),
]
TARGETS = {name: (move, stay) for names, move, stay in TARGET_GROUPS
           for name in names.split()}

SIMULATED = ("cold_latency_ms", "cold_window_queries", "hit_ratio",
             "availability", "offload_ratio", "backhaul_gib")


def log(msg=""):
    print(msg, flush=True)


def build():
    """Configures once and builds incrementally; output goes to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "4"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def run_child(args, workload, run_id, traced, timeout_s):
    """One run in its own process; returns its result dict or None."""
    tmp = RUNS / run_id
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--size", args.size, "--tmp", str(tmp), "--run-id", run_id]
    if traced:
        TRACES.mkdir(parents=True, exist_ok=True)
        cmd += ["--traced", "--trace-out", str(TRACES / f"{run_id}.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        log(f"  {run_id}: timed out after {timeout_s:.0f} s")
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        log("  " + line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or result["failures"]:
        log(f"  {run_id}: FAILED (exit {proc.returncode})")
        for failure in (result or {}).get("failures", []):
            log(f"    check failed: {failure}")
        sys.stderr.write(proc.stderr)
        return None
    return result


def percentile(xs, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(xs)
    k = (len(s) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def end_to_end(results, spec):
    """Aggregates untraced runs into the end_to_end metrics."""
    walls = [w for r in results for w in r["interval_wall_s"]]
    per_run = len(results[0]["interval_wall_s"])
    # Fixed per workload, not per invocation: the pooled sample of MIN_RUNS
    # runs leaves at least TAIL_BEYOND samples above this percentile.
    tail_p = max(50, min(TAIL_MAX_P, math.floor(
        100 - 100 * TAIL_BEYOND / (MIN_RUNS * per_run))))
    samples = {
        "setup_s": [r["setup_s"] for r in results],
        "interval_p50_ms": [statistics.median(r["interval_wall_s"]) * 1e3
                            for r in results],
        "client_intervals_per_s": [r["client_intervals"] / r["run_wall_s"]
                                   for r in results],
        "peak_rss_mib": [r["peak_rss_bytes"] / 2**20 for r in results],
    }
    for name in SIMULATED:
        samples[name] = [r["sim"][name] for r in results]
    values = {name: statistics.median(xs) for name, xs in samples.items()}
    values["interval_tail_ms"] = percentile(walls, tail_p) * 1e3
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    log(f"{'metric':24} {'unit':8} {'median':>14} {'q1':>14} {'q3':>14}")
    for name in list(units) + [n for n in SIMULATED if n not in units]:
        unit = units.get(name, "ratio")
        if name in samples:
            q1, med, q3 = quartiles(samples[name])
            log(f"{name:24} {unit:8} {med:14.6g} {q1:14.6g} {q3:14.6g}")
        else:
            log(f"{name:24} {unit:8} {values[name]:14.6g} {'(pooled)':>14}")
    log(f"interval_tail_ms is p{tail_p} of {len(walls)} interval walls "
        f"pooled over {len(results)} runs x {per_run} intervals")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def per_layer(results, spec):
    """The traced run's layer metrics, with their targets."""
    layers = results[0]["layers"]
    unavailable = results[0]["unavailable"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    log(f"{'per-layer metric':34} {'unit':6} {'value':>14}  should move / "
        f"no change on")
    for name, value in layers.items():
        move, stay = TARGETS[name]
        note = f"  [unavailable: {unavailable[name]}]" if name in unavailable \
            else ""
        if name not in units:
            note += " (not in BENCHMARK.json: unavailable on every workload)"
        log(f"{name:34} {units.get(name, '-'):6} {value:14.6g}  {move} / "
            f"{stay}{note}")
    return {name: {"value": layers[name], "unit": unit}
            for name, unit in units.items()}


def measure(args, workload, spec):
    """Runs one workload for args.seconds and returns its result object."""
    traced = args.trace == 1
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    log(f"workload {workload} (seed {args.seed}, {args.size} size, "
        f"{'traced' if traced else 'untraced'}): {why[workload]}")
    start = time.monotonic()
    results, attempted = [], 0
    # A traced run makes about six passes over the workload, which takes
    # about as long as the untraced runs together, so it runs once.
    while attempted < (1 if traced else MIN_RUNS) or (
            not traced and time.monotonic() - start < args.seconds):
        remaining = DEADLINE_S - (time.monotonic() - start)
        if remaining < 5 and attempted > 0:
            break
        run_id = f"{workload}-s{args.seed}-{'t' if traced else 'u'}{attempted}"
        attempted += 1
        result = run_child(args, workload, run_id, traced, remaining)
        if result is not None:
            results.append(result)
    failed = attempted - len(results)

    correct = failed == 0 and len(results) > 0
    if len({r["digest"] for r in results}) > 1:
        log("digests differ between runs of one seed")
        correct = False
    metrics = {}
    if results:
        log("env " + json.dumps(results[0]["env"]))
        log(f"digest {results[0]['digest']}")
        metrics = (per_layer if traced else end_to_end)(results, spec)
    log(f"failed_run_share {failed / attempted:.6g} ({failed} of {attempted} "
        f"runs)")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads + ["all"],
                        help="all runs every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny runs the smoke-test size")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.stderr.write(f"perfbench: build failed: {e}\n")
        return 1

    if args.workload != "all":
        print(json.dumps(measure(args, args.workload, spec)))
        return 0
    results = {}
    for workload in workloads:
        results[workload] = measure(args, workload, spec)
        print(json.dumps(results[workload]))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
