#!/usr/bin/env bash
# Builds the repo with ThreadSanitizer (-DPERDNN_SANITIZE=thread) and runs
# the tests that exercise the parallel runtime under a real thread pool:
# the parallel_for/parallel_map unit tests, the simulator (including the
# 1/2/8-thread determinism gate), the multi-threaded metrics tests, the
# journal writer and the sharded engine's suites. The sharded engine runs
# Phase A and the TTL expiry of finish_interval on pool workers, each shard
# writing only its own clients' and servers' state, and Phase B by server
# range, each range writing only its own servers' state; its determinism,
# fault, cache-budget and snapshot suites drive all three under TSan. Phase
# B walks more than one range only with the journal off, so the journal-off
# legs of the determinism and cache-budget suites are the ones that
# race-check it.
#
# The journal writer queues record batches in a ring that drain tasks on
# pool workers format and commit, each batch written from its slot to the
# file in record order; the recording thread formats and commits too once
# the ring is full. The
# `Journal|StreamWriter` suites race-check that hand-off directly:
# JournalStreamWriterTest at 1, 2 and 4 threads (one leg with every pool
# worker blocked, so the recording thread drains the ring alone) and the
# classic engine's JournalDeterminismTest at 1, 2 and 8. The journaled legs
# of the sharded suites drive the same pipeline through real runs.
#
# A second configuration with -DPERDNN_SIMD=OFF keeps the scalar fallback
# of the batched forest kernels sanitizer-tested: that build contains no
# AVX2 translation unit at all, so the forest/estimator/shard tests run the
# pure scalar paths under TSan.
#
# Usage: tools/check_tsan.sh [build-dir]     (default: build-tsan)
# PERDNN_THREADS is forced to 4 so every parallel region actually fans out.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DPERDNN_SANITIZE=thread
cmake --build "$BUILD_DIR" -j"$(nproc)"

export PERDNN_THREADS=4
# halt_on_error makes any race fail the ctest invocation instead of just
# printing a report.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

SHARD_SUITES='ShardDeterminism|ShardFaultDeterminism|ShardCacheBudget|ShardSnapshot'

ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R "Parallel|Simulator|Metrics|Journal|StreamWriter|$SHARD_SUITES"

# Scalar-fallback leg: same sanitizer, SIMD compiled out.
SCALAR_DIR="${BUILD_DIR}-scalar"
cmake -B "$SCALAR_DIR" -S . -DPERDNN_SANITIZE=thread -DPERDNN_SIMD=OFF
cmake --build "$SCALAR_DIR" -j"$(nproc)" \
  --target test_ml test_estimation test_obs test_sim test_snapshot
ctest --test-dir "$SCALAR_DIR" --output-on-failure \
  -R "FlatForest|Estimator|Journal|StreamWriter|$SHARD_SUITES"

echo "TSan check passed (build dirs: $BUILD_DIR, $SCALAR_DIR)"
