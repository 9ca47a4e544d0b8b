// Deterministic sharded execution of a ShardWorld.
//
// Every interval runs in two phases:
//
//   Phase A (parallel over shards, via par::parallel_for): each shard walks
//   its owned clients — ownership is the shard of the tile the client stood
//   on at the interval start — strictly in client-id order. The phase is
//   pure with respect to shared state: it reads server-side state (attach
//   counts, cache prefixes) exactly as frozen at the interval start, writes
//   only the client's own SoA slots, and draws randomness from counter-based
//   per-(seed, client, interval) hashes, so what a client does is a function
//   of (frozen state, client id, interval) — never of which shard or thread
//   processed it. Everything that must touch shared state is emitted as a
//   compact event (re-attachment, upload progress, dispatcher push, offline
//   detach) into the shard's buffer, in client-id order.
//
//   Phase B (parallel over server ranges): events apply in canonical
//   client-id order. Clients are walked in id order, each draining the
//   head of its owner shard's buffer — the same merge-in-submission-order
//   idea the trace-replay simulator uses for cold-start windows. The
//   servers split into contiguous ranges of whole shards, one per pool
//   thread; every range walks the whole order and applies the effects that
//   land on its own servers (cache prefix maxima, TTL wheel, attach counts,
//   timeseries rows), so each server sees its own effects in the serial
//   order, double accumulations included. The few effects that cross
//   ranges are integer sums, folded after the walk. An interval that
//   journals, can see a fault or shed an attach walks one range holding
//   every server, which is the serial order itself.
//
//   Finish: each shard keeps the TTL wheel of its own servers, and the
//   shards expire their due entries in parallel, each writing only its own
//   servers' cache tables. Erase order is unobservable, so a slot is not
//   sorted; only the cache_expire journal records need an order, and each
//   shard sorts its erased entries by (server, client) for the main thread
//   to record in shard order, which is the global order.
//
// Consequence: metrics, the streamed timeseries CSV and the streamed
// journal JSONL are byte-identical across thread counts, shard counts, SIMD
// settings, and checkpoint/resume splits — the determinism matrix
// tests/sim/shard_determinism_test.cpp enforces.
//
// Output is streamed: timeseries rows and journal events go to disk as they
// are produced (obs/stream_writer.hpp); nothing O(clients x intervals) is
// ever resident. Checkpoints record the stream byte offsets, and a resumed
// run truncates the files back to the boundary and appends.
#pragma once

#include <string>
#include <vector>

#include "sim/shard_world.hpp"
#include "sim/simulator.hpp"

namespace perdnn {

namespace snapshot {
struct SimSnapshot;
}  // namespace snapshot

struct ShardRunOptions {
  /// Number of tile shards phase A fans out over. Byte-identity-neutral.
  int num_shards = 1;
  /// Streamed timeseries CSV destination; empty disables recording.
  std::string timeseries_path;
  /// Streamed journal JSONL destination; empty disables journaling.
  std::string journal_path;
  /// Resume from this snapshot (must carry a shard section whose
  /// fingerprint matches the world's config); snapshot::SnapshotError
  /// otherwise. Streamed outputs are truncated to the checkpoint offsets.
  const snapshot::SimSnapshot* resume_from = nullptr;
  /// Capture a checkpoint whenever (interval + 1) is a positive multiple of
  /// this. 0 disables periodic checkpoints.
  int checkpoint_every = 0;
  /// Stop after completing this interval (capturing a checkpoint); -1 runs
  /// to the end.
  int stop_after_interval = -1;
  /// Where checkpoints are save()d (atomic tmp + rename). Empty disables
  /// file output — captures still go to capture_out.
  std::string checkpoint_path;
  snapshot::SimSnapshot* capture_out = nullptr;
  /// Bench hook: wall-clock seconds per executed interval (cleared first).
  /// Never feeds back into the simulation.
  std::vector<double>* interval_wall_s = nullptr;
};

/// Runs the sharded simulation to completion (or stop_after_interval) and
/// returns the aggregate metrics. Deterministic per the header contract.
SimulationMetrics run_sharded_simulation(const ShardWorld& world,
                                         const ShardRunOptions& options = {});

}  // namespace perdnn
