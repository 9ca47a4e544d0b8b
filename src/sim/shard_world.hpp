// City-scale sharded simulation world (the SoA engine behind bench_scale).
//
// The trace-replay simulator (sim/simulator.hpp) carries one heap-heavy
// ClientState per client and re-plans through the estimator on the serial
// path, which caps it at thousands of clients. This world is built for the
// paper's headline scale — a million clients over ten thousand edge
// servers — by moving everything per-client into structure-of-arrays
// storage and everything expensive into tables precomputed once at build:
//
//   * The city is a tiles_x x tiles_y rectangle of pointy-top hex cells
//     (odd-r offset coordinates over geo/hex_grid), one edge server per
//     tile: server id = row * tiles_x + col. Contiguous tile ranges form
//     the shards that run in parallel (sim/shard_sim.hpp).
//   * Clients are synthetic random walkers (heading + speed drawn from the
//     client's counter-based RNG substream) instead of replayed traces —
//     storing a million trajectories would dwarf the simulation state.
//   * Upload sequencing uses one canonical layer order for every client:
//     the server-side layers of the uncontended (load 1) plan, in
//     topological order. A client's upload state is then a single integer —
//     the length of the canonical prefix already at the server — and cache
//     merges become commutative prefix maxima, which is what makes the
//     cross-shard event exchange order-independent.
//   * Per load level (1..max_load_level): GPU statistics drawn from a
//     per-level seeded stream, the estimator's batched outputs, and the
//     cold-window latency table latency_by_prefix[p] = plan latency when
//     the first p canonical layers are server-resident. The hot loop never
//     touches the estimator or the partition DP.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "device/device_profile.hpp"
#include "device/gpu_model.hpp"
#include "estimation/estimator.hpp"
#include "geo/hex_grid.hpp"
#include "geo/point.hpp"
#include "nn/model_zoo.hpp"
#include "partition/partition.hpp"
#include "sim/simulator.hpp"

namespace perdnn {

struct ShardWorldConfig {
  ModelName model = ModelName::kInception;
  MigrationPolicy policy = MigrationPolicy::kProactive;
  /// World shape: tiles_x * tiles_y hex tiles, one server each.
  int tiles_x = 8;
  int tiles_y = 8;
  double cell_radius_m = 50.0;
  int num_clients = 1000;
  int num_intervals = 20;
  Seconds interval_s = 20.0;
  Seconds query_gap = 0.5;
  NetworkCondition wireless{};
  /// Proactive pushes go to every tile within this radius of the predicted
  /// position, but only when the prediction crosses a tile boundary.
  double migration_radius_m = 60.0;
  int ttl_intervals = 5;
  /// Load levels precomputed at build; attach loads clamp into [1, this].
  int max_load_level = 12;
  // Random-walk mobility.
  double speed_min_mps = 0.5;
  double speed_max_mps = 2.5;
  double turn_probability = 0.2;
  /// Per-interval chance an online client goes offline for
  /// offline_intervals (scripted-churn analogue; 0 disables).
  double offline_probability = 0.0;
  int offline_intervals = 3;
  std::uint64_t seed = 42;
  /// Scripted fault schedule applied by the sharded engine. An empty plan
  /// is the default and keeps the run byte-identical to a fault-free build.
  FaultPlan fault_plan;
  /// Backoff policy for deferred migration orders (faulted runs only).
  MigrationRetryConfig migration_retry{};
  /// Healthy per-link backhaul capacity; a degraded link delivers
  /// factor * this per interval (factor from the fault plan's severity).
  double backhaul_bytes_per_sec = mbps_to_bytes_per_sec(1000.0);
  /// Per-server cap on parked retry orders: a deferral into a full source
  /// queue is dropped immediately (journal aux kDropQueueFull).
  int retry_queue_cap = 64;
  /// Per-server admission limit: once a server holds this many attached
  /// clients, further attaches this interval are shed to the local
  /// fallback, lowest cached prefix first. 0 disables admission control.
  int admission_max_attached = 0;
  /// Flash-crowd scenario: this many hot tiles (nearest the world centre)
  /// receive flash_crowd_multiplier x the uniform client density at
  /// placement. tiles = 0 or multiplier = 1 disables the knob.
  int flash_crowd_tiles = 0;
  double flash_crowd_multiplier = 1.0;
  /// Per-server byte budget for cached layer weights. 0 (the default) means
  /// unbudgeted — byte-identical to the pre-budget engine. When set, each
  /// tile evicts its lowest-saved-latency-per-byte detached entries to make
  /// room and admits only the prefix of an incoming send that fits.
  Bytes cache_budget_bytes = 0;

  int num_servers() const { return tiles_x * tiles_y; }
  /// Throws std::logic_error naming the offending field.
  void validate() const;
};

/// Precomputed per-load-level planning table.
struct ShardLoadLevel {
  GpuStats stats;
  /// Plan latency when the first p canonical layers are server-resident,
  /// p in [0, canonical_order.size()]. p = 0 is the all-client plan.
  std::vector<Seconds> latency_by_prefix;
  /// Same table planned from the load-free fallback estimator over stale
  /// statistics — the latencies a telemetry-dropout tile serves at. Built
  /// only when the config's fault plan scripts a dropout; empty otherwise.
  std::vector<Seconds> degraded_latency_by_prefix;
};

struct ShardWorld {
  ShardWorldConfig config;
  DnnModel model = DnnModel("unbuilt");
  DnnProfile client_profile;
  std::shared_ptr<GpuContentionModel> gpu;
  std::shared_ptr<RandomForestEstimator> estimator;
  HexGrid grid = HexGrid(50.0);
  /// Tile centres indexed by server id (row-major over odd-r offset coords).
  std::vector<Point> server_centers;
  /// Canonical upload order: the uncontended plan's server-side layers.
  std::vector<LayerId> canonical_order;
  /// prefix_bytes[p] = weight bytes of the first p canonical layers
  /// (size canonical_order.size() + 1, prefix_bytes[0] = 0).
  std::vector<Bytes> prefix_bytes;
  /// levels[L-1] = table for nominal load L.
  std::vector<ShardLoadLevel> levels;
  /// Metric bounding box clients walk inside.
  double width_m = 0.0;
  double height_m = 0.0;
  /// Latency of one query executed entirely on the client (every
  /// server-side time zeroed) — the local-fallback service rate.
  Seconds local_query_latency_s = 0.0;
  /// Flash-crowd hot tiles, nearest the world centre first (ties by id).
  /// Empty unless config.flash_crowd_tiles > 0.
  std::vector<ServerId> flash_crowd_hot_tiles;

  int num_servers() const { return config.num_servers(); }
  /// Tile (= server id) containing p, with out-of-rectangle cells clamped
  /// to the border tile. No wraparound: the east edge is never adjacent to
  /// the west edge.
  ServerId tile_at(Point p) const { return tile_of(grid.cell_at(p)); }
  /// The tile of an axial cell under tile_at's clamping rule.
  ServerId tile_of(HexCoord cell) const {
    const int row = std::clamp(cell.r, 0, config.tiles_y - 1);
    const int col = std::clamp(offset_col(cell), 0, config.tiles_x - 1);
    return static_cast<ServerId>(row) * config.tiles_x + col;
  }
  /// The tile of an axial cell inside the rectangle; kNoServer outside it.
  ServerId tile_in_rect(HexCoord cell) const {
    const int col = offset_col(cell);
    if (cell.r < 0 || cell.r >= config.tiles_y || col < 0 ||
        col >= config.tiles_x)
      return kNoServer;
    return static_cast<ServerId>(cell.r) * config.tiles_x + col;
  }
  /// The odd-r offset column of an axial cell (its row is cell.r).
  static int offset_col(HexCoord cell) {
    return cell.q + (cell.r - (cell.r & 1)) / 2;
  }
  Point tile_center(ServerId id) const { return server_centers[static_cast<std::size_t>(id)]; }
};

/// Builds the world: trains the estimator on a profiling sweep (the same
/// offline pipeline build_world uses) and fills every per-level table.
/// Deterministic for a given config, including across SIMD settings.
ShardWorld build_shard_world(const ShardWorldConfig& config);

/// Hash of every simulation-affecting ShardWorldConfig knob. Stored in
/// SimSnapshot::config_fingerprint by the sharded engine so checkpoints
/// cannot resume against a different scenario. Shard count and thread count
/// are deliberately excluded (byte-identity-neutral, like threads for the
/// trace-replay engine).
std::uint64_t shard_config_fingerprint(const ShardWorldConfig& config);

}  // namespace perdnn
