#include "sim/shard_world.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/wire.hpp"
#include "device/profiler.hpp"

namespace perdnn {

namespace {

constexpr double kSqrt3 = 1.7320508075688772;

[[noreturn]] void bad_field(const std::string& what) {
  throw std::logic_error("ShardWorldConfig: " + what);
}

}  // namespace

void ShardWorldConfig::validate() const {
  if (tiles_x <= 0 || tiles_y <= 0)
    bad_field("tiles_x/tiles_y must be positive");
  if (cell_radius_m <= 0.0) bad_field("cell_radius_m must be positive");
  if (num_clients <= 0) bad_field("num_clients must be positive");
  if (num_intervals <= 0) bad_field("num_intervals must be positive");
  if (interval_s <= 0.0) bad_field("interval_s must be positive");
  if (query_gap < 0.0) bad_field("query_gap must be non-negative");
  if (wireless.uplink_bytes_per_sec <= 0.0 ||
      wireless.downlink_bytes_per_sec <= 0.0)
    bad_field("wireless rates must be positive");
  if (migration_radius_m < 0.0)
    bad_field("migration_radius_m must be non-negative");
  if (ttl_intervals < 1) bad_field("ttl_intervals must be >= 1");
  if (max_load_level < 1) bad_field("max_load_level must be >= 1");
  if (speed_min_mps < 0.0 || speed_max_mps < speed_min_mps)
    bad_field("speeds must satisfy 0 <= speed_min_mps <= speed_max_mps");
  if (turn_probability < 0.0 || turn_probability > 1.0)
    bad_field("turn_probability must be in [0, 1]");
  if (offline_probability < 0.0 || offline_probability > 1.0)
    bad_field("offline_probability must be in [0, 1]");
  if (offline_intervals < 1) bad_field("offline_intervals must be >= 1");
  if (backhaul_bytes_per_sec <= 0.0)
    bad_field("backhaul_bytes_per_sec must be positive");
  if (retry_queue_cap < 1) bad_field("retry_queue_cap must be >= 1");
  if (migration_retry.max_attempts < 1 ||
      migration_retry.initial_backoff_intervals < 1 ||
      migration_retry.max_backoff_intervals <
          migration_retry.initial_backoff_intervals)
    bad_field("migration_retry must satisfy max_attempts >= 1 and "
              "1 <= initial_backoff <= max_backoff");
  if (admission_max_attached < 0)
    bad_field("admission_max_attached must be non-negative");
  if (flash_crowd_tiles < 0 || flash_crowd_tiles > num_servers())
    bad_field("flash_crowd_tiles must be in [0, num_servers]");
  if (flash_crowd_multiplier < 1.0)
    bad_field("flash_crowd_multiplier must be >= 1");
  if (cache_budget_bytes < 0)
    bad_field("cache_budget_bytes must be non-negative");
  fault_plan.check_bounds(num_servers(), num_clients);
}

ShardWorld build_shard_world(const ShardWorldConfig& config) {
  config.validate();
  ShardWorld w;
  w.config = config;
  w.model = build_model(config.model);
  w.client_profile = profile_on_client(w.model, odroid_xu4_profile());
  w.gpu = std::make_shared<GpuContentionModel>(titan_xp_profile());

  // Offline estimator training, same pipeline as build_world(): a
  // concurrency sweep over this model's layers, then the random forest.
  Rng rng(config.seed);
  ConcurrencyProfiler profiler(w.gpu.get(), rng.fork());
  const DnnModel* models[] = {&w.model};
  ProfilerConfig prof_config;
  prof_config.max_clients = std::max(12, config.max_load_level);
  prof_config.samples_per_level = 4;
  const auto records = profiler.profile_models(models, prof_config);
  w.estimator = std::make_shared<RandomForestEstimator>();
  Rng train_rng = rng.fork();
  w.estimator->train(records, train_rng);

  // Tile grid: odd-r offset rectangle, one server per tile, row-major ids.
  w.grid = HexGrid(config.cell_radius_m);
  w.server_centers.reserve(static_cast<std::size_t>(config.num_servers()));
  for (int row = 0; row < config.tiles_y; ++row) {
    for (int col = 0; col < config.tiles_x; ++col) {
      const HexCoord axial{col - (row - (row & 1)) / 2, row};
      w.server_centers.push_back(w.grid.center(axial));
    }
  }
  w.width_m = kSqrt3 * config.cell_radius_m * config.tiles_x;
  w.height_m = 1.5 * config.cell_radius_m * config.tiles_y;

  // Per-level planning tables. Each level's GPU statistics come from a
  // dedicated seeded stream (never from a shared sequential RNG), so the
  // table is identical no matter what was built before it.
  const auto n = static_cast<std::size_t>(w.model.num_layers());
  w.levels.resize(static_cast<std::size_t>(config.max_load_level));
  for (int load = 1; load <= config.max_load_level; ++load) {
    ShardLoadLevel& lvl = w.levels[static_cast<std::size_t>(load - 1)];
    std::uint64_t state =
        config.seed ^ (0x1e7e1ed5ULL * static_cast<std::uint64_t>(load + 1));
    Rng level_rng(splitmix64(state));
    lvl.stats =
        w.gpu->stats_for_load(load, static_cast<double>(load), level_rng);
    PartitionContext context;
    context.model = &w.model;
    context.client_profile = &w.client_profile;
    context.server_time = w.estimator->estimate_model(w.model, lvl.stats);
    context.net = config.wireless;
    if (load == 1) {
      // The canonical upload order every client follows: the uncontended
      // plan's server layers in topological order.
      const PartitionPlan plan = compute_best_plan(context);
      w.canonical_order = plan.server_layers();
      w.prefix_bytes.assign(1, 0);
      w.prefix_bytes.reserve(w.canonical_order.size() + 1);
      for (LayerId id : w.canonical_order)
        w.prefix_bytes.push_back(w.prefix_bytes.back() +
                                 w.model.layer(id).weight_bytes);
    }
    lvl.latency_by_prefix.resize(w.canonical_order.size() + 1);
    std::vector<bool> uploadable(n, false);
    for (std::size_t p = 0; p <= w.canonical_order.size(); ++p) {
      lvl.latency_by_prefix[p] = plan_latency(context, uploadable);
      if (p < w.canonical_order.size())
        uploadable[static_cast<std::size_t>(w.canonical_order[p])] = true;
    }
  }

  // Local-fallback service rate: the all-client plan with every server-side
  // time zeroed, mirroring SimulatorImpl::local_query_latency(). Pure
  // function of the model — no RNG.
  {
    PartitionContext context;
    context.model = &w.model;
    context.client_profile = &w.client_profile;
    context.server_time.assign(n, 0.0);
    context.net = config.wireless;
    w.local_query_latency_s = local_only_latency(context);
    PERDNN_CHECK_MSG(w.local_query_latency_s > 0.0,
                     "local-only execution latency must be positive");
  }

  // Flash-crowd hot tiles: the ones nearest the world centre, ties broken
  // by id so the ranking is total.
  if (config.flash_crowd_tiles > 0) {
    const Point centre{w.width_m * 0.5, w.height_m * 0.5};
    std::vector<std::pair<double, ServerId>> ranked;
    ranked.reserve(w.server_centers.size());
    for (std::size_t s = 0; s < w.server_centers.size(); ++s) {
      const double dx = w.server_centers[s].x - centre.x;
      const double dy = w.server_centers[s].y - centre.y;
      ranked.emplace_back(dx * dx + dy * dy, static_cast<ServerId>(s));
    }
    std::sort(ranked.begin(), ranked.end());
    for (int i = 0; i < config.flash_crowd_tiles; ++i)
      w.flash_crowd_hot_tiles.push_back(ranked[static_cast<std::size_t>(i)].second);
  }

  // Telemetry-dropout fallback tables: the load-free (LL) estimator over
  // stale statistics, mirroring degraded_level() of the trace-replay engine.
  // Trained last with a fresh fork — every pre-existing stream draws exactly
  // what it always did — and only when the plan actually scripts a dropout,
  // so fault-free builds do no extra work at all.
  bool has_dropout = false;
  for (const FaultEvent& e : config.fault_plan.events())
    if (e.kind == FaultKind::kTelemetryDropout) has_dropout = true;
  if (has_dropout) {
    NeurosurgeonEstimator fallback;
    Rng fallback_rng = rng.fork();
    fallback.train(records, fallback_rng);
    for (ShardLoadLevel& lvl : w.levels) {
      GpuStats stale = lvl.stats;
      stale.age_intervals = 1;  // telemetry stopped arriving: snapshot stale
      PartitionContext context;
      context.model = &w.model;
      context.client_profile = &w.client_profile;
      context.server_time = fallback.estimate_model(w.model, stale);
      context.net = config.wireless;
      lvl.degraded_latency_by_prefix.resize(w.canonical_order.size() + 1);
      std::vector<bool> uploadable(n, false);
      for (std::size_t p = 0; p <= w.canonical_order.size(); ++p) {
        lvl.degraded_latency_by_prefix[p] = plan_latency(context, uploadable);
        if (p < w.canonical_order.size())
          uploadable[static_cast<std::size_t>(w.canonical_order[p])] = true;
      }
    }
  }
  return w;
}

std::uint64_t shard_config_fingerprint(const ShardWorldConfig& c) {
  // Every simulation-affecting knob, through the hasher of
  // snapshot::config_fingerprint from its own start state. Shard and thread
  // counts are excluded: both are byte-identity-neutral.
  wire::FingerprintHasher h(0x5ead5ca1eULL);
  h.mix(static_cast<std::uint64_t>(c.model));
  h.mix(static_cast<std::uint64_t>(c.policy));
  h.mix(static_cast<std::uint64_t>(c.tiles_x));
  h.mix(static_cast<std::uint64_t>(c.tiles_y));
  h.mix_double(c.cell_radius_m);
  h.mix(static_cast<std::uint64_t>(c.num_clients));
  h.mix(static_cast<std::uint64_t>(c.num_intervals));
  h.mix_double(c.interval_s);
  h.mix_double(c.query_gap);
  h.mix_double(c.wireless.uplink_bytes_per_sec);
  h.mix_double(c.wireless.downlink_bytes_per_sec);
  h.mix_double(c.wireless.rtt);
  h.mix_double(c.migration_radius_m);
  h.mix(static_cast<std::uint64_t>(c.ttl_intervals));
  h.mix(static_cast<std::uint64_t>(c.max_load_level));
  h.mix_double(c.speed_min_mps);
  h.mix_double(c.speed_max_mps);
  h.mix_double(c.turn_probability);
  h.mix_double(c.offline_probability);
  h.mix(static_cast<std::uint64_t>(c.offline_intervals));
  h.mix(c.seed);
  // Fault/robustness knobs, appended so fault-free fingerprints keep their
  // original mixing order.
  h.mix_string(c.fault_plan.to_json());
  h.mix(static_cast<std::uint64_t>(c.migration_retry.max_attempts));
  h.mix(static_cast<std::uint64_t>(
      c.migration_retry.initial_backoff_intervals));
  h.mix(static_cast<std::uint64_t>(c.migration_retry.max_backoff_intervals));
  h.mix_double(c.backhaul_bytes_per_sec);
  h.mix(static_cast<std::uint64_t>(c.retry_queue_cap));
  h.mix(static_cast<std::uint64_t>(c.admission_max_attached));
  h.mix(static_cast<std::uint64_t>(c.flash_crowd_tiles));
  h.mix_double(c.flash_crowd_multiplier);
  h.mix(static_cast<std::uint64_t>(c.cache_budget_bytes));
  return h.digest();
}

}  // namespace perdnn
