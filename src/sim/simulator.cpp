#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "common/check.hpp"
#include "device/device_profile.hpp"
#include "faults/fault_timeline.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/stream_writer.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/retry_rule.hpp"
#include "snapshot/snapshot.hpp"

namespace perdnn {

double SimulationMetrics::hit_ratio() const {
  const int denom = hits + misses;
  return denom > 0 ? static_cast<double>(hits) / denom : 0.0;
}

double SimulationMetrics::availability() const {
  const long long denom =
      attached_client_intervals + unreachable_client_intervals;
  return denom > 0
             ? static_cast<double>(attached_client_intervals) / denom
             : 1.0;
}

double SimulationMetrics::offload_ratio() const {
  const long long denom = cold_window_queries + local_fallback_queries;
  return denom > 0 ? static_cast<double>(cold_window_queries) / denom : 1.0;
}

void SimulationMetrics::set_backhaul(const TrafficAccountant& traffic) {
  peak_uplink_mbps = traffic.global_peak_uplink_mbps();
  peak_downlink_mbps = traffic.global_peak_downlink_mbps();
  fraction_servers_within_100mbps = traffic.fraction_servers_within(100.0);
  fraction_servers_within_100mbps_at_peak =
      traffic.fraction_servers_within_at_peak(100.0);
  server_peak_uplink_mbps.resize(
      static_cast<std::size_t>(traffic.num_servers()));
  for (ServerId s = 0; s < traffic.num_servers(); ++s)
    server_peak_uplink_mbps[static_cast<std::size_t>(s)] =
        traffic.peak_uplink_mbps(s);
}

void SimulationMetrics::close_interval(std::vector<obs::TimeseriesRow>& rows,
                                       TrafficAccountant& traffic,
                                       Bytes backlog_bytes,
                                       Bytes budget_bytes) {
  obs::TimeseriesRow sum;
  for (obs::TimeseriesRow& row : rows) {
    row.uplink_bytes = traffic.uplink_bytes(row.server);
    row.downlink_bytes = traffic.downlink_bytes(row.server);
    PERDNN_CHECK_MSG(budget_bytes == 0 || row.cache_bytes <= budget_bytes,
                     "cache budget invariant violated on server "
                         << row.server);
    sum.attached += row.attached;
    sum.hits += row.hits;
    sum.partials += row.partials;
    sum.misses += row.misses;
    sum.cold_window_queries += row.cold_window_queries;
    sum.downlink_bytes += row.downlink_bytes;
    sum.migration_orders += row.migration_orders;
    sum.deferred_bytes += row.deferred_bytes;
    sum.degraded += row.degraded;
    sum.cache_bytes += row.cache_bytes;
    sum.cache_evictions += row.cache_evictions;
    sum.cache_partial_stores += row.cache_partial_stores;
  }
  attached_client_intervals += sum.attached;
  hits += sum.hits;
  partials += sum.partials;
  misses += sum.misses;
  server_changes += sum.hits + sum.partials + sum.misses;
  cold_window_queries += sum.cold_window_queries;
  degraded_attaches += sum.degraded;
  cache_evictions += sum.cache_evictions;
  cache_partial_stores += sum.cache_partial_stores;
  deferred_migration_bytes += sum.deferred_bytes;
  // Every delivered byte lands on exactly one server's downlink.
  total_migrated_bytes += sum.downlink_bytes;
  peak_cache_bytes = std::max(peak_cache_bytes, sum.cache_bytes);
  peak_deferred_backlog_bytes =
      std::max(peak_deferred_backlog_bytes, backlog_bytes);

  // The registry mirrors, created once their sum moves. Integer sums below
  // 2^53 add exactly in a double, so they equal per-event counts.
  const auto mirror = [](const char* name, double v) {
    if (v != 0.0) obs::count(name, v);
  };
  mirror("sim.attach.hits", sum.hits);
  mirror("sim.attach.partials", sum.partials);
  mirror("sim.attach.misses", sum.misses);
  mirror("sim.attach.degraded", sum.degraded);
  mirror("sim.migration.bytes", static_cast<double>(sum.downlink_bytes));
  mirror("sim.migration.orders", sum.migration_orders);
  mirror("sim.cache.evictions", sum.cache_evictions);
  mirror("sim.cache.partial_stores", sum.cache_partial_stores);
  mirror("migration.deferred_bytes", static_cast<double>(sum.deferred_bytes));
  traffic.end_interval();
}

void SimulationConfig::validate() const {
  PERDNN_CHECK_MSG(ttl_intervals >= 1,
                   "ttl_intervals must be >= 1 (got " << ttl_intervals << ")");
  PERDNN_CHECK_MSG(trajectory_length >= 1,
                   "trajectory_length must be >= 1 (got " << trajectory_length
                                                          << ")");
  PERDNN_CHECK_MSG(query_gap >= 0.0,
                   "query_gap must be >= 0 (got " << query_gap << ")");
  PERDNN_CHECK_MSG(migration_radius_m >= 0.0,
                   "migration_radius_m must be >= 0 (got "
                       << migration_radius_m << ")");
  PERDNN_CHECK_MSG(cell_radius_m > 0.0,
                   "cell_radius_m must be > 0 (got " << cell_radius_m << ")");
  PERDNN_CHECK_MSG(visibility_radius_m >= 0.0,
                   "visibility_radius_m must be >= 0 (got "
                       << visibility_radius_m << ")");
  PERDNN_CHECK_MSG(bandwidth_jitter_sigma >= 0.0,
                   "bandwidth_jitter_sigma must be >= 0 (got "
                       << bandwidth_jitter_sigma << ")");
  PERDNN_CHECK_MSG(wireless.uplink_bytes_per_sec > 0.0 &&
                       wireless.downlink_bytes_per_sec > 0.0,
                   "wireless rates must be > 0");
  PERDNN_CHECK_MSG(wireless.rtt >= 0.0,
                   "wireless.rtt must be >= 0 (got " << wireless.rtt << ")");
  PERDNN_CHECK_MSG(server_failure_rate >= 0.0 && server_failure_rate <= 1.0,
                   "server_failure_rate must be a probability in [0, 1] (got "
                       << server_failure_rate << ")");
  PERDNN_CHECK_MSG(server_downtime_intervals >= 1,
                   "server_downtime_intervals must be >= 1 (got "
                       << server_downtime_intervals << ")");
  PERDNN_CHECK_MSG(backhaul_bytes_per_sec > 0.0,
                   "backhaul_bytes_per_sec must be > 0 (got "
                       << backhaul_bytes_per_sec << ")");
  PERDNN_CHECK_MSG(backhaul_rtt >= 0.0,
                   "backhaul_rtt must be >= 0 (got " << backhaul_rtt << ")");
  PERDNN_CHECK_MSG(crowded_byte_budget >= 0,
                   "crowded_byte_budget must be >= 0 (got "
                       << crowded_byte_budget << ")");
  PERDNN_CHECK_MSG(cache_budget_bytes >= 0,
                   "cache_budget_bytes must be >= 0 (got "
                       << cache_budget_bytes << ")");
  PERDNN_CHECK_MSG(migration_retry.max_attempts >= 1,
                   "migration_retry.max_attempts must be >= 1 (got "
                       << migration_retry.max_attempts << ")");
  PERDNN_CHECK_MSG(
      migration_retry.initial_backoff_intervals >= 1,
      "migration_retry.initial_backoff_intervals must be >= 1 (got "
          << migration_retry.initial_backoff_intervals << ")");
  PERDNN_CHECK_MSG(migration_retry.max_backoff_intervals >=
                       migration_retry.initial_backoff_intervals,
                   "migration_retry.max_backoff_intervals must be >= the "
                   "initial backoff");
  PERDNN_CHECK_MSG(
      fault_plan.empty() || server_failure_rate == 0.0,
      "a scripted fault_plan and the legacy server_failure_rate knob cannot "
      "be combined; script the crashes (or use FaultPlan::legacy_crashes)");
}

SimulationWorld build_world(const SimulationConfig& config,
                            const std::vector<Trajectory>& train_traces,
                            const std::vector<Trajectory>& test_traces) {
  PERDNN_SPAN("sim.build_world");
  config.validate();
  PERDNN_CHECK(!train_traces.empty() && !test_traces.empty());
  Rng rng(config.seed);

  SimulationWorld world{.model = build_model(config.model),
                        .client_profile = {},
                        .gpu = nullptr,
                        .estimator = nullptr,
                        .fallback_estimator = nullptr,
                        .servers = ServerMap(config.cell_radius_m),
                        .test_traces = test_traces,
                        .predictor_kind = config.predictor,
                        .predictor = nullptr,
                        .canonical_schedule = {},
                        .interval = test_traces.front().interval};
  world.client_profile =
      profile_on_client(world.model, odroid_xu4_profile());
  world.gpu = std::make_shared<GpuContentionModel>(titan_xp_profile());

  // Offline estimator training: concurrency sweep over this model's layers
  // (the paper trains per-server estimators offline with perf_client).
  ConcurrencyProfiler profiler(world.gpu.get(), rng.fork());
  const DnnModel* models[] = {&world.model};
  ProfilerConfig prof_config;
  prof_config.max_clients = 12;
  prof_config.samples_per_level = 4;
  const auto records = profiler.profile_models(models, prof_config);
  world.estimator = std::make_shared<RandomForestEstimator>();
  Rng train_rng = rng.fork();
  world.estimator->train(records, train_rng);

  // Edge servers: one per cell visited by a replayed user.
  world.servers.allocate_for_visits(all_points(test_traces));

  // Mobility predictor trained on the held-out training split. The
  // stationary and oracle baselines need no model — the simulator resolves
  // them inline from the trace itself.
  switch (config.predictor) {
    case PredictorKind::kSvr:
      world.predictor =
          std::make_shared<SvrPredictor>(config.trajectory_length);
      break;
    case PredictorKind::kMarkov:
      // Discretisation needs the server map; give the predictor its own
      // copy since the world object may be moved after build_world returns.
      world.predictor = std::make_shared<MarkovPredictor>(
          config.trajectory_length,
          std::make_shared<const ServerMap>(world.servers));
      break;
    case PredictorKind::kRnn:
      world.predictor = std::make_shared<RnnPredictor>(
          config.trajectory_length, /*hidden_dim=*/16, /*epochs=*/40);
      break;
    case PredictorKind::kStationary:
    case PredictorKind::kOracle:
      world.predictor = nullptr;
      break;
  }
  if (world.predictor != nullptr) {
    Rng predictor_rng = rng.fork();
    world.predictor->fit(train_traces, predictor_rng);
  }

  // Canonical efficiency-ordered schedule (uncontended plan). The simulator
  // sequences uploads and fractional cuts with this structural order; the
  // exact per-plan order differs negligibly under load.
  Rng stats_rng = rng.fork();
  const GpuStats stats = world.gpu->stats_for_load(1, 1.0, stats_rng);
  PartitionContext context;
  context.model = &world.model;
  context.client_profile = &world.client_profile;
  context.net = config.wireless;
  context.server_time = world.estimator->estimate_model(world.model, stats);
  const PartitionPlan plan = compute_best_plan(context);
  world.canonical_schedule = plan_upload_order(
      context, plan, {.enumeration = UploadEnumeration::kAnchored});

  // Degraded-mode fallback: the load-free LL baseline, trained on the same
  // sweep. Trained last, with a fresh fork, so every pre-existing stream
  // (profiler, forest, predictor, canonical stats) draws exactly the numbers
  // it always did — fault-free runs stay byte-identical.
  world.fallback_estimator = std::make_shared<NeurosurgeonEstimator>();
  Rng fallback_rng = rng.fork();
  world.fallback_estimator->train(records, fallback_rng);
  return world;
}

namespace {

struct ClientState {
  const Trajectory* trace = nullptr;
  ServerId current = kNoServer;
  /// Layers still to upload to the current server, in canonical order.
  std::vector<LayerId> pending;
  /// Wireless bytes banked toward pending.front().
  Bytes carry_bytes = 0;
  /// Actual-vs-nominal wireless rate factor for the current attachment.
  double link_factor = 1.0;
};

/// Per-load-level caches. GPU statistics, estimator outputs, plans and true
/// layer times are deterministic per nominal load level, so the simulator
/// computes them once per level instead of per client-interval.
struct LoadLevelCache {
  GpuStats stats;
  std::vector<Seconds> estimated;  // estimator output, drives the plan
  std::vector<Seconds> true_time;  // ground-truth expected latency
  PartitionPlan plan;
  /// The plan's server-side layers in canonical upload order, so every
  /// list filtered from it (an attach's missing layers, a push's sendable
  /// ones) is already in that order.
  std::vector<LayerId> needed;
};

class SimulatorImpl {
 public:
  SimulatorImpl(const SimulationConfig& config, const SimulationWorld& world,
                obs::SimTimeseries* timeseries)
      : config_(config),
        world_(world),
        timeseries_(timeseries),
        rng_(config.seed ^ 0x5eedf00dULL),
        link_rng_(config.seed ^ 0x11bb77aaULL),
        traffic_(world.servers.num_servers(), world.interval),
        crowded_(static_cast<std::size_t>(world.servers.num_servers()),
                 false),
        // SimulationConfig has no per-source cap: the queue grows freely.
        retry_(config.migration_retry, world.servers.num_servers(),
               std::numeric_limits<int>::max()) {
    for (ServerId s : config.crowded_servers) {
      PERDNN_CHECK(s >= 0 && s < world.servers.num_servers());
      crowded_[static_cast<std::size_t>(s)] = true;
    }
    caches_.assign(static_cast<std::size_t>(world.servers.num_servers()),
                   LayerCache(config.ttl_intervals));
    if (config.cache_budget_bytes > 0) {
      // Per-layer cost model for budget eviction: weight bytes from the
      // model, latency saved from the canonical schedule's per-layer
      // benefit apportionment (layers outside the schedule save nothing).
      std::vector<Bytes> layer_bytes(
          static_cast<std::size_t>(world.model.num_layers()));
      std::vector<double> layer_saved(
          static_cast<std::size_t>(world.model.num_layers()), 0.0);
      for (LayerId id = 0; id < world.model.num_layers(); ++id)
        layer_bytes[static_cast<std::size_t>(id)] =
            world.model.layer(id).weight_bytes;
      for (std::size_t i = 0; i < world.canonical_schedule.order.size(); ++i)
        layer_saved[static_cast<std::size_t>(
            world.canonical_schedule.order[i])] =
            world.canonical_schedule.latency_reduction[i];
      for (LayerCache& cache : caches_) {
        cache.set_budget(config.cache_budget_bytes);
        cache.set_cost_model(layer_bytes, layer_saved);
      }
    }
    attached_.assign(static_cast<std::size_t>(world.servers.num_servers()),
                     0);
    rows_.resize(static_cast<std::size_t>(world.servers.num_servers()));
    clients_.reserve(world.test_traces.size());
    for (const auto& trace : world.test_traces)
      clients_.push_back({.trace = &trace,
                          .current = kNoServer,
                          .pending = {},
                          .carry_bytes = 0,
                          .link_factor = 1.0});
    for (const auto& client : clients_)
      num_intervals_ = std::max(
          num_intervals_, static_cast<int>(client.trace->points.size()));
    // One fault source: a scripted plan replays as-is; the legacy failure
    // knobs compile to an equivalent plan (validate() rejects mixing them).
    // Either way the draws come from a dedicated seeded stream, so rng_ sees
    // exactly the sequence it sees in a fault-free run.
    FaultPlan plan = config.fault_plan;
    if (plan.empty() && config.server_failure_rate > 0.0)
      plan = FaultPlan::legacy_crashes(
          config.server_failure_rate, config.server_downtime_intervals,
          world.servers.num_servers(), num_intervals_, config.seed);
    timeline_ = FaultTimeline(plan, world.servers.num_servers(),
                              static_cast<int>(clients_.size()));
  }

  SimulationMetrics run(const SimulationRunOptions& options);

 private:
  const LoadLevelCache& level(int load);
  /// Like level(), but planned as the master sees it under a telemetry
  /// dropout: the load-free fallback estimator over the stale snapshot.
  /// Ground truth (true_time) is unaffected — only the *plan* degrades.
  const LoadLevelCache& degraded_level(int load);
  /// Rebuilds one levels_ entry from checkpointed GPU statistics — the same
  /// fill as level() minus the RNG draw (the stats ARE the draw).
  void rebuild_level(int load, const GpuStats& stats);
  /// Fills true_time at `load` and plans a level whose `stats` are set;
  /// level() and rebuild_level() share it, so both are bit-identical for
  /// equal stats.
  void fill_level(LoadLevelCache& lvl, int load) const;
  /// The plan step of a level: `estimator`'s layer times over lvl.stats,
  /// the best plan for them and its server-side layers in canonical order.
  void plan_level(LoadLevelCache& lvl,
                  const LayerTimeEstimator& estimator) const;
  /// Re-primes every mutable field from a checkpoint; throws
  /// snapshot::SnapshotError on fingerprint/shape mismatch, or when a run
  /// journaling to `journal_path` finds no journal stream to continue.
  void restore_from(const snapshot::SimSnapshot& snap,
                    const std::string& journal_path);
  /// Captures the complete state at an interval boundary, where
  /// `next_interval` is the first interval still to run. Flushes the
  /// journal so its offset is the file size.
  snapshot::SimSnapshot capture(int next_interval);
  void handle_attach(ClientId c, ServerId sid, int interval_index);
  /// Replays client `c`'s cold-start window on `sid`: the queries it runs
  /// in its first interval there while its pending layers upload, starting
  /// from the cached layers in `mask`. Adds them to the server's row and
  /// the routed count and journals one cold_serve.
  void serve_cold_window(ClientId c, ServerId sid, const LoadLevelCache& lvl,
                         std::vector<bool> mask, Seconds routed_latency,
                         int interval_index);
  void advance_uploads(int interval_index);
  void proactive_migration(int interval_index);
  /// Moves the fault timeline to this interval and opens its scripted
  /// fault windows: crashes wipe caches and drop clients, disconnects
  /// detach their client.
  void apply_faults(int interval_index);
  /// Outcome of one attempted layer push across the (possibly degraded)
  /// backhaul.
  struct PushResult {
    bool delivered = false;  ///< the order reached the target (TTL refreshed)
    Bytes sent_bytes = 0;    ///< bytes that actually crossed (post-dedup)
    std::vector<LayerId> overflow;  ///< layers that could not cross
  };
  /// Ships `layers` from `source` to `target` for client `c`, honouring the
  /// backhaul fault state: an outage delivers nothing (and crucially does
  /// NOT refresh the receiver's TTL), a degraded link ships the prefix that
  /// fits the remaining per-link capacity this interval. Stores + accounts
  /// the delivered part.
  PushResult push_layers(ClientId c, ServerId source, ServerId target,
                         std::vector<LayerId> layers, int interval_index);
  /// The retry rule over this engine's queue, metrics, rows and journal.
  RetryRule<std::vector<LayerId>> retry_rule() {
    return {retry_, metrics_, rows_, journal_.get()};
  }
  /// A failed first delivery of `layers`, handed to the retry rule.
  void defer_layers(ClientId c, ServerId source, ServerId target,
                    std::vector<LayerId> layers, int interval_index);
  /// Re-attempts every parked order whose backoff elapsed, in (source,
  /// FIFO) order.
  void retry_deferred_migrations(int interval_index);
  /// Local-execution fallback: the client runs every query on its own
  /// hardware for this interval (no reachable live server).
  void run_local_fallback(ClientId c, Point pos, int interval_index);
  Seconds local_query_latency();
  /// Server the client should use at `pos`, honouring the selection policy
  /// and skipping crashed servers; kNoServer if nothing is reachable.
  /// `current` enables switching hysteresis under kBestVisible.
  ServerId choose_server(Point pos, ServerId current);
  /// Predicted next location per the configured predictor kind.
  std::optional<Point> predict_next(const ClientState& client,
                                    std::size_t history,
                                    std::size_t interval_index) const;
  /// Per-query latency of offloading to the previous server through the
  /// backhaul; kInfSeconds when unavailable.
  Seconds routed_path_latency(ClientId c, ServerId previous);
  obs::TimeseriesRow& row(ServerId server) {
    return rows_[static_cast<std::size_t>(server)];
  }

  const SimulationConfig& config_;
  const SimulationWorld& world_;
  obs::SimTimeseries* timeseries_;  // may be null (recording disabled)
  /// Null unless the run journals.
  std::unique_ptr<obs::JournalStreamWriter> journal_;
  Rng rng_;
  Rng link_rng_;  // dedicated stream: jitter draws must not shift the
                  // stats/plan caches of non-jittered runs
  TrafficAccountant traffic_;
  std::vector<bool> crowded_;
  FaultTimeline timeline_;
  RetryQueue<std::vector<LayerId>> retry_;
  int num_intervals_ = 0;
  std::vector<LayerCache> caches_;
  std::vector<int> attached_;
  /// The open interval's timeseries rows, one per server.
  std::vector<obs::TimeseriesRow> rows_;
  std::vector<ClientState> clients_;
  std::unordered_map<int, LoadLevelCache> levels_;
  /// Degraded twins of levels_ (telemetry-dropout planning).
  std::unordered_map<int, LoadLevelCache> degraded_levels_;
  /// Lazily computed per-query latency of fully local execution (< 0 until
  /// first needed; fault-only path, so clean runs never compute it).
  Seconds local_latency_ = -1.0;
  // Scratch buffers for the per-interval proactive-migration sweep. The
  // sweep runs for every attached client every interval; growing into these
  // instead of allocating fresh vectors keeps the steady-state path
  // allocation-free (bench_micro --json reports allocations per interval).
  std::vector<HexCoord> cells_scratch_;
  std::vector<ServerId> targets_scratch_;
  std::vector<bool> source_mask_scratch_;
  std::vector<LayerId> sendable_scratch_;
  /// Target-cache mask inside push_layers' degraded-link branch.
  std::vector<bool> push_mask_scratch_;
  /// Source-cache mask in routed_path_latency / retry_deferred_migrations
  /// (never live at the same time as push_mask_scratch_'s use).
  std::vector<bool> lookup_mask_scratch_;
  SimulationMetrics metrics_;
  /// First interval run() executes; nonzero only after restore_from().
  int start_interval_ = 0;
};

namespace {
/// The plan's server-side layers in canonical upload order: those in
/// `canonical.order` first, in that order, then the rest in id order.
std::vector<LayerId> canonical_server_layers(const PartitionPlan& plan,
                                             const UploadSchedule& canonical) {
  std::vector<char> in_order(plan.location.size(), 0);
  std::vector<LayerId> out;
  for (LayerId id : canonical.order) {
    char& seen = in_order[static_cast<std::size_t>(id)];
    PERDNN_CHECK_MSG(seen == 0, "canonical upload order repeats layer " << id);
    seen = 1;
    if (plan.location[static_cast<std::size_t>(id)] == ExecLocation::kServer)
      out.push_back(id);
  }
  for (std::size_t i = 0; i < plan.location.size(); ++i)
    if (in_order[i] == 0 && plan.location[i] == ExecLocation::kServer)
      out.push_back(static_cast<LayerId>(i));
  return out;
}
}  // namespace

void SimulatorImpl::plan_level(LoadLevelCache& lvl,
                               const LayerTimeEstimator& estimator) const {
  lvl.estimated = estimator.estimate_model(world_.model, lvl.stats);
  PartitionContext context;
  context.model = &world_.model;
  context.client_profile = &world_.client_profile;
  context.server_time = lvl.estimated;
  context.net = config_.wireless;
  lvl.plan = compute_best_plan(context);
  lvl.needed = canonical_server_layers(lvl.plan, world_.canonical_schedule);
}

void SimulatorImpl::fill_level(LoadLevelCache& lvl, int load) const {
  const DnnModel& model = world_.model;
  lvl.true_time.resize(static_cast<std::size_t>(model.num_layers()));
  for (LayerId id = 0; id < model.num_layers(); ++id)
    lvl.true_time[static_cast<std::size_t>(id)] =
        world_.gpu->expected_layer_time(model.layer(id), model.input_bytes(id),
                                        static_cast<double>(load));
  plan_level(lvl, *world_.estimator);
}

const LoadLevelCache& SimulatorImpl::level(int load) {
  load = std::max(1, load);
  const auto it = levels_.find(load);
  if (it != levels_.end()) return it->second;

  LoadLevelCache lvl;
  lvl.stats = world_.gpu->stats_for_load(
      load, static_cast<double>(load), rng_);
  fill_level(lvl, load);
  return levels_.emplace(load, std::move(lvl)).first->second;
}

void SimulatorImpl::rebuild_level(int load, const GpuStats& stats) {
  LoadLevelCache lvl;
  lvl.stats = stats;
  fill_level(lvl, load);
  levels_.emplace(load, std::move(lvl));
}

const LoadLevelCache& SimulatorImpl::degraded_level(int load) {
  load = std::max(1, load);
  const auto it = degraded_levels_.find(load);
  if (it != degraded_levels_.end()) return it->second;

  // Ground truth comes from the ordinary level — execution does not care
  // what the master believed. Building it first also keeps the rng_ draw
  // order identical whether or not the dropout window exists.
  const LoadLevelCache& base = level(load);
  LoadLevelCache lvl;
  lvl.stats = base.stats;
  lvl.stats.age_intervals = 1;  // telemetry stopped arriving: snapshot stale
  lvl.true_time = base.true_time;
  const LayerTimeEstimator* fallback = world_.fallback_estimator.get();
  if (fallback == nullptr) fallback = world_.estimator.get();
  plan_level(lvl, *fallback);
  return degraded_levels_.emplace(load, std::move(lvl)).first->second;
}

Seconds SimulatorImpl::routed_path_latency(ClientId c, ServerId previous) {
  if (!config_.routing_fallback || previous == kNoServer ||
      timeline_.server_down(previous))
    return kInfSeconds;
  caches_[static_cast<std::size_t>(previous)].mask_into(c, world_.model,
                                                        lookup_mask_scratch_);
  const std::vector<bool>& prev_mask = lookup_mask_scratch_;
  // The previous server still serves this client remotely, so it keeps the
  // client's unit of load.
  const LoadLevelCache& prev_lvl =
      level(attached_[static_cast<std::size_t>(previous)] + 1);
  PartitionContext routed;
  routed.model = &world_.model;
  routed.client_profile = &world_.client_profile;
  routed.server_time = prev_lvl.true_time;
  routed.net = config_.wireless;
  // Wi-Fi to the new AP, then the backhaul hop: bottleneck bandwidth and
  // summed round-trip time.
  routed.net.uplink_bytes_per_sec = std::min(
      config_.wireless.uplink_bytes_per_sec, config_.backhaul_bytes_per_sec);
  routed.net.downlink_bytes_per_sec =
      std::min(config_.wireless.downlink_bytes_per_sec,
               config_.backhaul_bytes_per_sec);
  routed.net.rtt = config_.wireless.rtt + config_.backhaul_rtt;
  return plan_latency(routed, prev_mask);
}

void SimulatorImpl::serve_cold_window(ClientId c, ServerId sid,
                                      const LoadLevelCache& lvl,
                                      std::vector<bool> mask,
                                      Seconds routed_latency,
                                      int interval_index) {
  const ClientState& client = clients_[static_cast<std::size_t>(c)];
  const DnnModel& model = world_.model;
  // Execution sees the *actual* wireless rate of this attachment; the
  // master's plan was made against the nominal one.
  PartitionContext context;
  context.model = &model;
  context.client_profile = &world_.client_profile;
  context.server_time = lvl.true_time;
  context.net = config_.wireless;
  context.net.uplink_bytes_per_sec *= client.link_factor;
  context.net.downlink_bytes_per_sec *= client.link_factor;

  long long queries = 0;
  long long routed = 0;
  Seconds latency_sum = 0.0;
  Seconds now = 0.0;
  // pending[arrived] lands once `landed_at`, the cumulative bytes of the
  // upload sequence through it, have crossed the uplink.
  const std::vector<LayerId>& pending = client.pending;
  std::size_t arrived = 0;
  Bytes landed_at = pending.empty() ? 0 : model.layer(pending[0]).weight_bytes;
  // plan_latency is a pure function of the context and the mask, so the DP
  // runs for the first query and again only after a layer lands.
  Seconds planned = 0.0;
  bool replan = true;
  while (true) {
    const Bytes uploaded = static_cast<Bytes>(
        now * context.net.uplink_bytes_per_sec);
    while (arrived < pending.size() && landed_at <= uploaded) {
      mask[static_cast<std::size_t>(pending[arrived])] = true;
      if (++arrived < pending.size())
        landed_at += model.layer(pending[arrived]).weight_bytes;
      replan = true;
    }
    if (replan) {
      planned = plan_latency(context, mask);
      replan = false;
    }
    Seconds latency = planned;
    // Routing fallback: take the backhaul path to the previous server when
    // it is faster than what the (still warming) new server offers.
    if (routed_latency < latency) {
      latency = routed_latency;
      if (now + latency <= world_.interval) ++routed;
    }
    if (now + latency > world_.interval) break;
    ++queries;
    latency_sum += latency;
    obs::observe("sim.cold_window.query_latency_s", latency);
    now += latency + config_.query_gap;
  }

  metrics_.routed_queries += routed;
  obs::TimeseriesRow& r = row(sid);
  r.cold_window_queries += queries;
  r.cold_latency_sum_s += latency_sum;
  if (journal_ != nullptr)
    journal_->record({.interval = interval_index,
                      .kind = obs::JournalEventKind::kColdServe,
                      .client = c,
                      .server = sid,
                      .detail = static_cast<std::int32_t>(routed),
                      .aux = static_cast<std::int32_t>(queries),
                      .value = latency_sum});
}

void SimulatorImpl::handle_attach(ClientId c, ServerId sid,
                                  int interval_index) {
  ClientState& client = clients_[static_cast<std::size_t>(c)];
  const ServerId previous = client.current;
  if (client.current != kNoServer)
    --attached_[static_cast<std::size_t>(client.current)];
  client.current = sid;
  ++attached_[static_cast<std::size_t>(sid)];
  client.pending.clear();
  client.carry_bytes = 0;
  client.link_factor =
      config_.bandwidth_jitter_sigma > 0.0
          ? std::clamp(
                std::exp(config_.bandwidth_jitter_sigma * link_rng_.normal()),
                0.3, 2.0)
          : 1.0;
  if (journal_ != nullptr) {
    if (previous != kNoServer)
      journal_->record({.interval = interval_index,
                        .kind = obs::JournalEventKind::kDetach,
                        .client = c,
                        .server = previous,
                        .detail = obs::kDetachMoved});
    // Every attach opens a fresh causal chain; all later events stamped
    // with this client's id join it until the next attach.
    journal_->begin_chain(c);
    journal_->record({.interval = interval_index,
                      .kind = obs::JournalEventKind::kAttach,
                      .client = c,
                      .server = sid,
                      .value = client.link_factor});
  }

  LayerCache& cache = caches_[static_cast<std::size_t>(sid)];
  if (config_.policy == MigrationPolicy::kNone) {
    // IONN baseline: always uploads from scratch.
    cache.erase(c);
  }
  cache.touch(c, interval_index);

  // Telemetry dropout at this server: the master plans blind, through the
  // load-free fallback estimator over the stale snapshot.
  const bool degraded = timeline_.telemetry_down(sid);
  const LoadLevelCache& lvl =
      degraded ? degraded_level(attached_[static_cast<std::size_t>(sid)])
               : level(attached_[static_cast<std::size_t>(sid)]);
  if (degraded) ++row(sid).degraded;
  const DnnModel& model = world_.model;

  std::vector<bool> available =
      config_.policy == MigrationPolicy::kOptimal
          ? std::vector<bool>(static_cast<std::size_t>(model.num_layers()),
                              true)
          : cache.mask(c, model);

  // Classify the cold start and collect the layers still to upload, in the
  // canonical order lvl.needed already has.
  int present = 0;
  std::vector<LayerId> missing;
  for (LayerId id : lvl.needed) {
    if (available[static_cast<std::size_t>(id)]) {
      ++present;
    } else {
      missing.push_back(id);
    }
  }
  const bool is_hit = missing.empty();
  const bool is_miss = !is_hit && present == 0;
  if (is_hit) {
    ++row(sid).hits;
  } else if (is_miss) {
    ++row(sid).misses;
  } else {
    ++row(sid).partials;
  }

  client.pending = std::move(missing);
  if (journal_ != nullptr) {
    Bytes plan_bytes = 0;
    for (LayerId id : client.pending)
      plan_bytes += model.layer(id).weight_bytes;
    journal_->record({.interval = interval_index,
                      .kind = degraded
                                  ? obs::JournalEventKind::kDegradedPlan
                                  : obs::JournalEventKind::kPlan,
                      .client = c,
                      .server = sid,
                      .bytes = plan_bytes,
                      .detail = is_hit ? obs::kPlanHit
                                       : (is_miss ? obs::kPlanMiss
                                                  : obs::kPlanPartial),
                      .aux = static_cast<std::int32_t>(client.pending.size())});
  }
  // Mask the execution sees initially: any cached layer may be used, the
  // plan decides. The routed path (if enabled) competes per query.
  const Seconds routed_latency = routed_path_latency(c, previous);
  serve_cold_window(c, sid, lvl, std::move(available), routed_latency,
                    interval_index);
}

void SimulatorImpl::advance_uploads(int interval_index) {
  for (ClientId c = 0; c < static_cast<ClientId>(clients_.size()); ++c) {
    ClientState& client = clients_[static_cast<std::size_t>(c)];
    if (client.current == kNoServer) continue;
    LayerCache& cache = caches_[static_cast<std::size_t>(client.current)];
    if (!client.pending.empty()) {
      client.carry_bytes += static_cast<Bytes>(
          world_.interval * config_.wireless.uplink_bytes_per_sec *
          client.link_factor);
      std::vector<LayerId> arrived;
      while (!client.pending.empty()) {
        const Bytes need =
            world_.model.layer(client.pending.front()).weight_bytes;
        if (client.carry_bytes < need) break;
        client.carry_bytes -= need;
        arrived.push_back(client.pending.front());
        client.pending.erase(client.pending.begin());
      }
      if (client.pending.empty()) client.carry_bytes = 0;
      if (!arrived.empty()) cache.store(c, arrived, interval_index);
    }
    // The attached client keeps its entry alive.
    cache.touch(c, interval_index);
  }
}

void SimulatorImpl::apply_faults(int interval_index) {
  if (timeline_.empty()) return;
  timeline_.advance(interval_index);
  if (journal_ != nullptr)
    for (const obs::JournalEvent& e :
         timeline_.boundary_events(interval_index))
      journal_->record(e);
  for (ServerId s : timeline_.crashes_starting_at(interval_index)) {
    ++metrics_.server_failures;
    obs::count("sim.fault.server_crashes");
    // The crash loses every cached layer on the node (journalled per entry
    // in client order; TTL, journal binding and budget survive the wipe)...
    caches_[static_cast<std::size_t>(s)].wipe(interval_index);
    // ...and drops its clients, who re-attach (cold) next placement pass.
    for (ClientId c = 0; c < static_cast<ClientId>(clients_.size()); ++c) {
      ClientState& client = clients_[static_cast<std::size_t>(c)];
      if (client.current != s) continue;
      if (journal_ != nullptr)
        journal_->record({.interval = interval_index,
                          .kind = obs::JournalEventKind::kDetach,
                          .client = c,
                          .server = s,
                          .detail = obs::kDetachCrash});
      client.current = kNoServer;
      client.pending.clear();
      client.carry_bytes = 0;
      --attached_[static_cast<std::size_t>(s)];
      ++metrics_.failure_evictions;
    }
  }
  for (ClientId c : timeline_.disconnects_starting_at(interval_index)) {
    ++metrics_.client_disconnect_events;
    obs::count("sim.fault.client_disconnects");
    ClientState& client = clients_[static_cast<std::size_t>(c)];
    if (client.current == kNoServer) continue;
    if (journal_ != nullptr)
      journal_->record({.interval = interval_index,
                        .kind = obs::JournalEventKind::kDetach,
                        .client = c,
                        .server = client.current,
                        .detail = obs::kDetachDisconnect});
    --attached_[static_cast<std::size_t>(client.current)];
    client.current = kNoServer;
    client.pending.clear();
    client.carry_bytes = 0;
  }
}

SimulatorImpl::PushResult SimulatorImpl::push_layers(
    ClientId c, ServerId source, ServerId target,
    std::vector<LayerId> layers, int interval_index) {
  const DnnModel& model = world_.model;
  LayerCache& target_cache = caches_[static_cast<std::size_t>(target)];
  const double factor = timeline_.backhaul_factor(source, target);
  PushResult result;
  if (factor <= 0.0) {
    // Outage: no packet crosses — not even a TTL-refresh order.
    result.overflow = std::move(layers);
    return result;
  }
  std::vector<LayerId> send;
  if (factor >= 1.0) {
    send = std::move(layers);
  } else {
    // Degraded link: the prefix (canonical efficiency order) that fits the
    // remaining shared per-link capacity this interval. Layers the target
    // already holds cost no capacity (dedup suppresses the transfer).
    target_cache.mask_into(c, model, push_mask_scratch_);
    const std::vector<bool>& present = push_mask_scratch_;
    const Bytes cap = static_cast<Bytes>(
        factor * config_.backhaul_bytes_per_sec * world_.interval);
    Bytes& used = timeline_.link_used(source, target);
    bool full = false;
    for (LayerId id : layers) {
      const Bytes w = present[static_cast<std::size_t>(id)]
                          ? 0
                          : model.layer(id).weight_bytes;
      if (full || used + w > cap) {
        full = true;
        result.overflow.push_back(id);
        continue;
      }
      used += w;
      send.push_back(id);
    }
    if (send.empty() && !result.overflow.empty()) return result;  // capacity gone
  }
  // Delivered (an empty `send` is a pure TTL-refresh order): store dedups
  // and refreshes the receiver's TTL; only bytes that actually crossed are
  // accounted.
  result.delivered = true;
  const auto num_sent = static_cast<std::int32_t>(send.size());
  const std::vector<LayerId> added =
      target_cache.store(c, send, interval_index);
  for (LayerId id : added) result.sent_bytes += model.layer(id).weight_bytes;
  if (journal_ != nullptr)
    journal_->record({.interval = interval_index,
                      .kind = obs::JournalEventKind::kMigrationPushed,
                      .client = c,
                      .server = source,
                      .peer = target,
                      .bytes = result.sent_bytes,
                      .aux = num_sent});
  traffic_.record_transfer(source, target, result.sent_bytes);
  return result;
}

void SimulatorImpl::defer_layers(ClientId c, ServerId source, ServerId target,
                                 std::vector<LayerId> layers,
                                 int interval_index) {
  Bytes bytes = 0;
  for (LayerId id : layers) bytes += world_.model.layer(id).weight_bytes;
  retry_rule().defer({.client = c,
                      .source = source,
                      .target = target,
                      .payload = std::move(layers),
                      .bytes = bytes},
                     interval_index);
}

void SimulatorImpl::retry_deferred_migrations(int interval_index) {
  RetryRule<std::vector<LayerId>> rule = retry_rule();
  for (LayerRetryOrder& order : retry_.take_due(interval_index)) {
    rule.retried(order, interval_index);
    // A crashed endpoint can't take part: the target lost its radio, the
    // source lost the cache it was supposed to ship from.
    if (timeline_.server_down(order.source) ||
        timeline_.server_down(order.target)) {
      rule.park_or_drop(std::move(order), interval_index);
      continue;
    }
    // Only what the source still holds is sendable (TTL expiry or a crash
    // wipe may have eaten the order since it was parked).
    caches_[static_cast<std::size_t>(order.source)].mask_into(
        order.client, world_.model, lookup_mask_scratch_);
    const std::vector<bool>& source_mask = lookup_mask_scratch_;
    std::vector<LayerId> layers;
    for (LayerId id : order.payload)
      if (source_mask[static_cast<std::size_t>(id)]) layers.push_back(id);
    if (layers.empty()) {
      rule.dissolved(order, interval_index);
      continue;
    }
    PushResult result = push_layers(order.client, order.source, order.target,
                                    std::move(layers), interval_index);
    if (!result.delivered) {
      rule.park_or_drop(std::move(order), interval_index);
      continue;
    }
    rule.delivered(order);
    ++row(order.source).migration_orders;
    if (!result.overflow.empty())
      defer_layers(order.client, order.source, order.target,
                   std::move(result.overflow), interval_index);
  }
}

Seconds SimulatorImpl::local_query_latency() {
  if (local_latency_ < 0.0) {
    PartitionContext context;
    context.model = &world_.model;
    context.client_profile = &world_.client_profile;
    context.server_time.assign(
        static_cast<std::size_t>(world_.model.num_layers()), 0.0);
    context.net = config_.wireless;
    local_latency_ = local_only_latency(context);
    PERDNN_CHECK_MSG(local_latency_ > 0.0,
                     "local-only execution latency must be positive");
  }
  return local_latency_;
}

void SimulatorImpl::run_local_fallback(ClientId c, Point pos,
                                       int interval_index) {
  const Seconds latency = local_query_latency();
  long long queries = 0;
  Seconds now = 0.0;
  while (now + latency <= world_.interval) {
    ++queries;
    now += latency + config_.query_gap;
  }
  if (queries == 0) return;  // a single local query outlasts the interval
  const Seconds latency_sum = static_cast<double>(queries) * latency;
  metrics_.local_fallback_queries += queries;
  metrics_.local_latency_sum_s += latency_sum;
  obs::count("sim.local.queries", static_cast<double>(queries));
  if (timeseries_ != nullptr || journal_ != nullptr) {
    // Attribute to the nearest server (the one the client *would* use) so
    // the rows keep reconciling with the aggregate metrics.
    ServerId sid = world_.servers.server_at(pos);
    if (sid == kNoServer) {
      sid = world_.servers.nearest_server(
          pos, world_.servers.grid().cell_radius() * 64.0);
    }
    if (sid == kNoServer) sid = 0;
    row(sid).local_queries += queries;
    row(sid).local_latency_sum_s += latency_sum;
    if (journal_ != nullptr)
      journal_->record({.interval = interval_index,
                        .kind = obs::JournalEventKind::kLocalFallback,
                        .client = c,
                        .server = sid,
                        .aux = static_cast<std::int32_t>(queries),
                        .value = latency_sum});
  }
}

ServerId SimulatorImpl::choose_server(Point pos, ServerId current) {
  const double fallback_radius = world_.servers.grid().cell_radius() * 64.0;
  if (config_.selection == ServerSelection::kCurrentCell) {
    ServerId sid = world_.servers.server_at(pos);
    if (sid == kNoServer)
      sid = world_.servers.nearest_server(pos, fallback_radius);
    if (sid != kNoServer && !timeline_.server_down(sid)) return sid;
    // Cell server down (or missing): any live neighbour within Wi-Fi range.
    for (ServerId candidate :
         world_.servers.servers_within(pos, config_.visibility_radius_m))
      if (!timeline_.server_down(candidate)) return candidate;
    return kNoServer;
  }

  // kBestVisible: minimise the GPU-aware plan latency over visible servers,
  // assuming this client would add one unit of load.
  std::vector<ServerId> candidates =
      world_.servers.servers_within(pos, config_.visibility_radius_m);
  if (candidates.empty()) {
    const ServerId nearest =
        world_.servers.nearest_server(pos, fallback_radius);
    if (nearest != kNoServer) candidates.push_back(nearest);
  }
  ServerId best = kNoServer;
  Seconds best_latency = kInfSeconds;
  Seconds current_latency = kInfSeconds;
  bool current_visible = false;
  for (ServerId candidate : candidates) {
    if (timeline_.server_down(candidate)) continue;
    // For the already-attached server the client's own load is included.
    const int extra = candidate == current ? 0 : 1;
    const int load = attached_[static_cast<std::size_t>(candidate)] + extra;
    // The master compares the latencies it can *predict*: a telemetry-dark
    // candidate is judged by its degraded (load-free) plan.
    const Seconds latency =
        (timeline_.telemetry_down(candidate) ? degraded_level(load)
                                             : level(load))
            .plan.latency;
    if (candidate == current) {
      current_visible = true;
      current_latency = latency;
    }
    if (latency < best_latency) {
      best_latency = latency;
      best = candidate;
    }
  }
  // Hysteresis: keep the current server unless a visible alternative is
  // meaningfully better — otherwise load ties cause attachment flapping and
  // spurious cold starts.
  if (current_visible && current_latency <= best_latency * 1.15)
    return current;
  return best;
}

std::optional<Point> SimulatorImpl::predict_next(
    const ClientState& client, std::size_t history,
    std::size_t interval_index) const {
  const auto& points = client.trace->points;
  switch (config_.predictor) {
    case PredictorKind::kStationary:
      return points[history - 1];
    case PredictorKind::kOracle:
      return points[std::min(interval_index + 1, points.size() - 1)];
    default: {
      PERDNN_CHECK_MSG(config_.predictor == world_.predictor_kind &&
                           world_.predictor != nullptr,
                       "model-based predictor kind must match the one the "
                       "world was built with");
      const auto n = static_cast<std::size_t>(config_.trajectory_length);
      if (history < n) return std::nullopt;
      return world_.predictor->predict(
          std::span<const Point>(points.data(), history));
    }
  }
}

void SimulatorImpl::proactive_migration(int interval_index) {
  PERDNN_SPAN("sim.migrate");
  for (ClientId c = 0; c < static_cast<ClientId>(clients_.size()); ++c) {
    ClientState& client = clients_[static_cast<std::size_t>(c)];
    const auto& points = client.trace->points;
    const auto history =
        std::min(points.size(), static_cast<std::size_t>(interval_index) + 1);
    if (history == 0 || client.current == kNoServer) continue;

    const std::optional<Point> predicted = predict_next(
        client, history, static_cast<std::size_t>(interval_index));
    if (!predicted) continue;
    // Predictor error meter: the trace itself knows the actual next
    // position, so every prediction yields one |predicted - actual| sample,
    // attributed to the client's current server.
    if (static_cast<std::size_t>(interval_index) + 1 < points.size()) {
      const double error_m = distance(
          *predicted, points[static_cast<std::size_t>(interval_index) + 1]);
      obs::observe("sim.predictor.abs_error_m", error_m);
      ++row(client.current).predictor_samples;
      row(client.current).predictor_error_sum_m += error_m;
    }
    world_.servers.servers_within_into(*predicted, config_.migration_radius_m,
                                       cells_scratch_, targets_scratch_);

    LayerCache& source_cache =
        caches_[static_cast<std::size_t>(client.current)];
    source_cache.mask_into(c, world_.model, source_mask_scratch_);
    const std::vector<bool>& source_mask = source_mask_scratch_;

    for (ServerId target : targets_scratch_) {
      if (target == client.current) continue;  // futile for migration
      if (timeline_.server_down(target)) continue;
      const int load = attached_[static_cast<std::size_t>(target)] + 1;
      const LoadLevelCache& lvl =
          timeline_.telemetry_down(target) ? degraded_level(load)
                                           : level(load);

      // Send what the future plan needs and the source actually has, in
      // canonical order. Candidates accumulate in a scratch vector so the
      // (common) futile and truncated-to-nothing targets cost no
      // allocation; a real vector is only materialized once an order is
      // actually issued.
      sendable_scratch_.clear();
      for (LayerId id : lvl.needed)
        if (source_mask[static_cast<std::size_t>(id)])
          sendable_scratch_.push_back(id);
      // Futile order: the source holds nothing the future plan needs, so no
      // layer could ever ship. Don't issue (or count, or record) an order
      // that cannot move a byte.
      if (sendable_scratch_.empty()) continue;
      if (journal_ != nullptr) {
        Bytes planned_bytes = 0;
        for (LayerId id : sendable_scratch_)
          planned_bytes += world_.model.layer(id).weight_bytes;
        journal_->record(
            {.interval = interval_index,
             .kind = obs::JournalEventKind::kMigrationPlanned,
             .client = c,
             .server = client.current,
             .peer = target,
             .bytes = planned_bytes,
             .aux = static_cast<std::int32_t>(sendable_scratch_.size())});
      }

      // Fractional migration: crowded endpoints cap the migrated bytes to
      // the highest-efficiency prefix.
      const bool capped =
          config_.crowded_byte_budget > 0 &&
          (crowded_[static_cast<std::size_t>(target)] ||
           crowded_[static_cast<std::size_t>(client.current)]);
      if (capped) {
        Bytes used = 0;
        std::size_t keep = 0;
        while (keep < sendable_scratch_.size()) {
          const Bytes w =
              world_.model.layer(sendable_scratch_[keep]).weight_bytes;
          if (used + w > config_.crowded_byte_budget) break;
          used += w;
          ++keep;
        }
        if (keep == 0) {
          // The budget is smaller than every candidate layer: the order
          // would truncate to nothing. Count it instead of silently issuing
          // an empty send.
          ++metrics_.migrations_truncated;
          obs::count("sim.migration.truncated");
          continue;
        }
        sendable_scratch_.resize(keep);
      }
      std::vector<LayerId> sendable(sendable_scratch_.begin(),
                                    sendable_scratch_.end());

      // Fault-aware delivery. On a healthy link this stores (deduplicating)
      // and accounts only the bytes that actually crossed the backhaul; even
      // an empty effective send refreshes TTL (the paper's duplicate-
      // transmission suppression). A backhaul outage defers the whole order
      // into the retry queue — and crucially does NOT refresh the receiver's
      // TTL; a degraded link ships what fits and defers the overflow.
      PushResult result = push_layers(
          c, client.current, target, std::move(sendable), interval_index);
      if (!result.overflow.empty())
        defer_layers(c, client.current, target, std::move(result.overflow),
                     interval_index);
      // Counted even when fully deduplicated (0 bytes): the order was still
      // issued, only the transfer was suppressed.
      ++row(client.current).migration_orders;
    }
  }
}

snapshot::SimSnapshot SimulatorImpl::capture(int next_interval) {
  snapshot::SimSnapshot snap;
  snap.config_fingerprint = snapshot::config_fingerprint(config_, world_);
  snap.next_interval = next_interval;
  snap.num_intervals = num_intervals_;
  snap.rng = rng_.state();
  snap.link_rng = link_rng_.state();
  snap.caches.reserve(caches_.size());
  for (const LayerCache& cache : caches_)
    snap.caches.push_back(cache.export_entries());
  snap.retry_orders = retry_.flatten();
  snap.traffic = traffic_.state();
  snap.attached = attached_;
  snap.clients.reserve(clients_.size());
  for (const ClientState& client : clients_)
    snap.clients.push_back({.current = client.current,
                            .pending = client.pending,
                            .carry_bytes = client.carry_bytes,
                            .link_factor = client.link_factor});
  // Only the stats survive: they carry the RNG draw, and everything else in
  // a level is a deterministic function of them (rebuilt on restore).
  // Sorted by load so the snapshot bytes don't depend on hash-map order.
  for (const auto& [load, lvl] : levels_)
    snap.levels.push_back({.load = load, .stats = lvl.stats});
  std::sort(snap.levels.begin(), snap.levels.end(),
            [](const auto& a, const auto& b) { return a.load < b.load; });
  for (const auto& [load, lvl] : degraded_levels_)
    snap.degraded_levels.push_back({.load = load, .stats = lvl.stats});
  std::sort(snap.degraded_levels.begin(), snap.degraded_levels.end(),
            [](const auto& a, const auto& b) { return a.load < b.load; });
  snap.metrics = metrics_;
  if (timeseries_ != nullptr) {
    snap.has_timeseries = true;
    snap.timeseries_rows = timeseries_->rows();
  }
  if (journal_ != nullptr) {
    journal_->flush();
    snap.has_journal = true;
    snap.journal = journal_->state();
  }
  return snap;
}

void SimulatorImpl::restore_from(const snapshot::SimSnapshot& snap,
                                 const std::string& journal_path) {
  const auto servers = static_cast<std::size_t>(world_.servers.num_servers());
  if (snap.config_fingerprint != snapshot::config_fingerprint(config_, world_))
    throw snapshot::SnapshotError(
        "snapshot: config fingerprint mismatch — this checkpoint belongs to "
        "a different scenario (config, fault plan, traces, or world)");
  if (snap.num_intervals != num_intervals_ ||
      snap.next_interval < 0 || snap.next_interval > num_intervals_ ||
      snap.caches.size() != servers || snap.attached.size() != servers ||
      snap.clients.size() != clients_.size())
    throw snapshot::SnapshotError(
        "snapshot: state shape does not match the world");
  // Every index the run will follow must name something in this world.
  const auto server_ok = [&](ServerId s) {
    return s >= 0 && s < world_.servers.num_servers();
  };
  const auto client_ok = [&](ClientId c) {
    return c >= 0 && c < static_cast<ClientId>(clients_.size());
  };
  const auto layers_ok = [&](const std::vector<LayerId>& layers) {
    return std::all_of(layers.begin(), layers.end(), [&](LayerId id) {
      return id >= 0 && id < world_.model.num_layers();
    });
  };
  for (const auto& entries : snap.caches)
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (!client_ok(entries[i].client) || !layers_ok(entries[i].layers))
        throw snapshot::SnapshotError("snapshot: cache entry out of range");
      // export_entries writes each server's entries strictly ascending by
      // client: a repeated client would restore as one entry holding the
      // bytes of both.
      if (i > 0 && entries[i].client <= entries[i - 1].client)
        throw snapshot::SnapshotError(
            "snapshot: cache entries not strictly ascending by client");
    }
  for (const LayerRetryOrder& order : snap.retry_orders)
    if (!client_ok(order.client) || !server_ok(order.source) ||
        !server_ok(order.target) || !layers_ok(order.payload) ||
        order.bytes < 0 || order.bytes > world_.model.total_weight_bytes() ||
        order.attempts < 1 || retry_.budget_spent(order.attempts))
      throw snapshot::SnapshotError(
          "snapshot: parked migration order out of range");
  // Each server's attach count is the number of clients on it: the run
  // keeps the two in step, and every later load level reads the count.
  std::vector<int> attached(servers, 0);
  for (const snapshot::ClientSnapshot& cs : snap.clients) {
    if (cs.current != kNoServer && !server_ok(cs.current))
      throw snapshot::SnapshotError(
          "snapshot: client attached to an out-of-range server");
    if (!layers_ok(cs.pending))
      throw snapshot::SnapshotError(
          "snapshot: pending layer id out of range");
    if (cs.current != kNoServer)
      ++attached[static_cast<std::size_t>(cs.current)];
  }
  if (attached != snap.attached)
    throw snapshot::SnapshotError(
        "snapshot: attach counts do not match the attached clients");
  if (!snap.traffic.has_width(servers))
    throw snapshot::SnapshotError(
        "snapshot: traffic summary width does not match the server count");
  if (snap.timeseries_rows.size() % servers != 0)
    throw snapshot::SnapshotError(
        "snapshot: timeseries rows do not cover whole intervals");
  snapshot::check_journal_resume(snap, journal_path,
                                 static_cast<int>(clients_.size()));
  rng_.restore(snap.rng);
  link_rng_.restore(snap.link_rng);
  for (std::size_t s = 0; s < servers; ++s)
    caches_[s].restore_entries(snap.caches[s]);
  retry_.restore(snap.retry_orders);
  traffic_.restore(snap.traffic);
  attached_ = snap.attached;
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    const snapshot::ClientSnapshot& cs = snap.clients[c];
    clients_[c].current = cs.current;
    clients_[c].pending = cs.pending;
    clients_[c].carry_bytes = cs.carry_bytes;
    clients_[c].link_factor = cs.link_factor;
  }
  // Rebuild the level caches from the checkpointed GPU statistics: base
  // levels first (degraded ones read their ground truth from them). Neither
  // rebuild touches rng_ — the stats are the only draw, and they came from
  // the snapshot.
  levels_.clear();
  degraded_levels_.clear();
  for (const snapshot::LoadLevelSnapshot& lvl : snap.levels)
    rebuild_level(lvl.load, lvl.stats);
  for (const snapshot::LoadLevelSnapshot& lvl : snap.degraded_levels) {
    if (levels_.find(std::max(1, lvl.load)) == levels_.end())
      throw snapshot::SnapshotError(
          "snapshot: degraded level without its base level");
    degraded_level(lvl.load);
  }
  metrics_ = snap.metrics;
  start_interval_ = snap.next_interval;
  timeline_.seek(start_interval_);
}

SimulationMetrics SimulatorImpl::run(const SimulationRunOptions& options) {
  PERDNN_SPAN("sim.run");
  if (timeseries_ != nullptr && config_.cache_budget_bytes > 0)
    timeseries_->enable_cache_columns();
  if (options.resume_from != nullptr) {
    restore_from(*options.resume_from, options.journal_path);
    if (timeseries_ != nullptr)
      timeseries_->restore(world_.servers.num_servers(), world_.interval,
                           options.resume_from->timeseries_rows,
                           start_interval_, num_intervals_);
  } else if (timeseries_ != nullptr) {
    timeseries_->start(world_.servers.num_servers(), world_.interval,
                       num_intervals_);
  }
  // A resumed journal truncates its file back to the checkpoint's offset.
  if (!options.journal_path.empty()) {
    journal_ = options.resume_from != nullptr
                   ? std::make_unique<obs::JournalStreamWriter>(
                         options.journal_path, options.resume_from->journal)
                   : std::make_unique<obs::JournalStreamWriter>(
                         options.journal_path);
    for (ServerId s = 0; s < world_.servers.num_servers(); ++s)
      caches_[static_cast<std::size_t>(s)].set_journal(journal_.get(), s);
  }

  const auto num_intervals = static_cast<std::size_t>(num_intervals_);
  for (std::size_t k = static_cast<std::size_t>(start_interval_);
       k < num_intervals; ++k) {
    PERDNN_SPAN("sim.interval");
    const int interval_index = static_cast<int>(k);
    for (ServerId s = 0; s < world_.servers.num_servers(); ++s)
      row(s) = {.interval = interval_index, .server = s};

    // 0) Scripted fault windows open (crashed servers lose caches and
    //    clients, disconnecting clients detach).
    apply_faults(interval_index);

    // 1) Movement and (re-)attachment.
    for (ClientId c = 0; c < static_cast<ClientId>(clients_.size()); ++c) {
      ClientState& client = clients_[static_cast<std::size_t>(c)];
      if (k >= client.trace->points.size()) {
        // Trace ended: the client leaves the system.
        if (client.current != kNoServer) {
          if (journal_ != nullptr)
            journal_->record({.interval = interval_index,
                              .kind = obs::JournalEventKind::kDetach,
                              .client = c,
                              .server = client.current,
                              .detail = obs::kDetachTraceEnd});
          --attached_[static_cast<std::size_t>(client.current)];
          client.current = kNoServer;
          client.pending.clear();
        }
        continue;
      }
      if (timeline_.client_offline(c)) {
        // Scripted disconnect: radio off, nothing happens this interval
        // (apply_faults already detached the client at the window start).
        ++metrics_.offline_client_intervals;
        continue;
      }
      const Point pos = client.trace->points[k];
      const ServerId sid = choose_server(pos, client.current);
      if (sid == kNoServer) {
        // No reachable live server (outage): graceful degradation to fully
        // local execution for this interval.
        if (client.current != kNoServer) {
          if (journal_ != nullptr)
            journal_->record({.interval = interval_index,
                              .kind = obs::JournalEventKind::kDetach,
                              .client = c,
                              .server = client.current,
                              .detail = obs::kDetachUnreachable});
          --attached_[static_cast<std::size_t>(client.current)];
          client.current = kNoServer;
          client.pending.clear();
          client.carry_bytes = 0;
        }
        ++metrics_.unreachable_client_intervals;
        run_local_fallback(c, pos, interval_index);
        continue;
      }
      if (sid != client.current) handle_attach(c, sid, interval_index);
    }

    // 2) Incremental uploads progress; attached entries stay fresh.
    advance_uploads(interval_index);

    // 3) Parked migration orders retry first (oldest backlog gets freed
    //    capacity), then prediction + proactive migration.
    if (config_.policy == MigrationPolicy::kProactive) {
      retry_deferred_migrations(interval_index);
      proactive_migration(interval_index);
    }

    // 4) TTL expiry.
    for (auto& cache : caches_) cache.expire(interval_index);

    // 5) Close the interval: each row takes its server's attach count and,
    //    under a budget, its cache columns (unbudgeted runs leave them 0);
    //    then the fold sums the rows into metrics_.
    for (ServerId s = 0; s < world_.servers.num_servers(); ++s) {
      const auto si = static_cast<std::size_t>(s);
      row(s).attached = attached_[si];
      if (config_.cache_budget_bytes == 0) continue;
      LayerCache& cache = caches_[si];
      row(s).cache_bytes = cache.total_bytes();
      const LayerCache::BudgetCounts counts = cache.take_budget_counts();
      row(s).cache_evictions = counts.evictions;
      row(s).cache_partial_stores = counts.partial_stores;
    }
    metrics_.close_interval(rows_, traffic_, retry_.backlog_bytes(),
                            config_.cache_budget_bytes);
    if (timeseries_ != nullptr) timeseries_->append_interval(rows_);

    // Interval boundary: the checkpoint hook. Everything transient is
    // settled here (the interval's rows, traffic and cache counters
    // closed), so a snapshot taken now resumes byte-identically.
    const bool stop_here = options.stop_after_interval == interval_index;
    if (snapshot::checkpoint_due(options.checkpoint_every,
                                 options.stop_after_interval, interval_index,
                                 num_intervals_)) {
      snapshot::SimSnapshot snap = capture(interval_index + 1);
      if (!options.checkpoint_path.empty())
        snapshot::save(snap, options.checkpoint_path);
      if (options.capture_out != nullptr)
        *options.capture_out = std::move(snap);
      obs::count("sim.snapshot.captured");
    }
    if (stop_here) return metrics_;  // partial: caller resumes later
  }

  metrics_.set_backhaul(traffic_);
  metrics_.num_servers = world_.servers.num_servers();
  metrics_.num_clients = static_cast<int>(clients_.size());
  metrics_.num_intervals = static_cast<int>(num_intervals);
  if (journal_ != nullptr) journal_->flush();
  return metrics_;
}

}  // namespace

SimulationMetrics run_simulation(const SimulationConfig& config,
                                 const SimulationWorld& world) {
  return run_simulation(config, world, nullptr, {});
}

SimulationMetrics run_simulation(const SimulationConfig& config,
                                 const SimulationWorld& world,
                                 obs::SimTimeseries* timeseries) {
  return run_simulation(config, world, timeseries, {});
}

SimulationMetrics run_simulation(const SimulationConfig& config,
                                 const SimulationWorld& world,
                                 obs::SimTimeseries* timeseries,
                                 const SimulationRunOptions& options) {
  config.validate();
  SimulatorImpl impl(config, world, timeseries);
  return impl.run(options);
}

}  // namespace perdnn
