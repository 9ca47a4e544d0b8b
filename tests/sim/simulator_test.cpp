#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "mobility/trace_gen.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace perdnn {
namespace {

/// A small but non-trivial world shared by every test in this file: campus
/// traces (slow, predictable users), MobileNet (fast to plan), short runs.
class SimulatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CampusTraceConfig train_config;
    train_config.num_users = 10;
    train_config.duration = 1.5 * 3600.0;
    train_config.sample_interval = 20.0;
    train_config.seed = 100;
    CampusTraceConfig test_config = train_config;
    test_config.num_users = 6;
    test_config.seed = 200;

    config_ = new SimulationConfig;
    config_->model = ModelName::kMobileNet;
    config_->migration_radius_m = 100.0;
    config_->seed = 5;

    world_ = new SimulationWorld(
        build_world(*config_, generate_campus_traces(train_config),
                    generate_campus_traces(test_config)));
  }

  static void TearDownTestSuite() {
    delete world_;
    delete config_;
    world_ = nullptr;
    config_ = nullptr;
  }

  static SimulationMetrics run_policy(MigrationPolicy policy) {
    SimulationConfig config = *config_;
    config.policy = policy;
    return run_simulation(config, *world_);
  }

  static SimulationConfig* config_;
  static SimulationWorld* world_;
};

SimulationConfig* SimulatorTest::config_ = nullptr;
SimulationWorld* SimulatorTest::world_ = nullptr;

TEST(SimulationMetricsTest, HitRatioIsZeroWhenNothingClassified) {
  // 0/0 guard: a run with no cold starts (hits + misses == 0) defines the
  // ratio as 0.0 instead of NaN, and partials alone do not change that.
  SimulationMetrics metrics;
  EXPECT_DOUBLE_EQ(metrics.hit_ratio(), 0.0);
  metrics.partials = 3;
  EXPECT_DOUBLE_EQ(metrics.hit_ratio(), 0.0);
  metrics.hits = 1;
  metrics.misses = 1;
  EXPECT_DOUBLE_EQ(metrics.hit_ratio(), 0.5);
}

TEST(SimulationMetricsTest, CloseIntervalFoldsTheRowsOnce) {
  // Three servers' hand-built rows and a ledger holding three transfers.
  // The fold copies each server's bytes into its row, adds each row-backed
  // counter as its column's sum, raises both peaks, mirrors the non-zero
  // sums into the registry and ends the traffic interval.
  obs::Registry::global().reset();
  obs::set_enabled(true);
  TrafficAccountant traffic(3, 20.0);
  traffic.record_transfer(0, 1, 700);
  traffic.record_transfer(2, 1, 300);
  traffic.record_transfer(0, 2, 50);
  std::vector<obs::TimeseriesRow> rows = {
      {.server = 0,
       .attached = 2,
       .hits = 1,
       .misses = 2,
       .cold_window_queries = 30,
       .migration_orders = 2,
       .deferred_bytes = 400,
       .cache_bytes = 100,
       .cache_evictions = 1},
      {.server = 1,
       .attached = 1,
       .cold_window_queries = 5,
       .degraded = 1,
       .cache_bytes = 250,
       .cache_partial_stores = 2},
      {.server = 2, .migration_orders = 1}};
  SimulationMetrics m;
  m.close_interval(rows, traffic, /*backlog_bytes=*/500,
                   /*budget_bytes=*/250);
  obs::set_enabled(false);

  EXPECT_EQ(rows[0].uplink_bytes, 750);
  EXPECT_EQ(rows[0].downlink_bytes, 0);
  EXPECT_EQ(rows[1].uplink_bytes, 0);
  EXPECT_EQ(rows[1].downlink_bytes, 1000);
  EXPECT_EQ(rows[2].uplink_bytes, 300);
  EXPECT_EQ(rows[2].downlink_bytes, 50);
  EXPECT_EQ(m.attached_client_intervals, 3);
  EXPECT_EQ(m.hits, 1);
  EXPECT_EQ(m.partials, 0);
  EXPECT_EQ(m.misses, 2);
  EXPECT_EQ(m.server_changes, 3);
  EXPECT_EQ(m.cold_window_queries, 35);
  EXPECT_EQ(m.degraded_attaches, 1);
  EXPECT_EQ(m.cache_evictions, 1);
  EXPECT_EQ(m.cache_partial_stores, 2);
  EXPECT_EQ(m.deferred_migration_bytes, 400);
  EXPECT_EQ(m.total_migrated_bytes, 1050);
  EXPECT_EQ(m.peak_cache_bytes, 350);
  EXPECT_EQ(m.peak_deferred_backlog_bytes, 500);
  // The interval ended: the ledger's open interval is empty, and its
  // summary holds the closed one.
  for (ServerId s = 0; s < 3; ++s) {
    EXPECT_EQ(traffic.uplink_bytes(s), 0);
    EXPECT_EQ(traffic.downlink_bytes(s), 0);
  }
  EXPECT_EQ(traffic.state().busiest_total, 1050);

  // No partial, so no partial counter; counter() below would create one.
  const std::string registry = obs::Registry::global().to_json();
  EXPECT_EQ(registry.find("\"sim.attach.partials\""), std::string::npos);
  EXPECT_NE(registry.find("\"sim.attach.hits\""), std::string::npos);
  const auto counter = [](const char* name) {
    return obs::Registry::global().counter(name).value();
  };
  EXPECT_EQ(counter("sim.attach.hits"), 1.0);
  EXPECT_EQ(counter("sim.attach.misses"), 2.0);
  EXPECT_EQ(counter("sim.attach.degraded"), 1.0);
  EXPECT_EQ(counter("sim.migration.bytes"), 1050.0);
  EXPECT_EQ(counter("sim.migration.orders"), 3.0);
  EXPECT_EQ(counter("sim.cache.evictions"), 1.0);
  EXPECT_EQ(counter("sim.cache.partial_stores"), 2.0);
  EXPECT_EQ(counter("migration.deferred_bytes"), 400.0);
  obs::Registry::global().reset();

  // A quieter second interval adds to the sums and leaves both peaks.
  std::vector<obs::TimeseriesRow> quiet = {
      {.interval = 1, .server = 0, .attached = 1, .cache_bytes = 40},
      {.interval = 1, .server = 1, .partials = 1},
      {.interval = 1, .server = 2}};
  m.close_interval(quiet, traffic, /*backlog_bytes=*/100,
                   /*budget_bytes=*/250);
  EXPECT_EQ(m.attached_client_intervals, 4);
  EXPECT_EQ(m.partials, 1);
  EXPECT_EQ(m.server_changes, 4);
  EXPECT_EQ(m.total_migrated_bytes, 1050);
  EXPECT_EQ(m.peak_cache_bytes, 350);
  EXPECT_EQ(m.peak_deferred_backlog_bytes, 500);
}

TEST(SimulationMetricsTest, CloseIntervalRefusesARowOverTheBudget) {
  TrafficAccountant traffic(2, 20.0);
  std::vector<obs::TimeseriesRow> rows = {{.server = 0, .cache_bytes = 100},
                                          {.server = 1, .cache_bytes = 101}};
  SimulationMetrics m;
  EXPECT_THROW(m.close_interval(rows, traffic, 0, /*budget_bytes=*/100),
               std::logic_error);
  // Budget 0 means unbudgeted: no row is checked.
  SimulationMetrics unbudgeted;
  unbudgeted.close_interval(rows, traffic, 0, /*budget_bytes=*/0);
  EXPECT_EQ(unbudgeted.peak_cache_bytes, 201);
}

TEST_F(SimulatorTest, WorldBuildsSaneComponents) {
  EXPECT_GT(world_->servers.num_servers(), 3);
  EXPECT_EQ(world_->test_traces.size(), 6u);
  EXPECT_FALSE(world_->canonical_schedule.order.empty());
  EXPECT_DOUBLE_EQ(world_->interval, 20.0);
}

TEST_F(SimulatorTest, BaselineNeverHits) {
  const SimulationMetrics metrics = run_policy(MigrationPolicy::kNone);
  EXPECT_EQ(metrics.hits, 0);
  EXPECT_EQ(metrics.partials, 0);
  EXPECT_DOUBLE_EQ(metrics.hit_ratio(), 0.0);
  EXPECT_EQ(metrics.total_migrated_bytes, 0);
  EXPECT_DOUBLE_EQ(metrics.peak_uplink_mbps, 0.0);
  EXPECT_GT(metrics.server_changes, 0);
}

TEST_F(SimulatorTest, OptimalAlwaysHits) {
  const SimulationMetrics metrics = run_policy(MigrationPolicy::kOptimal);
  EXPECT_EQ(metrics.misses, 0);
  EXPECT_EQ(metrics.partials, 0);
  EXPECT_DOUBLE_EQ(metrics.hit_ratio(), 1.0);
}

TEST_F(SimulatorTest, ColdStartAccountingIsConsistent) {
  const SimulationMetrics metrics = run_policy(MigrationPolicy::kProactive);
  EXPECT_EQ(metrics.hits + metrics.partials + metrics.misses,
            metrics.server_changes);
  EXPECT_GE(metrics.hit_ratio(), 0.0);
  EXPECT_LE(metrics.hit_ratio(), 1.0);
  EXPECT_EQ(metrics.num_clients, 6);
  EXPECT_GT(metrics.num_intervals, 0);
  EXPECT_EQ(metrics.server_peak_uplink_mbps.size(),
            static_cast<std::size_t>(metrics.num_servers));
}

TEST_F(SimulatorTest, ProactiveMigrationProducesHitsAndTraffic) {
  const SimulationMetrics metrics = run_policy(MigrationPolicy::kProactive);
  EXPECT_GT(metrics.hits + metrics.partials, 0);
  EXPECT_GT(metrics.total_migrated_bytes, 0);
  EXPECT_GT(metrics.peak_uplink_mbps, 0.0);
}

TEST_F(SimulatorTest, QueryCountOrderingAcrossPolicies) {
  const auto none = run_policy(MigrationPolicy::kNone);
  const auto proactive = run_policy(MigrationPolicy::kProactive);
  const auto optimal = run_policy(MigrationPolicy::kOptimal);
  // Cold-start-window throughput: baseline <= PerDNN <= Optimal.
  EXPECT_LE(none.cold_window_queries, proactive.cold_window_queries);
  EXPECT_LE(proactive.cold_window_queries, optimal.cold_window_queries);
  EXPECT_GT(none.cold_window_queries, 0);
}

TEST_F(SimulatorTest, LargerRadiusHitsAtLeastAsOften) {
  SimulationConfig narrow = *config_;
  narrow.policy = MigrationPolicy::kProactive;
  narrow.migration_radius_m = 50.0;
  SimulationConfig wide = narrow;
  wide.migration_radius_m = 150.0;
  const auto narrow_metrics = run_simulation(narrow, *world_);
  const auto wide_metrics = run_simulation(wide, *world_);
  EXPECT_GE(wide_metrics.hit_ratio(), narrow_metrics.hit_ratio() - 0.02);
  EXPECT_GE(wide_metrics.total_migrated_bytes,
            narrow_metrics.total_migrated_bytes);
}

TEST_F(SimulatorTest, FractionalMigrationCutsTrafficModestly) {
  SimulationConfig full = *config_;
  full.policy = MigrationPolicy::kProactive;
  const auto baseline = run_simulation(full, *world_);

  // Cap the busiest 30% of servers to a small byte budget.
  std::vector<std::pair<double, ServerId>> ranked;
  for (ServerId s = 0; s < baseline.num_servers; ++s)
    ranked.push_back(
        {baseline.server_peak_uplink_mbps[static_cast<std::size_t>(s)], s});
  std::sort(ranked.rbegin(), ranked.rend());
  SimulationConfig capped = full;
  for (std::size_t i = 0; i < ranked.size() / 3 + 1; ++i)
    capped.crowded_servers.push_back(ranked[i].second);
  capped.crowded_byte_budget = mb_to_bytes(2.0);
  const auto reduced = run_simulation(capped, *world_);

  EXPECT_LT(reduced.total_migrated_bytes, baseline.total_migrated_bytes);
  // Individual sends are strictly smaller, but cache/timing shifts can move
  // which interval is busiest in a world this small — so bound the peak
  // loosely rather than requiring strict monotonicity.
  EXPECT_LE(reduced.peak_uplink_mbps, baseline.peak_uplink_mbps * 1.6);
  // Queries should not collapse: fractional migration trades a little
  // performance for a lot of traffic.
  EXPECT_GT(reduced.cold_window_queries,
            baseline.cold_window_queries * 7 / 10);
}

TEST_F(SimulatorTest, DeterministicAcrossRuns) {
  const auto a = run_policy(MigrationPolicy::kProactive);
  const auto b = run_policy(MigrationPolicy::kProactive);
  EXPECT_EQ(a.cold_window_queries, b.cold_window_queries);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.total_migrated_bytes, b.total_migrated_bytes);
}

TEST_F(SimulatorTest, OraclePredictorHitsAtLeastAsOftenAsStationary) {
  SimulationConfig oracle = *config_;
  oracle.policy = MigrationPolicy::kProactive;
  oracle.predictor = PredictorKind::kOracle;
  SimulationConfig stationary = oracle;
  stationary.predictor = PredictorKind::kStationary;
  const auto oracle_metrics = run_simulation(oracle, *world_);
  const auto stationary_metrics = run_simulation(stationary, *world_);
  EXPECT_GE(oracle_metrics.hit_ratio(), stationary_metrics.hit_ratio() - 0.02);
  EXPECT_GT(oracle_metrics.hits, 0);
}

TEST_F(SimulatorTest, BestVisibleSelectionKeepsAccountingConsistent) {
  SimulationConfig config = *config_;
  config.policy = MigrationPolicy::kProactive;
  config.selection = ServerSelection::kBestVisible;
  config.visibility_radius_m = 120.0;
  const auto metrics = run_simulation(config, *world_);
  EXPECT_EQ(metrics.hits + metrics.partials + metrics.misses,
            metrics.server_changes);
  EXPECT_GT(metrics.cold_window_queries, 0);
  // Hysteresis must keep re-selection from flapping wildly compared to the
  // plain current-cell policy.
  const auto baseline = run_policy(MigrationPolicy::kProactive);
  EXPECT_LT(metrics.server_changes, 3 * baseline.server_changes + 10);
}

TEST_F(SimulatorTest, FailureInjectionEvictsAndStaysConsistent) {
  SimulationConfig config = *config_;
  config.policy = MigrationPolicy::kProactive;
  config.server_failure_rate = 0.01;
  config.server_downtime_intervals = 4;
  const auto metrics = run_simulation(config, *world_);
  EXPECT_GT(metrics.server_failures, 0);
  EXPECT_EQ(metrics.hits + metrics.partials + metrics.misses,
            metrics.server_changes);
  // Failures force extra cold starts relative to the failure-free run.
  const auto clean = run_policy(MigrationPolicy::kProactive);
  EXPECT_GT(metrics.server_changes, clean.server_changes);
  EXPECT_EQ(clean.server_failures, 0);
}

TEST_F(SimulatorTest, TotalOutageStopsColdWindows) {
  SimulationConfig config = *config_;
  config.policy = MigrationPolicy::kNone;
  config.server_failure_rate = 1.0;  // everything down, always
  config.server_downtime_intervals = 1 << 20;
  const auto metrics = run_simulation(config, *world_);
  // After the first interval no server is up, so almost nothing attaches.
  EXPECT_LT(metrics.server_changes, metrics.num_clients + 1);
}

TEST_F(SimulatorTest, BandwidthJitterPerturbsButDoesNotBreak) {
  SimulationConfig stable = *config_;
  stable.policy = MigrationPolicy::kProactive;
  SimulationConfig jittery = stable;
  jittery.bandwidth_jitter_sigma = 0.5;
  const auto a = run_simulation(stable, *world_);
  const auto b = run_simulation(jittery, *world_);
  // Same world and mobility: identical cold-start structure...
  EXPECT_EQ(a.server_changes, b.server_changes);
  EXPECT_EQ(a.hits, b.hits);
  // ...but different execution throughput (rates actually changed).
  EXPECT_NE(a.cold_window_queries, b.cold_window_queries);
  // Deterministic under the same seed.
  const auto b2 = run_simulation(jittery, *world_);
  EXPECT_EQ(b.cold_window_queries, b2.cold_window_queries);
}

TEST_F(SimulatorTest, ModelBasedPredictorKindMustMatchWorld) {
  // The shared world was built for kSvr; asking the run to use a different
  // *model-based* predictor must fail loudly instead of silently using the
  // wrong model. Model-free kinds (stationary/oracle) are always allowed.
  SimulationConfig config = *config_;
  config.policy = MigrationPolicy::kProactive;
  config.predictor = PredictorKind::kMarkov;
  EXPECT_THROW(run_simulation(config, *world_), std::logic_error);
}

TEST_F(SimulatorTest, RoutingFallbackBridgesColdStarts) {
  SimulationConfig plain = *config_;
  plain.policy = MigrationPolicy::kNone;  // every re-attach is a miss
  SimulationConfig routed = plain;
  routed.routing_fallback = true;
  const auto without = run_simulation(plain, *world_);
  const auto with = run_simulation(routed, *world_);
  EXPECT_EQ(without.routed_queries, 0);
  EXPECT_GT(with.routed_queries, 0);
  // Routing can only help: the client takes the faster of the two paths.
  EXPECT_GE(with.cold_window_queries, without.cold_window_queries);
}

TEST_F(SimulatorTest, RoutingNeverExceedsOptimal) {
  SimulationConfig routed = *config_;
  routed.policy = MigrationPolicy::kProactive;
  routed.routing_fallback = true;
  const auto with = run_simulation(routed, *world_);
  const auto optimal = run_policy(MigrationPolicy::kOptimal);
  EXPECT_LE(with.cold_window_queries, optimal.cold_window_queries);
}

TEST_F(SimulatorTest, TinyByteBudgetTruncatesInsteadOfEmptySends) {
  // A crowded-byte budget smaller than every layer cannot ship anything:
  // each affected order is counted as truncated instead of being issued as
  // an empty send (which used to inflate sim.migration.orders and, via the
  // empty store, refresh TTLs a real system would never have refreshed).
  SimulationConfig config = *config_;
  config.policy = MigrationPolicy::kProactive;
  for (ServerId s = 0; s < world_->servers.num_servers(); ++s)
    config.crowded_servers.push_back(s);
  config.crowded_byte_budget = 1;  // below the smallest MobileNet layer
  const auto metrics = run_simulation(config, *world_);
  EXPECT_GT(metrics.migrations_truncated, 0);
  EXPECT_EQ(metrics.total_migrated_bytes, 0);
  const auto baseline = run_policy(MigrationPolicy::kProactive);
  EXPECT_EQ(baseline.migrations_truncated, 0);
}

TEST_F(SimulatorTest, FutileOrdersAreNeverIssued) {
  // Regression: with a near-zero wireless link, every partition plan keeps
  // the whole model on the client, so no future plan ever *needs* a layer —
  // the source can contribute nothing and every would-be order is futile.
  // Such orders used to be issued anyway (counting into
  // sim.migration.orders, the timeseries, and TTL refreshes via the empty
  // store); now they are skipped before they exist.
  SimulationConfig config = *config_;
  config.policy = MigrationPolicy::kProactive;
  config.wireless.uplink_bytes_per_sec = mbps_to_bytes_per_sec(0.001);
  config.wireless.downlink_bytes_per_sec = mbps_to_bytes_per_sec(0.001);
  obs::SimTimeseries timeseries;
  const auto metrics = run_simulation(config, *world_, &timeseries);
  EXPECT_GT(metrics.server_changes, 0);  // clients still move and re-attach
  EXPECT_EQ(metrics.total_migrated_bytes, 0);
  long long orders = 0;
  for (const auto& row : timeseries.rows()) orders += row.migration_orders;
  EXPECT_EQ(orders, 0);

  // Sanity: the healthy-link world does issue (non-futile) orders, and they
  // reconcile with real migrated bytes.
  obs::SimTimeseries healthy_ts;
  SimulationConfig healthy = *config_;
  healthy.policy = MigrationPolicy::kProactive;
  const auto healthy_metrics = run_simulation(healthy, *world_, &healthy_ts);
  long long healthy_orders = 0;
  for (const auto& row : healthy_ts.rows())
    healthy_orders += row.migration_orders;
  EXPECT_GT(healthy_orders, 0);
  EXPECT_GT(healthy_metrics.total_migrated_bytes, 0);
}

TEST_F(SimulatorTest, InvalidCrowdedServerRejected) {
  SimulationConfig config = *config_;
  config.crowded_servers = {9999};
  config.crowded_byte_budget = 1;
  EXPECT_THROW(run_simulation(config, *world_), std::logic_error);
}

}  // namespace
}  // namespace perdnn
