// End-to-end fault-plan behaviour through the simulator: scripted crashes,
// backhaul outages with retry/backoff, telemetry dropouts, client churn,
// the local-execution fallback, and the no-op guarantee for fault-free runs.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "faults/fault_plan.hpp"
#include "mobility/trace_gen.hpp"
#include "obs/timeseries.hpp"
#include "sim/simulator.hpp"

namespace perdnn {
namespace {

TEST(SimulationMetricsFaultTest, AvailabilityAndOffloadRatioDefinitions) {
  SimulationMetrics m;
  // 0/0 is defined as "fully healthy".
  EXPECT_DOUBLE_EQ(m.availability(), 1.0);
  EXPECT_DOUBLE_EQ(m.offload_ratio(), 1.0);

  m.attached_client_intervals = 3;
  m.unreachable_client_intervals = 1;
  m.offline_client_intervals = 100;  // the client's own outage: not counted
  EXPECT_DOUBLE_EQ(m.availability(), 0.75);

  m.cold_window_queries = 9;
  m.local_fallback_queries = 1;
  EXPECT_DOUBLE_EQ(m.offload_ratio(), 0.9);
}

TEST(SimulationConfigValidateTest, RejectsOutOfDomainKnobs) {
  const SimulationConfig good;
  EXPECT_NO_THROW(good.validate());

  const auto expect_invalid = [](auto mutate) {
    SimulationConfig config;
    mutate(config);
    EXPECT_THROW(config.validate(), std::logic_error);
  };
  expect_invalid([](SimulationConfig& c) { c.server_failure_rate = -0.1; });
  expect_invalid([](SimulationConfig& c) { c.server_failure_rate = 1.5; });
  expect_invalid([](SimulationConfig& c) { c.server_downtime_intervals = 0; });
  expect_invalid([](SimulationConfig& c) { c.ttl_intervals = 0; });
  expect_invalid([](SimulationConfig& c) { c.trajectory_length = 0; });
  expect_invalid([](SimulationConfig& c) { c.query_gap = -0.5; });
  expect_invalid([](SimulationConfig& c) { c.cell_radius_m = 0.0; });
  expect_invalid([](SimulationConfig& c) { c.bandwidth_jitter_sigma = -1.0; });
  expect_invalid(
      [](SimulationConfig& c) { c.wireless.uplink_bytes_per_sec = 0.0; });
  expect_invalid([](SimulationConfig& c) { c.backhaul_bytes_per_sec = 0.0; });
  expect_invalid([](SimulationConfig& c) { c.crowded_byte_budget = -1; });
  expect_invalid(
      [](SimulationConfig& c) { c.migration_retry.max_attempts = 0; });
  expect_invalid([](SimulationConfig& c) {
    c.migration_retry.initial_backoff_intervals = 0;
  });
  expect_invalid([](SimulationConfig& c) {
    c.migration_retry.initial_backoff_intervals = 8;
    c.migration_retry.max_backoff_intervals = 4;
  });

  // The scripted plan and the legacy probabilistic knobs are mutually
  // exclusive: mixing them would make the effective schedule ambiguous.
  expect_invalid([](SimulationConfig& c) {
    c.fault_plan = FaultPlan({{.kind = FaultKind::kServerCrash,
                               .at_interval = 0,
                               .duration_intervals = 1,
                               .server = 0}});
    c.server_failure_rate = 0.3;
  });
}

/// Campus world shared by the scripted-fault tests (same shape as the
/// simulator_test fixture: MobileNet, 6 test users, seed 5).
class FaultSimTest : public ::testing::Test {
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
    config_->policy = MigrationPolicy::kProactive;
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

  struct RunResult {
    SimulationMetrics metrics;
    std::vector<obs::TimeseriesRow> rows;
    std::string csv;
    std::int64_t total_deferred_bytes = 0;
    long long total_degraded = 0;
    long long total_local_queries = 0;
  };

  static RunResult run_with(const FaultPlan& plan,
                            MigrationRetryConfig retry = {}) {
    SimulationConfig config = *config_;
    config.fault_plan = plan;
    config.migration_retry = retry;
    obs::SimTimeseries timeseries;
    RunResult result;
    result.metrics = run_simulation(config, *world_, &timeseries);
    result.rows = timeseries.rows();
    std::ostringstream csv;
    timeseries.write_csv(csv);
    result.csv = csv.str();
    result.total_deferred_bytes = timeseries.total_deferred_bytes();
    result.total_degraded = timeseries.total_degraded();
    result.total_local_queries = timeseries.total_local_queries();
    return result;
  }

  static int num_servers() { return world_->servers.num_servers(); }

  static SimulationConfig* config_;
  static SimulationWorld* world_;
};

SimulationConfig* FaultSimTest::config_ = nullptr;
SimulationWorld* FaultSimTest::world_ = nullptr;

TEST_F(FaultSimTest, EmptyPlanAndRetryKnobsAreInertOnCleanRuns) {
  // The whole fault machinery must be a strict no-op when nothing faults:
  // identical metrics and byte-identical timeseries regardless of the retry
  // policy, with every degradation counter at zero.
  const RunResult base = run_with(FaultPlan{});
  const RunResult tweaked = run_with(
      FaultPlan{}, {.max_attempts = 9, .initial_backoff_intervals = 2,
                    .max_backoff_intervals = 64});
  EXPECT_EQ(base.csv, tweaked.csv);
  EXPECT_EQ(base.metrics.cold_window_queries,
            tweaked.metrics.cold_window_queries);
  EXPECT_EQ(base.metrics.total_migrated_bytes,
            tweaked.metrics.total_migrated_bytes);

  const SimulationMetrics& m = base.metrics;
  EXPECT_EQ(m.server_failures, 0);
  EXPECT_EQ(m.client_disconnect_events, 0);
  EXPECT_EQ(m.local_fallback_queries, 0);
  EXPECT_EQ(m.unreachable_client_intervals, 0);
  EXPECT_EQ(m.offline_client_intervals, 0);
  EXPECT_EQ(m.degraded_attaches, 0);
  EXPECT_EQ(m.migrations_deferred, 0);
  EXPECT_EQ(m.deferred_migration_bytes, 0);
  EXPECT_EQ(m.peak_deferred_backlog_bytes, 0);
  EXPECT_DOUBLE_EQ(m.availability(), 1.0);
  EXPECT_DOUBLE_EQ(m.offload_ratio(), 1.0);
  EXPECT_GT(m.attached_client_intervals, 0);
}

TEST_F(FaultSimTest, CrashEvictsClientsWhoFallBackToLocalExecution) {
  // Every server goes down for intervals [3, 6): attached clients are
  // evicted and, with nothing reachable, execute locally until recovery.
  std::vector<FaultEvent> events;
  for (ServerId s = 0; s < num_servers(); ++s)
    events.push_back({.kind = FaultKind::kServerCrash,
                      .at_interval = 3,
                      .duration_intervals = 3,
                      .server = s});
  const RunResult result = run_with(FaultPlan(events));
  const SimulationMetrics& m = result.metrics;

  EXPECT_EQ(m.server_failures, num_servers());
  EXPECT_GT(m.failure_evictions, 0);
  EXPECT_GT(m.local_fallback_queries, 0);
  EXPECT_GT(m.local_latency_sum_s, 0.0);
  EXPECT_GT(m.unreachable_client_intervals, 0);
  EXPECT_LT(m.availability(), 1.0);
  EXPECT_LT(m.offload_ratio(), 1.0);
  EXPECT_GT(m.offload_ratio(), 0.0);  // recovery: offloading resumes
  EXPECT_EQ(m.hits + m.partials + m.misses, m.server_changes);
  EXPECT_EQ(result.total_local_queries, m.local_fallback_queries);

  // While everything is down nothing crosses the backhaul, and the local
  // fallback is what keeps queries flowing.
  bool local_during_window = false;
  for (const obs::TimeseriesRow& row : result.rows) {
    if (row.interval < 3 || row.interval >= 6) continue;
    EXPECT_EQ(row.uplink_bytes, 0) << "interval " << row.interval;
    EXPECT_EQ(row.downlink_bytes, 0) << "interval " << row.interval;
    EXPECT_EQ(row.migration_orders, 0) << "interval " << row.interval;
    local_during_window |= row.local_queries > 0;
  }
  EXPECT_TRUE(local_during_window);
}

TEST_F(FaultSimTest, DownedServerReceivesNoMigrationsWhileDown) {
  // Server 0 is down for the whole run: it must never receive a proactive
  // push or originate one, while the rest of the world migrates normally.
  const FaultPlan plan({{.kind = FaultKind::kServerCrash,
                         .at_interval = 0,
                         .duration_intervals = 1 << 20,
                         .server = 0}});
  const RunResult result = run_with(plan);
  EXPECT_GT(result.metrics.total_migrated_bytes, 0);
  for (const obs::TimeseriesRow& row : result.rows) {
    if (row.server != 0) continue;
    EXPECT_EQ(row.downlink_bytes, 0) << "interval " << row.interval;
    EXPECT_EQ(row.uplink_bytes, 0) << "interval " << row.interval;
    EXPECT_EQ(row.migration_orders, 0) << "interval " << row.interval;
    EXPECT_EQ(row.attached, 0) << "interval " << row.interval;
  }
}

TEST_F(FaultSimTest, BackhaulOutageDefersMigrationsAndRetriesDeliverThem) {
  // A full backhaul outage on every server's links during [0, 6) — covering
  // the initial migration burst: proactive pushes cannot be delivered, get
  // parked with backoff, and drain once the links heal — nothing is
  // abandoned with a generous attempt budget.
  std::vector<FaultEvent> events;
  for (ServerId s = 0; s < num_servers(); ++s)
    events.push_back({.kind = FaultKind::kBackhaulDegrade,
                      .at_interval = 0,
                      .duration_intervals = 6,
                      .server = s,
                      .peer = kAllServers,
                      .severity = 1.0});
  const RunResult result = run_with(
      FaultPlan(events), {.max_attempts = 12, .initial_backoff_intervals = 1,
                          .max_backoff_intervals = 4});
  const SimulationMetrics& m = result.metrics;

  EXPECT_GT(m.migrations_deferred, 0);
  EXPECT_GT(m.deferred_migration_bytes, 0);
  EXPECT_GT(m.migration_retries, 0);
  EXPECT_GT(m.peak_deferred_backlog_bytes, 0);
  EXPECT_EQ(m.migrations_abandoned, 0);
  EXPECT_EQ(m.abandoned_migration_bytes, 0);
  // The timeseries and the metrics agree on what was parked.
  EXPECT_EQ(result.total_deferred_bytes, m.deferred_migration_bytes);
  // Migration traffic still flows overall, and queries keep completing.
  EXPECT_GT(m.total_migrated_bytes, 0);
  EXPECT_GT(m.cold_window_queries, 0);
  // No delivery crossed any link while every link was dead.
  for (const obs::TimeseriesRow& row : result.rows) {
    if (row.interval >= 6) continue;
    EXPECT_EQ(row.downlink_bytes, 0) << "interval " << row.interval;
  }
}

TEST_F(FaultSimTest, MaxAttemptsOneCountsEveryDeferralAsAbandoned) {
  // One abandonment rule in both engines: a failed first delivery always
  // counts as deferred, and one that cannot be parked (no attempts left)
  // is abandoned at once as well. Abandoned orders are then exactly the
  // deferred ones, by count, by bytes and in the source rows.
  std::vector<FaultEvent> events;
  for (ServerId s = 0; s < num_servers(); ++s)
    events.push_back({.kind = FaultKind::kBackhaulDegrade,
                      .at_interval = 0,
                      .duration_intervals = 6,
                      .server = s,
                      .peer = kAllServers,
                      .severity = 1.0});
  const RunResult result = run_with(FaultPlan(events), {.max_attempts = 1});
  const SimulationMetrics& m = result.metrics;
  EXPECT_GT(m.migrations_abandoned, 0);
  EXPECT_EQ(m.migrations_deferred, m.migrations_abandoned);
  EXPECT_EQ(m.deferred_migration_bytes, m.abandoned_migration_bytes);
  EXPECT_EQ(result.total_deferred_bytes, m.deferred_migration_bytes);
  EXPECT_EQ(m.migration_retries, 0);
  EXPECT_EQ(m.peak_deferred_backlog_bytes, 0);
}

TEST_F(FaultSimTest, PartialBackhaulDegradationStillDeliversSomething) {
  // Severity 0.5 halves the per-link budget instead of killing it: some
  // bytes cross during the window, anything over the cap is deferred.
  std::vector<FaultEvent> events;
  for (ServerId s = 0; s < num_servers(); ++s)
    events.push_back({.kind = FaultKind::kBackhaulDegrade,
                      .at_interval = 1,
                      .duration_intervals = 6,
                      .server = s,
                      .peer = kAllServers,
                      .severity = 0.5});
  const RunResult result = run_with(FaultPlan(events));
  EXPECT_GT(result.metrics.total_migrated_bytes, 0);
  EXPECT_EQ(result.metrics.hits + result.metrics.partials +
                result.metrics.misses,
            result.metrics.server_changes);
}

TEST_F(FaultSimTest, TelemetryDropoutDegradesEveryAttach) {
  // GPU stats are stale everywhere for the whole run: every re-attachment
  // plans with the load-free fallback estimator and is counted as degraded.
  std::vector<FaultEvent> events;
  for (ServerId s = 0; s < num_servers(); ++s)
    events.push_back({.kind = FaultKind::kTelemetryDropout,
                      .at_interval = 0,
                      .duration_intervals = 1 << 20,
                      .server = s});
  const RunResult degraded = run_with(FaultPlan(events));
  const RunResult clean = run_with(FaultPlan{});

  EXPECT_EQ(degraded.metrics.degraded_attaches,
            degraded.metrics.server_changes);
  EXPECT_EQ(degraded.total_degraded, degraded.metrics.degraded_attaches);
  EXPECT_GT(degraded.metrics.cold_window_queries, 0);
  // Degradation only changes planning quality, never reachability: the
  // cold-start structure stays consistent and nothing falls back to local.
  EXPECT_EQ(degraded.metrics.local_fallback_queries, 0);
  EXPECT_DOUBLE_EQ(degraded.metrics.availability(), 1.0);
  EXPECT_EQ(clean.metrics.degraded_attaches, 0);
}

TEST_F(FaultSimTest, ScriptedClientDisconnectTakesClientOffline) {
  const FaultPlan plan({{.kind = FaultKind::kClientDisconnect,
                         .at_interval = 4,
                         .duration_intervals = 3,
                         .client = 0}});
  const RunResult result = run_with(plan);
  const RunResult clean = run_with(FaultPlan{});
  const SimulationMetrics& m = result.metrics;

  EXPECT_EQ(m.client_disconnect_events, 1);
  EXPECT_EQ(m.offline_client_intervals, 3);
  // A disconnect is the client's own outage: availability is unharmed.
  EXPECT_DOUBLE_EQ(m.availability(), 1.0);
  // Client-interval occupancy is conserved: the offline intervals come out
  // of the attached/unreachable budget, never out of thin air.
  EXPECT_EQ(m.attached_client_intervals + m.unreachable_client_intervals +
                m.offline_client_intervals,
            clean.metrics.attached_client_intervals +
                clean.metrics.unreachable_client_intervals +
                clean.metrics.offline_client_intervals);
}

}  // namespace
}  // namespace perdnn
