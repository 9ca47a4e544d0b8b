// Tier-1 determinism gate for the parallel runtime: the same seeded
// simulation must produce byte-identical metrics and per-interval
// timeseries at --threads 1, 2 and 8. The thread count is a pure
// performance knob (docs: "Parallel runtime" in DESIGN.md).
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "common/parallel.hpp"
#include "faults/fault_plan.hpp"
#include "mobility/trace_gen.hpp"
#include "obs/timeseries.hpp"
#include "sim/simulator.hpp"

namespace perdnn {
namespace {

/// Every SimulationMetrics field rendered with full precision, so any
/// drifting bit — including in the floating-point aggregates — flips the
/// comparison.
std::string metrics_fingerprint(const SimulationMetrics& m) {
  std::string out;
  char buf[128];
  const auto add = [&](const char* name, double v) {
    std::snprintf(buf, sizeof buf, "%s=%.17g\n", name, v);
    out += buf;
  };
  add("cold_window_queries", static_cast<double>(m.cold_window_queries));
  add("server_changes", m.server_changes);
  add("hits", m.hits);
  add("partials", m.partials);
  add("misses", m.misses);
  add("server_failures", m.server_failures);
  add("failure_evictions", m.failure_evictions);
  add("routed_queries", static_cast<double>(m.routed_queries));
  add("client_disconnect_events", m.client_disconnect_events);
  add("local_fallback_queries",
      static_cast<double>(m.local_fallback_queries));
  add("local_latency_sum_s", m.local_latency_sum_s);
  add("attached_client_intervals",
      static_cast<double>(m.attached_client_intervals));
  add("unreachable_client_intervals",
      static_cast<double>(m.unreachable_client_intervals));
  add("offline_client_intervals",
      static_cast<double>(m.offline_client_intervals));
  add("degraded_attaches", m.degraded_attaches);
  add("migrations_deferred", m.migrations_deferred);
  add("migration_retries", m.migration_retries);
  add("migrations_abandoned", m.migrations_abandoned);
  add("migrations_truncated", m.migrations_truncated);
  add("deferred_migration_bytes",
      static_cast<double>(m.deferred_migration_bytes));
  add("abandoned_migration_bytes",
      static_cast<double>(m.abandoned_migration_bytes));
  add("peak_deferred_backlog_bytes",
      static_cast<double>(m.peak_deferred_backlog_bytes));
  add("peak_uplink_mbps", m.peak_uplink_mbps);
  add("peak_downlink_mbps", m.peak_downlink_mbps);
  add("fraction_servers_within_100mbps", m.fraction_servers_within_100mbps);
  add("fraction_servers_within_100mbps_at_peak",
      m.fraction_servers_within_100mbps_at_peak);
  add("total_migrated_bytes", static_cast<double>(m.total_migrated_bytes));
  add("num_servers", m.num_servers);
  add("num_clients", m.num_clients);
  add("num_intervals", m.num_intervals);
  for (std::size_t s = 0; s < m.server_peak_uplink_mbps.size(); ++s) {
    std::snprintf(buf, sizeof buf, "server_peak[%zu]=%.17g\n", s,
                  m.server_peak_uplink_mbps[s]);
    out += buf;
  }
  return out;
}

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  static CampusTraceConfig train_trace_config() {
    CampusTraceConfig train_config;
    train_config.num_users = 8;
    train_config.duration = 1.0 * 3600.0;
    train_config.sample_interval = 20.0;
    train_config.seed = 100;
    return train_config;
  }

  static CampusTraceConfig test_trace_config() {
    CampusTraceConfig test_config = train_trace_config();
    test_config.num_users = 5;
    test_config.seed = 200;
    return test_config;
  }

  static void SetUpTestSuite() {
    const CampusTraceConfig train_config = train_trace_config();
    const CampusTraceConfig test_config = test_trace_config();

    config_ = new SimulationConfig;
    config_->model = ModelName::kMobileNet;
    config_->policy = MigrationPolicy::kProactive;
    config_->migration_radius_m = 100.0;
    config_->routing_fallback = true;
    config_->bandwidth_jitter_sigma = 0.3;
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
    par::set_num_threads(0);
  }

  struct RunResult {
    std::string metrics;
    std::string timeseries_csv;
  };

  static RunResult run_at(int threads) {
    return run_config_at(*config_, threads);
  }

  static RunResult run_config_at(const SimulationConfig& config, int threads) {
    par::set_num_threads(threads);
    obs::SimTimeseries timeseries;
    const SimulationMetrics metrics =
        run_simulation(config, *world_, &timeseries);
    std::ostringstream csv;
    timeseries.write_csv(csv);
    return {metrics_fingerprint(metrics), csv.str()};
  }

  /// A plan that exercises every fault kind at once: a crash, a total
  /// wildcard backhaul outage, a partial pair degradation, a telemetry
  /// dropout and a client disconnect.
  static SimulationConfig faulted_config() {
    SimulationConfig config = *config_;
    config.fault_plan = FaultPlan({
        {.kind = FaultKind::kServerCrash,
         .at_interval = 2,
         .duration_intervals = 3,
         .server = 0},
        {.kind = FaultKind::kBackhaulDegrade,
         .at_interval = 1,
         .duration_intervals = 4,
         .server = 1,
         .peer = kAllServers,
         .severity = 1.0},
        {.kind = FaultKind::kBackhaulDegrade,
         .at_interval = 3,
         .duration_intervals = 5,
         .server = 0,
         .peer = 2,
         .severity = 0.7},
        {.kind = FaultKind::kTelemetryDropout,
         .at_interval = 0,
         .duration_intervals = 8,
         .server = 2},
        {.kind = FaultKind::kClientDisconnect,
         .at_interval = 4,
         .duration_intervals = 2,
         .client = 1},
    });
    config.migration_retry = {.max_attempts = 5,
                              .initial_backoff_intervals = 1,
                              .max_backoff_intervals = 8};
    return config;
  }

  static SimulationConfig* config_;
  static SimulationWorld* world_;
};

SimulationConfig* ParallelDeterminismTest::config_ = nullptr;
SimulationWorld* ParallelDeterminismTest::world_ = nullptr;

TEST_F(ParallelDeterminismTest, MetricsAndTimeseriesIdenticalAt1_2_8Threads) {
  const RunResult serial = run_at(1);
  const RunResult two = run_at(2);
  const RunResult eight = run_at(8);

  ASSERT_FALSE(serial.metrics.empty());
  ASSERT_FALSE(serial.timeseries_csv.empty());
  EXPECT_EQ(serial.metrics, two.metrics);
  EXPECT_EQ(serial.metrics, eight.metrics);
  EXPECT_EQ(serial.timeseries_csv, two.timeseries_csv);
  EXPECT_EQ(serial.timeseries_csv, eight.timeseries_csv);
}

TEST_F(ParallelDeterminismTest, RepeatedParallelRunsAreStable) {
  const RunResult a = run_at(8);
  const RunResult b = run_at(8);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.timeseries_csv, b.timeseries_csv);
}

TEST_F(ParallelDeterminismTest, FaultPlanRunsAreDeterministicAcrossThreads) {
  // The robustness machinery (scripted faults, retry queue, degraded-mode
  // estimation, local fallback) sits under the same determinism gate as the
  // clean path: byte-identical at 1/2/8 threads.
  const SimulationConfig config = faulted_config();
  const RunResult serial = run_config_at(config, 1);
  const RunResult two = run_config_at(config, 2);
  const RunResult eight = run_config_at(config, 8);
  ASSERT_FALSE(serial.metrics.empty());
  EXPECT_EQ(serial.metrics, two.metrics);
  EXPECT_EQ(serial.metrics, eight.metrics);
  EXPECT_EQ(serial.timeseries_csv, two.timeseries_csv);
  EXPECT_EQ(serial.timeseries_csv, eight.timeseries_csv);

  // The plan actually bit: this is not vacuous determinism.
  EXPECT_NE(serial.metrics.find("server_failures=1"), std::string::npos);
  EXPECT_NE(serial.metrics.find("client_disconnect_events=1"),
            std::string::npos);
}

}  // namespace
}  // namespace perdnn
