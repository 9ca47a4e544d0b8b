// Determinism gate for the sharded engine WITH the fault machinery engaged:
// a scripted plan covering all four fault classes, plus a flash crowd and
// per-server admission control, must produce byte-identical metrics,
// timeseries CSV and journal JSONL across
//
//   threads x shards x simd x checkpoint/resume
//
// — the same contract as the fault-free ShardDeterminism suite, now with
// crashes wiping caches, backhaul outages parking migrations in the retry
// queue, telemetry dropouts degrading plans, and shedding rerouting attaches
// to the local fallback. The resume test checkpoints mid-backoff and proves
// the deferred-migration queue survives a kill -9 byte-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "faults/fault_plan.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "sim/shard_sim.hpp"
#include "sim/shard_world.hpp"
#include "snapshot/snapshot.hpp"

namespace perdnn {
namespace {

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
  add("attaches_shed", m.attaches_shed);
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
  add("total_migrated_bytes", static_cast<double>(m.total_migrated_bytes));
  add("availability", m.availability());
  add("offload_ratio", m.offload_ratio());
  for (std::size_t s = 0; s < m.server_peak_uplink_mbps.size(); ++s) {
    std::snprintf(buf, sizeof buf, "server_peak[%zu]=%.17g\n", s,
                  m.server_peak_uplink_mbps[s]);
    out += buf;
  }
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Sum of one column of a timeseries CSV (comment lines skipped).
std::int64_t column_sum(const std::string& csv_text, const std::string& name) {
  std::istringstream csv(csv_text);
  std::string line;
  std::ptrdiff_t index = -1;
  std::int64_t sum = 0;
  while (std::getline(csv, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> cells;
    std::stringstream ss(line);
    for (std::string cell; std::getline(ss, cell, ',');) cells.push_back(cell);
    if (index < 0) {
      const auto it = std::find(cells.begin(), cells.end(), name);
      EXPECT_NE(it, cells.end()) << name;
      index = it - cells.begin();
      continue;
    }
    sum += std::stoll(cells.at(static_cast<std::size_t>(index)));
  }
  return sum;
}

struct SimdGuard {
  explicit SimdGuard(bool enable) : previous(simd::enabled()) {
    simd::set_enabled(enable);
  }
  ~SimdGuard() { simd::set_enabled(previous); }
  bool previous;
};

struct RunResult {
  std::string metrics;
  std::string timeseries;
  std::string journal;
};

class ShardFaultDeterminismTest : public ::testing::Test {
 protected:
  // The fault-free base world of the ShardDeterminism suite, with every
  // robustness knob turned on at once: a scripted plan touching all four
  // fault classes, a flash crowd concentrating clients on two hot tiles,
  // per-server admission control tight enough to shed some of them, and a
  // small retry queue so the outage window exercises the backlog cap.
  static ShardWorldConfig faulted_config() {
    ShardWorldConfig config;
    config.model = ModelName::kMobileNet;
    config.tiles_x = 4;
    config.tiles_y = 5;
    config.cell_radius_m = 50.0;
    config.num_clients = 60;
    config.num_intervals = 10;
    config.max_load_level = 6;
    config.offline_probability = 0.05;
    config.offline_intervals = 2;
    config.seed = 7;

    config.migration_retry.max_attempts = 5;
    config.migration_retry.initial_backoff_intervals = 2;
    config.migration_retry.max_backoff_intervals = 8;
    config.retry_queue_cap = 8;
    config.admission_max_attached = 7;
    config.flash_crowd_tiles = 2;
    config.flash_crowd_multiplier = 8.0;

    std::vector<FaultEvent> events;
    // Crashes: two waves, so recovery re-attaches are also simulated.
    for (const ServerId s : {ServerId{2}, ServerId{7}})
      events.push_back({.kind = FaultKind::kServerCrash,
                        .at_interval = 3,
                        .duration_intervals = 2,
                        .server = s});
    events.push_back({.kind = FaultKind::kServerCrash,
                      .at_interval = 6,
                      .duration_intervals = 2,
                      .server = 11});
    // Backhaul: a global full outage window [4,6) parks every push of those
    // intervals in the retry queue, plus a partial-capacity window early on.
    for (int s = 0; s < 20; ++s)
      events.push_back({.kind = FaultKind::kBackhaulDegrade,
                        .at_interval = 4,
                        .duration_intervals = 2,
                        .server = s,
                        .peer = kAllServers,
                        .severity = 1.0});
    events.push_back({.kind = FaultKind::kBackhaulDegrade,
                      .at_interval = 1,
                      .duration_intervals = 2,
                      .server = 1,
                      .peer = kAllServers,
                      .severity = 0.6});
    // Telemetry dropouts on half the grid for the whole run: any attach
    // landing there plans in degraded mode.
    for (int s = 0; s < 10; ++s)
      events.push_back({.kind = FaultKind::kTelemetryDropout,
                        .at_interval = 0,
                        .duration_intervals = 10,
                        .server = s});
    // Scripted client churn on top of the probabilistic offline knob.
    for (const ClientId c : {ClientId{5}, ClientId{23}, ClientId{42}})
      events.push_back({.kind = FaultKind::kClientDisconnect,
                        .at_interval = 2,
                        .duration_intervals = 3,
                        .client = c});
    config.fault_plan = FaultPlan(std::move(events));
    return config;
  }

  static void SetUpTestSuite() {
    world_ = new ShardWorld(build_shard_world(faulted_config()));
  }

  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
    par::set_num_threads(0);
  }

  // Output files are named per test case: ctest runs each case as its own
  // process, so one shared name would race under `ctest -j`.
  static std::string case_path(const char* suffix) {
    return ::testing::TempDir() +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           suffix;
  }
  static std::string ts_path() { return case_path("_shard_fault_ts.csv"); }
  static std::string jr_path() { return case_path("_shard_fault_jr.jsonl"); }

  static RunResult run_at(const ShardWorld& world, int threads, int shards) {
    par::set_num_threads(threads);
    ShardRunOptions options;
    options.num_shards = shards;
    options.timeseries_path = ts_path();
    options.journal_path = jr_path();
    const SimulationMetrics metrics = run_sharded_simulation(world, options);
    par::set_num_threads(0);
    return {metrics_fingerprint(metrics), slurp(ts_path()), slurp(jr_path())};
  }

  static ShardWorld* world_;
};

ShardWorld* ShardFaultDeterminismTest::world_ = nullptr;

TEST_F(ShardFaultDeterminismTest, MatrixByteIdenticalAcrossThreadsAndShards) {
  const RunResult baseline = run_at(*world_, 1, 1);
  ASSERT_FALSE(baseline.metrics.empty());

  for (const int shards : {1, 4, 16}) {
    for (const int threads : {1, 2, 8}) {
      const RunResult r = run_at(*world_, threads, shards);
      EXPECT_EQ(baseline.metrics, r.metrics)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(baseline.timeseries, r.timeseries)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(baseline.journal, r.journal)
          << "threads=" << threads << " shards=" << shards;
    }
  }

  // Non-vacuity: every fault class and the overload machinery actually
  // fired. A knob that silently stopped firing would turn the whole matrix
  // into a fault-free rerun.
  EXPECT_EQ(baseline.metrics.find("server_failures=0\n"), std::string::npos);
  EXPECT_EQ(baseline.metrics.find("failure_evictions=0\n"),
            std::string::npos);
  EXPECT_EQ(baseline.metrics.find("client_disconnect_events=0\n"),
            std::string::npos);
  EXPECT_EQ(baseline.metrics.find("local_fallback_queries=0\n"),
            std::string::npos);
  EXPECT_EQ(baseline.metrics.find("unreachable_client_intervals=0\n"),
            std::string::npos);
  EXPECT_EQ(baseline.metrics.find("degraded_attaches=0\n"),
            std::string::npos);
  EXPECT_EQ(baseline.metrics.find("attaches_shed=0\n"), std::string::npos);
  EXPECT_EQ(baseline.metrics.find("migrations_deferred=0\n"),
            std::string::npos);
  EXPECT_EQ(baseline.metrics.find("migration_retries=0\n"),
            std::string::npos);
  EXPECT_EQ(baseline.metrics.find("peak_deferred_backlog_bytes=0\n"),
            std::string::npos);
  // The fault columns reached the streamed outputs too.
  EXPECT_NE(baseline.journal.find("\"local_fallback\""), std::string::npos);
  EXPECT_NE(baseline.journal.find("\"attach_shed\""), std::string::npos);
  EXPECT_NE(baseline.journal.find("\"migration_deferred\""),
            std::string::npos);
  EXPECT_NE(baseline.journal.find("\"migration_retried\""),
            std::string::npos);
  EXPECT_NE(baseline.journal.find("\"fault_applied\""), std::string::npos);
}

TEST_F(ShardFaultDeterminismTest, SimdOffWorldProducesIdenticalRun) {
  const RunResult on = [&] {
    SimdGuard guard(true);
    return run_at(*world_, 2, 4);
  }();
  const ShardWorld off_world = [] {
    SimdGuard guard(false);
    return build_shard_world(faulted_config());
  }();
  const RunResult off = [&] {
    SimdGuard guard(false);
    return run_at(off_world, 8, 16);
  }();
  EXPECT_EQ(on.metrics, off.metrics);
  EXPECT_EQ(on.timeseries, off.timeseries);
  EXPECT_EQ(on.journal, off.journal);
}

TEST_F(ShardFaultDeterminismTest, ResumeMidBackoffRestoresRetryQueue) {
  const RunResult full = run_at(*world_, 2, 4);

  // Checkpoint at the end of interval 4 — inside the global backhaul outage
  // [4,6), so pushes of interval 4 are parked with their first retry still
  // pending (initial backoff 2 intervals). The snapshot must carry them.
  par::set_num_threads(1);
  snapshot::SimSnapshot snap;
  {
    ShardRunOptions options;
    options.num_shards = 16;
    options.timeseries_path = ts_path();
    options.journal_path = jr_path();
    options.stop_after_interval = 4;
    options.capture_out = &snap;
    run_sharded_simulation(*world_, options);
  }
  ASSERT_TRUE(snap.has_shard);
  ASSERT_EQ(snap.next_interval, 5);
  ASSERT_FALSE(snap.shard.retry_client.empty())
      << "checkpoint during the outage window carries no parked migrations — "
         "the mid-backoff leg is vacuous";

  // Emulate kill -9 mid-write: garbage past the checkpoint offset that the
  // resumed run must truncate away.
  {
    std::ofstream ts(ts_path(), std::ios::binary | std::ios::app);
    ts << "9,9,9,garbage-past-the-checkpo";
    std::ofstream jr(jr_path(), std::ios::binary | std::ios::app);
    jr << "{\"interval\":999,\"kind\":\"atta";
  }

  // Round-trip through the v4 codec so the retry arrays' encode/decode is
  // on the tested path too.
  const snapshot::SimSnapshot decoded =
      snapshot::decode(snapshot::encode(snap));
  ASSERT_TRUE(decoded.has_shard);
  ASSERT_EQ(decoded.shard.retry_client.size(), snap.shard.retry_client.size());

  ShardRunOptions options;
  options.num_shards = 4;
  options.timeseries_path = ts_path();
  options.journal_path = jr_path();
  options.resume_from = &decoded;
  const SimulationMetrics resumed = run_sharded_simulation(*world_, options);
  par::set_num_threads(0);

  EXPECT_EQ(full.metrics, metrics_fingerprint(resumed));
  EXPECT_EQ(full.timeseries, slurp(ts_path()));
  EXPECT_EQ(full.journal, slurp(jr_path()));
}

TEST_F(ShardFaultDeterminismTest, ResumeRejectsCorruptClientsAndParkedOrders) {
  const RunResult full = run_at(*world_, 2, 4);
  par::set_num_threads(1);
  snapshot::SimSnapshot snap;
  {
    ShardRunOptions options;
    options.num_shards = 16;
    options.timeseries_path = ts_path();
    options.journal_path = jr_path();
    options.stop_after_interval = 4;
    options.capture_out = &snap;
    run_sharded_simulation(*world_, options);
  }
  ASSERT_FALSE(snap.shard.retry_client.empty());

  // A checkpoint is outside input: each case corrupts one field of a real
  // capture, re-encodes it (so the checksum is valid) and must be refused
  // before the run indexes, casts or moves anything with it.
  const auto K = static_cast<std::uint32_t>(world_->canonical_order.size());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  using State = snapshot::ShardSimState;
  const std::vector<std::pair<const char*, std::function<void(State&)>>>
      mutations = {
          {"order prefix", [&](State& s) { s.retry_prefix[0] = K + 1; }},
          {"order prefix past u16",
           [](State& s) { s.retry_prefix[0] = 1u << 16; }},
          {"order bytes", [](State& s) { s.retry_bytes[0] = -1; }},
          {"order bytes past its prefix",
           [&](State& s) {
             s.retry_bytes[0] = world_->prefix_bytes[s.retry_prefix[0]] + 1;
           }},
          {"order attempts", [](State& s) { s.retry_attempts[0] = 0; }},
          {"order spent budget",
           [](State& s) {
             s.retry_attempts[0] =
                 faulted_config().migration_retry.max_attempts;
           }},
          {"client x NaN", [&](State& s) { s.x[0] = nan; }},
          {"client x huge", [](State& s) { s.x[0] = 1e300; }},
          {"client y negative", [](State& s) { s.y[0] = -1.0; }},
          {"client heading NaN", [&](State& s) { s.heading[0] = nan; }},
          {"client heading inf",
           [](State& s) {
             s.heading[0] = std::numeric_limits<double>::infinity();
           }},
          {"client prefix", [&](State& s) { s.prefix[0] = K + 1; }},
      };
  for (const auto& [what, mutate] : mutations) {
    snapshot::SimSnapshot bad = snap;
    mutate(bad.shard);
    const snapshot::SimSnapshot decoded =
        snapshot::decode(snapshot::encode(bad));
    ShardRunOptions options;
    options.num_shards = 4;
    options.timeseries_path = ts_path();
    options.journal_path = jr_path();
    options.resume_from = &decoded;
    EXPECT_THROW(run_sharded_simulation(*world_, options),
                 snapshot::SnapshotError)
        << what;
  }

  // The unmodified capture still resumes byte-identically.
  ShardRunOptions options;
  options.num_shards = 4;
  options.timeseries_path = ts_path();
  options.journal_path = jr_path();
  options.resume_from = &snap;
  const SimulationMetrics resumed = run_sharded_simulation(*world_, options);
  par::set_num_threads(0);
  EXPECT_EQ(full.metrics, metrics_fingerprint(resumed));
  EXPECT_EQ(full.timeseries, slurp(ts_path()));
  EXPECT_EQ(full.journal, slurp(jr_path()));
}

TEST_F(ShardFaultDeterminismTest, QueueFullRefusalsCountAsDeferredAndAbandoned) {
  // The faulted run's retry queue holds 8 orders per source, and the
  // global outage parks more than that on some sources: those refusals
  // are failed first deliveries (deferred) that are abandoned at once.
  par::set_num_threads(2);
  ShardRunOptions options;
  options.num_shards = 4;
  options.timeseries_path = ts_path();
  options.journal_path = jr_path();
  const SimulationMetrics m = run_sharded_simulation(*world_, options);
  par::set_num_threads(0);
  int queue_full = 0;
  for (const obs::JournalEvent& e : obs::journal_from_jsonl(slurp(jr_path())))
    if (e.kind == obs::JournalEventKind::kMigrationDropped &&
        e.aux == obs::kDropQueueFull)
      ++queue_full;
  EXPECT_GT(queue_full, 0);
  EXPECT_GE(m.migrations_abandoned, queue_full);
  EXPECT_LE(m.migrations_abandoned, m.migrations_deferred);
  EXPECT_LE(m.abandoned_migration_bytes, m.deferred_migration_bytes);
  EXPECT_EQ(column_sum(slurp(ts_path()), "deferred_bytes"),
            m.deferred_migration_bytes);
}

TEST_F(ShardFaultDeterminismTest, MaxAttemptsOneCountsEveryDeferralAsAbandoned) {
  // The classic engine's FaultSimTest case of the same name, here: with no
  // retries allowed, every failed first delivery is deferred and abandoned
  // at once, by count, by bytes and in the source rows.
  ShardWorldConfig config = faulted_config();
  config.migration_retry.max_attempts = 1;
  par::set_num_threads(2);
  const ShardWorld world = build_shard_world(config);
  ShardRunOptions options;
  options.num_shards = 4;
  options.timeseries_path = ts_path();
  const SimulationMetrics m = run_sharded_simulation(world, options);
  par::set_num_threads(0);
  EXPECT_GT(m.migrations_abandoned, 0);
  EXPECT_EQ(m.migrations_deferred, m.migrations_abandoned);
  EXPECT_EQ(m.deferred_migration_bytes, m.abandoned_migration_bytes);
  EXPECT_EQ(column_sum(slurp(ts_path()), "deferred_bytes"),
            m.deferred_migration_bytes);
  EXPECT_EQ(m.migration_retries, 0);
  EXPECT_EQ(m.peak_deferred_backlog_bytes, 0);
}

TEST_F(ShardFaultDeterminismTest, RegistryMirrorsTheMetrics) {
  // With the registry on, the sharded engine reports the counters the
  // classic engine reports (ClassicCacheBudgetTest.RegistryMirrorsTheMetrics)
  // and each equals its SimulationMetrics field: one interval fold and one
  // retry rule count them for both engines.
  obs::Registry::global().reset();
  obs::set_enabled(true);
  par::set_num_threads(2);
  ShardRunOptions options;
  options.num_shards = 4;
  const SimulationMetrics m = run_sharded_simulation(*world_, options);
  par::set_num_threads(0);
  obs::set_enabled(false);
  EXPECT_GT(m.hits, 0);
  EXPECT_GT(m.degraded_attaches, 0);
  EXPECT_GT(m.migrations_abandoned, 0);
  EXPECT_GT(m.migration_retries, 0);
  const std::pair<const char*, double> mirrored[] = {
      {"sim.attach.hits", m.hits},
      {"sim.attach.partials", m.partials},
      {"sim.attach.misses", m.misses},
      {"sim.attach.degraded", m.degraded_attaches},
      {"sim.migration.bytes", static_cast<double>(m.total_migrated_bytes)},
      {"sim.cache.evictions", static_cast<double>(m.cache_evictions)},
      {"sim.cache.partial_stores",
       static_cast<double>(m.cache_partial_stores)},
      {"migration.deferred_orders", m.migrations_deferred},
      {"migration.deferred_bytes",
       static_cast<double>(m.deferred_migration_bytes)},
      {"migration.abandoned_orders", m.migrations_abandoned},
      {"migration.abandoned_bytes",
       static_cast<double>(m.abandoned_migration_bytes)},
      {"migration.retries", m.migration_retries}};
  for (const auto& [name, value] : mirrored)
    EXPECT_EQ(obs::Registry::global().counter(name).value(), value) << name;
  obs::Registry::global().reset();
}

TEST_F(ShardFaultDeterminismTest, FractionsWithin100MbpsCountBothDirections) {
  // A server counts as within 100 Mbps only while its uplink and its
  // downlink both stay within it (the classic engine's definition).
  // Recompute both fractions from the streamed per-server bytes. Inception's
  // larger prefixes on 80 clients push some servers' downlink past 100 Mbps
  // while their uplink stays within it, which is where the two definitions
  // part.
  ShardWorldConfig config = faulted_config();
  config.model = ModelName::kInception;
  config.num_clients = 80;
  par::set_num_threads(2);
  const ShardWorld world = build_shard_world(config);
  ShardRunOptions options;
  options.num_shards = 4;
  options.timeseries_path = ts_path();
  const SimulationMetrics m = run_sharded_simulation(world, options);
  par::set_num_threads(0);

  const auto servers = static_cast<std::size_t>(config.num_servers());
  const auto intervals = static_cast<std::size_t>(config.num_intervals);
  std::vector<std::vector<std::int64_t>> up(
      intervals, std::vector<std::int64_t>(servers, 0));
  std::vector<std::vector<std::int64_t>> down = up;
  std::istringstream csv(slurp(ts_path()));
  std::string line;
  std::vector<std::string> header;
  const auto split = [](const std::string& text) {
    std::vector<std::string> cells;
    std::stringstream ss(text);
    for (std::string cell; std::getline(ss, cell, ',');) cells.push_back(cell);
    return cells;
  };
  const auto column = [&header](const char* name) {
    const auto it = std::find(header.begin(), header.end(), name);
    EXPECT_NE(it, header.end()) << name;
    return static_cast<std::size_t>(it - header.begin());
  };
  std::size_t rows = 0;
  while (std::getline(csv, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (header.empty()) {
      header = split(line);
      continue;
    }
    const std::vector<std::string> cells = split(line);
    const auto t = std::stoul(cells[column("interval")]);
    const auto s = std::stoul(cells[column("server")]);
    up[t][s] = std::stoll(cells[column("uplink_bytes")]);
    down[t][s] = std::stoll(cells[column("downlink_bytes")]);
    ++rows;
  }
  ASSERT_EQ(rows, intervals * servers);

  const auto mbps = [&config](std::int64_t bytes) {
    return bytes_to_mbps(static_cast<double>(bytes), config.interval_s);
  };
  std::vector<double> peak_up(servers, 0.0), peak_down(servers, 0.0);
  std::size_t busiest = 0;
  std::int64_t busiest_bytes = -1;
  for (std::size_t t = 0; t < intervals; ++t) {
    std::int64_t total = 0;
    for (std::size_t s = 0; s < servers; ++s) {
      peak_up[s] = std::max(peak_up[s], mbps(up[t][s]));
      peak_down[s] = std::max(peak_down[s], mbps(down[t][s]));
      total += up[t][s];
    }
    if (total > busiest_bytes) {
      busiest_bytes = total;
      busiest = t;
    }
  }
  int within = 0, within_at_peak = 0, downlink_only = 0;
  for (std::size_t s = 0; s < servers; ++s) {
    if (peak_up[s] <= 100.0 && peak_down[s] <= 100.0) ++within;
    if (mbps(up[busiest][s]) <= 100.0 && mbps(down[busiest][s]) <= 100.0)
      ++within_at_peak;
    if (peak_up[s] <= 100.0 && peak_down[s] > 100.0) ++downlink_only;
  }
  ASSERT_GT(downlink_only, 0)
      << "no server's downlink alone exceeds 100 Mbps — the check is vacuous";
  EXPECT_EQ(m.fraction_servers_within_100mbps,
            static_cast<double>(within) / static_cast<double>(servers));
  EXPECT_EQ(m.fraction_servers_within_100mbps_at_peak,
            static_cast<double>(within_at_peak) /
                static_cast<double>(servers));
}

}  // namespace
}  // namespace perdnn
