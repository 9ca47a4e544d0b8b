// Tier-1 gate for the memory-budgeted layer caches, in both engines:
//
//   * the budget invariant — per-server resident cache bytes never exceed
//     cache_budget_bytes in any interval (checked here via the exported
//     timeseries rows; the engines also assert it internally);
//   * determinism — a budgeted sharded run is byte-identical across
//     threads x shards and across a kill -9 checkpoint/resume;
//   * pinned bytes — one pressure scenario per engine matches committed
//     output digests, straight and through a stop/resume split;
//   * output compatibility — an unbudgeted run keeps the schema-2 CSV and
//     the pre-budget metrics JSON shape, and a never-binding budget changes
//     no journal event.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/wire.hpp"
#include "faults/fault_plan.hpp"
#include "mobility/trace_gen.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "sim/shard_sim.hpp"
#include "sim/shard_world.hpp"
#include "sim/simulator.hpp"
#include "snapshot/snapshot.hpp"

namespace perdnn {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Parses the named column out of a schema-3 timeseries CSV (comment lines
/// skipped), returning one value per data row.
std::vector<long long> csv_column(const std::string& csv,
                                  const std::string& column) {
  std::vector<long long> out;
  std::istringstream in(csv);
  std::string line;
  int index = -1;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string field;
    if (index < 0) {  // header line
      for (int i = 0; std::getline(fields, field, ','); ++i)
        if (field == column) index = i;
      EXPECT_GE(index, 0) << "column " << column << " missing from header";
      continue;
    }
    for (int i = 0; i <= index; ++i) std::getline(fields, field, ',');
    out.push_back(std::stoll(field));
  }
  return out;
}

/// FNV-1a of an output stream as 16 hex digits.
std::string digest(const std::string& bytes) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    wire::fnv1a(bytes.data(), bytes.size())));
  return buf;
}

// ---------------------------------------------------------------------------
// Classic trace-replay engine.
// ---------------------------------------------------------------------------

class ClassicCacheBudgetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CampusTraceConfig train_config;
    train_config.num_users = 8;
    train_config.duration = 1.0 * 3600.0;
    train_config.sample_interval = 20.0;
    train_config.seed = 100;
    CampusTraceConfig test_config = train_config;
    test_config.num_users = 6;
    test_config.seed = 300;

    config_ = new SimulationConfig;
    config_->model = ModelName::kMobileNet;
    config_->policy = MigrationPolicy::kProactive;
    config_->migration_radius_m = 100.0;
    config_->routing_fallback = true;
    config_->seed = 11;

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

  /// The journal file, named per test case: ctest runs each case as its own
  /// process, so one shared name would race under `ctest -j`.
  static std::string jr_path() {
    return ::testing::TempDir() +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_classic_jr.jsonl";
  }

  /// A budget that evicts and trims, a crash wiping a server, a degraded
  /// backhaul window that clips pushes and an outage that parks them for
  /// retry, and a telemetry dropout that plans blind.
  static SimulationConfig pressure_config() {
    SimulationConfig config = *config_;
    config.cache_budget_bytes = mb_to_bytes(3.0);
    config.migration_retry = {.max_attempts = 4,
                              .initial_backoff_intervals = 1,
                              .max_backoff_intervals = 4};
    std::vector<FaultEvent> events;
    events.push_back({.kind = FaultKind::kServerCrash,
                      .at_interval = 4,
                      .duration_intervals = 2,
                      .server = 0});
    events.push_back({.kind = FaultKind::kTelemetryDropout,
                      .at_interval = 0,
                      .duration_intervals = 12,
                      .server = 1});
    for (ServerId s = 0; s < world_->servers.num_servers(); ++s) {
      events.push_back({.kind = FaultKind::kBackhaulDegrade,
                        .at_interval = 1,
                        .duration_intervals = 3,
                        .server = s,
                        .severity = 0.9});
      events.push_back({.kind = FaultKind::kBackhaulDegrade,
                        .at_interval = 7,
                        .duration_intervals = 2,
                        .server = s,
                        .severity = 1.0});
    }
    config.fault_plan = FaultPlan(std::move(events));
    return config;
  }

  static SimulationConfig* config_;
  static SimulationWorld* world_;
};

SimulationConfig* ClassicCacheBudgetTest::config_ = nullptr;
SimulationWorld* ClassicCacheBudgetTest::world_ = nullptr;

TEST_F(ClassicCacheBudgetTest, UnbudgetedRunKeepsSchema2AndBareMetricsJson) {
  obs::SimTimeseries timeseries;
  const SimulationMetrics metrics =
      run_simulation(*config_, *world_, &timeseries, {});
  EXPECT_EQ(timeseries.csv_schema(), obs::SimTimeseries::kCsvSchemaVersion);
  std::ostringstream csv;
  timeseries.write_csv(csv);
  EXPECT_EQ(csv.str().find("cache_bytes"), std::string::npos);
  const std::string json = snapshot::metrics_to_json(metrics);
  EXPECT_EQ(json.find("cache_evictions"), std::string::npos);
  EXPECT_EQ(json.find("peak_cache_bytes"), std::string::npos);
}

TEST_F(ClassicCacheBudgetTest, NeverBindingBudgetChangesNoJournalEvent) {
  const auto journal_of = [&](Bytes budget) {
    SimulationConfig config = *config_;
    config.cache_budget_bytes = budget;
    SimulationRunOptions options;
    options.journal_path = jr_path();
    run_simulation(config, *world_, nullptr, options);
    return slurp(jr_path());
  };
  // A budget no store can ever reach admits everything and evicts nothing:
  // the journal stream must match the unbudgeted run event for event.
  EXPECT_EQ(journal_of(0), journal_of(Bytes{1} << 60));
}

TEST_F(ClassicCacheBudgetTest, BudgetInvariantHoldsAndPressureIsVisible) {
  // Measure the run's natural peak residency first, then rerun with a
  // budget tight enough to bind on the busy servers.
  SimulationConfig roomy = *config_;
  roomy.cache_budget_bytes = Bytes{1} << 60;
  obs::SimTimeseries unbounded;
  const SimulationMetrics free_run =
      run_simulation(roomy, *world_, &unbounded, {});
  ASSERT_GT(free_run.peak_cache_bytes, 0);
  EXPECT_EQ(free_run.cache_evictions, 0);
  EXPECT_EQ(free_run.cache_partial_stores, 0);
  std::int64_t peak_row_bytes = 0;
  for (const auto& row : unbounded.rows())
    peak_row_bytes = std::max(peak_row_bytes, row.cache_bytes);
  ASSERT_GT(peak_row_bytes, 0);

  SimulationConfig tight = *config_;
  tight.cache_budget_bytes = peak_row_bytes / 2;
  obs::SimTimeseries timeseries;
  const SimulationMetrics metrics =
      run_simulation(tight, *world_, &timeseries, {});
  EXPECT_EQ(timeseries.csv_schema(),
            obs::SimTimeseries::kCsvCacheSchemaVersion);
  for (const auto& row : timeseries.rows())
    ASSERT_LE(row.cache_bytes, tight.cache_budget_bytes)
        << "interval " << row.interval << " server " << row.server;
  // The tightened budget actually bit: evictions or trims happened, and
  // the metrics aggregate reconciles with the rows.
  EXPECT_GT(metrics.cache_evictions + metrics.cache_partial_stores, 0);
  EXPECT_EQ(timeseries.total_cache_evictions(), metrics.cache_evictions);
  EXPECT_EQ(timeseries.total_cache_partial_stores(),
            metrics.cache_partial_stores);
  EXPECT_LE(metrics.peak_cache_bytes, free_run.peak_cache_bytes);
}

TEST_F(ClassicCacheBudgetTest, BudgetedResumeIsByteIdentical) {
  SimulationConfig config = *config_;
  config.cache_budget_bytes = mb_to_bytes(2.0);

  par::set_num_threads(2);
  obs::SimTimeseries reference_ts;
  const SimulationMetrics reference =
      run_simulation(config, *world_, &reference_ts, {});
  std::ostringstream reference_csv;
  reference_ts.write_csv(reference_csv);

  snapshot::SimSnapshot snap;
  {
    obs::SimTimeseries scratch;
    SimulationRunOptions options;
    options.stop_after_interval = 4;
    options.capture_out = &snap;
    run_simulation(config, *world_, &scratch, options);
  }
  // The v5 wire codec round-trips the budgeted cache state (entry bytes).
  const snapshot::SimSnapshot decoded =
      snapshot::decode(snapshot::encode(snap));

  for (const int threads : {1, 8}) {
    par::set_num_threads(threads);
    obs::SimTimeseries resumed_ts;
    SimulationRunOptions options;
    options.resume_from = &decoded;
    const SimulationMetrics resumed =
        run_simulation(config, *world_, &resumed_ts, options);
    EXPECT_EQ(snapshot::metrics_to_json(resumed),
              snapshot::metrics_to_json(reference))
        << "threads=" << threads;
    std::ostringstream resumed_csv;
    resumed_ts.write_csv(resumed_csv);
    EXPECT_EQ(resumed_csv.str(), reference_csv.str())
        << "threads=" << threads;
  }
  par::set_num_threads(0);
}

TEST_F(ClassicCacheBudgetTest, PressureRunMatchesPinnedDigestsThroughResume) {
  // One small proactive scenario that reaches every change to a budgeted
  // layer cache and every migration path: a budget that evicts and trims, a
  // crash wiping a server, a degraded backhaul window that clips pushes and
  // an outage that parks them for retry, a telemetry dropout that plans
  // blind, routing fallback, and the journal. The other tests compare the
  // engine with itself; these digests pin its bytes to the reference
  // outputs of the binary-search dedupe, the per-order canonical sort and
  // the per-query partition DP, for a straight run and a stop/resume split.
  // The journal digest was re-pinned when parked orders began to drain in
  // (source server, FIFO) order, each `migration_retried` record just
  // before its own outcome; the metrics and timeseries digests held.
  const SimulationConfig config = pressure_config();

  struct Outputs {
    SimulationMetrics metrics;
    std::string metrics_json;
    std::string timeseries;
    std::string journal;
  };
  const auto run = [&](int threads, int stop_after,
                       const snapshot::SimSnapshot* resume,
                       snapshot::SimSnapshot* capture) {
    par::set_num_threads(threads);
    obs::SimTimeseries timeseries;
    SimulationRunOptions options;
    // One file throughout: the resumed run appends to the checkpointed one.
    options.journal_path = jr_path();
    options.stop_after_interval = stop_after;
    options.resume_from = resume;
    options.capture_out = capture;
    Outputs out;
    out.metrics = run_simulation(config, *world_, &timeseries, options);
    par::set_num_threads(0);
    out.metrics_json = snapshot::metrics_to_json(out.metrics);
    std::ostringstream csv;
    timeseries.write_csv(csv);
    out.timeseries = csv.str();
    out.journal = slurp(jr_path());
    return out;
  };

  const Outputs straight = run(2, -1, nullptr, nullptr);
  // Not vacuous: the budget evicted and trimmed, parked orders retried, and
  // cold windows took the routed path.
  EXPECT_GT(straight.metrics.cache_evictions, 0);
  EXPECT_GT(straight.metrics.cache_partial_stores, 0);
  EXPECT_GT(straight.metrics.migration_retries, 0);
  EXPECT_GT(straight.metrics.routed_queries, 0);
  EXPECT_GT(straight.metrics.server_failures, 0);
  EXPECT_GT(straight.metrics.degraded_attaches, 0);

  constexpr const char* kMetrics = "e9fe4229b0beca0d";
  constexpr const char* kTimeseries = "859c079a3e4119e4";
  constexpr const char* kJournal = "1d84edd1dd0f5f84";
  EXPECT_EQ(digest(straight.metrics_json), kMetrics);
  EXPECT_EQ(digest(straight.timeseries), kTimeseries);
  EXPECT_EQ(digest(straight.journal), kJournal);

  snapshot::SimSnapshot snap;
  run(1, 5, nullptr, &snap);
  const snapshot::SimSnapshot decoded =
      snapshot::decode(snapshot::encode(snap));
  const Outputs resumed = run(4, -1, &decoded, nullptr);
  EXPECT_EQ(digest(resumed.metrics_json), kMetrics);
  EXPECT_EQ(digest(resumed.timeseries), kTimeseries);
  EXPECT_EQ(digest(resumed.journal), kJournal);
}

TEST_F(ClassicCacheBudgetTest, RegistryMirrorsTheMetrics) {
  // The pressure scenario with the registry on: each counter that mirrors a
  // SimulationMetrics field equals it (the sharded engine's twin is
  // ShardFaultDeterminismTest.RegistryMirrorsTheMetrics).
  obs::Registry::global().reset();
  obs::set_enabled(true);
  par::set_num_threads(2);
  const SimulationMetrics m = run_simulation(pressure_config(), *world_);
  par::set_num_threads(0);
  obs::set_enabled(false);
  EXPECT_GT(m.cache_evictions, 0);
  EXPECT_GT(m.cache_partial_stores, 0);
  EXPECT_GT(m.degraded_attaches, 0);
  EXPECT_GT(m.migrations_deferred, 0);
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

// ---------------------------------------------------------------------------
// Sharded city-scale engine.
// ---------------------------------------------------------------------------

class ShardCacheBudgetTest : public ::testing::Test {
 protected:
  static ShardWorldConfig base_config() {
    ShardWorldConfig config;
    config.model = ModelName::kMobileNet;
    config.tiles_x = 4;
    config.tiles_y = 5;
    config.cell_radius_m = 50.0;
    config.num_clients = 60;
    config.num_intervals = 10;
    config.max_load_level = 6;
    config.seed = 7;
    return config;
  }

  static void SetUpTestSuite() {
    ShardWorldConfig config = base_config();
    // A tile holds at most two full canonical prefixes: with ~3 clients per
    // tile on average the budget binds constantly.
    const ShardWorld probe = build_shard_world(config);
    config.cache_budget_bytes = 2 * probe.prefix_bytes.back();
    ASSERT_GT(config.cache_budget_bytes, 0);
    world_ = new ShardWorld(build_shard_world(config));
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
  static std::string ts_path() { return case_path("_budget_ts.csv"); }
  static std::string jr_path() { return case_path("_budget_jr.jsonl"); }

  struct RunResult {
    std::string metrics;
    std::string timeseries;
    std::string journal;
  };

  static RunResult run_at(const ShardWorld& world, int threads, int shards) {
    par::set_num_threads(threads);
    ShardRunOptions options;
    options.num_shards = shards;
    options.timeseries_path = ts_path();
    options.journal_path = jr_path();
    const SimulationMetrics metrics = run_sharded_simulation(world, options);
    par::set_num_threads(0);
    return {snapshot::metrics_to_json(metrics), slurp(ts_path()),
            slurp(jr_path())};
  }

  static ShardWorld* world_;
};

ShardWorld* ShardCacheBudgetTest::world_ = nullptr;

TEST_F(ShardCacheBudgetTest, BudgetedMatrixByteIdenticalAcrossThreadsShards) {
  const RunResult baseline = run_at(*world_, 1, 1);
  ASSERT_FALSE(baseline.metrics.empty());
  // The scenario is under real pressure, not trivially under budget
  // (metrics_to_json only emits the counters when they are non-zero).
  EXPECT_TRUE(
      baseline.metrics.find("\"cache_evictions\"") != std::string::npos ||
      baseline.metrics.find("\"cache_partial_stores\"") != std::string::npos)
      << baseline.metrics;

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
}

TEST_F(ShardCacheBudgetTest, JournalOffBudgetedMatrixMatchesPinnedDigests) {
  // The journal-off twin of the matrix above, the only budgeted leg that
  // reaches Phase B's parallel range walk: each range admits and evicts on
  // its own servers alone. The digests pin its bytes to the serial walk's,
  // at every thread and shard count and through a stop/resume split that
  // changes both.
  constexpr const char* kMetrics = "d880e4faafe2fdae";
  constexpr const char* kTimeseries = "a20284d943cfbbcc";
  const auto run = [&](int threads, int shards, int stop_after,
                       const snapshot::SimSnapshot* resume_from,
                       snapshot::SimSnapshot* capture_out) {
    par::set_num_threads(threads);
    ShardRunOptions options;
    options.num_shards = shards;
    options.timeseries_path = ts_path();
    options.stop_after_interval = stop_after;
    options.resume_from = resume_from;
    options.capture_out = capture_out;
    const SimulationMetrics metrics = run_sharded_simulation(*world_, options);
    par::set_num_threads(0);
    return snapshot::metrics_to_json(metrics);
  };
  std::string baseline;
  for (const int shards : {1, 4, 16}) {
    for (const int threads : {1, 2, 8}) {
      const std::string metrics = run(threads, shards, -1, nullptr, nullptr);
      EXPECT_EQ(digest(metrics), kMetrics)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(digest(slurp(ts_path())), kTimeseries)
          << "threads=" << threads << " shards=" << shards;
      if (baseline.empty()) baseline = metrics;
    }
  }
  // Not vacuous: the budget evicts.
  EXPECT_NE(baseline.find("\"cache_evictions\""), std::string::npos)
      << baseline;

  snapshot::SimSnapshot snap;
  run(1, 16, 4, nullptr, &snap);
  const snapshot::SimSnapshot decoded =
      snapshot::decode(snapshot::encode(snap));
  EXPECT_EQ(digest(run(2, 4, -1, &decoded, nullptr)), kMetrics);
  EXPECT_EQ(digest(slurp(ts_path())), kTimeseries);

  // Not vacuous either: in the 4-shard split (five tiles each), which 8
  // threads walk as four ranges, some pushes carry bytes to a tile of
  // another shard and some clients attach in one shard after leaving a
  // tile of another.
  const RunResult journaled = run_at(*world_, 1, 4);
  bool cross_push = false;
  bool cross_attach = false;
  for (const obs::JournalEvent& e :
       obs::journal_from_jsonl(journaled.journal)) {
    if (e.kind == obs::JournalEventKind::kMigrationPushed && e.bytes > 0 &&
        e.server / 5 != e.peer / 5)
      cross_push = true;
    if (e.kind == obs::JournalEventKind::kAttach && e.peer != kNoServer &&
        e.server / 5 != e.peer / 5)
      cross_attach = true;
  }
  EXPECT_TRUE(cross_push);
  EXPECT_TRUE(cross_attach);
}

TEST_F(ShardCacheBudgetTest, JournalOffShedRunMatchesPinnedDigests) {
  // Admission control sheds attaches in some intervals of this run, and a
  // shed writes server_, which budgeted admission on every server reads.
  // Phase B walks those intervals as one range and the others as one range
  // per thread; the digests pin the mix to the serial walk's bytes at every
  // thread and shard count.
  ShardWorldConfig config = base_config();
  config.flash_crowd_tiles = 2;
  config.flash_crowd_multiplier = 8.0;
  config.admission_max_attached = 7;
  const ShardWorld probe = build_shard_world(config);
  config.cache_budget_bytes = 2 * probe.prefix_bytes.back();
  const ShardWorld world = build_shard_world(config);
  constexpr const char* kMetrics = "e96372d4b71ed9a1";
  constexpr const char* kTimeseries = "94c22ffc70db5ae4";
  for (const int shards : {1, 4, 16}) {
    for (const int threads : {1, 2, 8}) {
      par::set_num_threads(threads);
      ShardRunOptions options;
      options.num_shards = shards;
      options.timeseries_path = ts_path();
      const SimulationMetrics metrics = run_sharded_simulation(world, options);
      par::set_num_threads(0);
      EXPECT_EQ(digest(snapshot::metrics_to_json(metrics)), kMetrics)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(digest(slurp(ts_path())), kTimeseries)
          << "threads=" << threads << " shards=" << shards;
      // Not vacuous: attaches were shed and the budget evicted.
      EXPECT_GT(metrics.attaches_shed, 0);
      EXPECT_GT(metrics.cache_evictions, 0);
    }
  }

  // Not vacuous either: some intervals shed and some do not, so one run
  // walks both ways.
  const RunResult journaled = run_at(world, 1, 4);
  std::set<int> shed_intervals;
  for (const obs::JournalEvent& e :
       obs::journal_from_jsonl(journaled.journal))
    if (e.kind == obs::JournalEventKind::kAttachShed)
      shed_intervals.insert(e.interval);
  EXPECT_FALSE(shed_intervals.empty());
  EXPECT_LT(shed_intervals.size(),
            static_cast<std::size_t>(config.num_intervals));
}

TEST_F(ShardCacheBudgetTest, ResidentBytesNeverExceedBudgetInAnyInterval) {
  const RunResult r = run_at(*world_, 2, 4);
  EXPECT_NE(r.timeseries.find("# schema=3"), std::string::npos);
  const auto bytes = csv_column(r.timeseries, "cache_bytes");
  ASSERT_EQ(bytes.size(),
            static_cast<std::size_t>(world_->config.num_intervals *
                                     world_->config.num_servers()));
  long long peak = 0;
  for (const long long b : bytes) {
    ASSERT_LE(b, world_->config.cache_budget_bytes);
    peak = std::max(peak, b);
  }
  EXPECT_GT(peak, 0);
  // The budget journal vocabulary is present and carries the byte payloads
  // perdnn_obs keys on (budget evictions have bytes > 0).
  EXPECT_NE(r.journal.find("\"kind\":\"cache_evict\""), std::string::npos);
}

TEST_F(ShardCacheBudgetTest, BudgetedResumeAfterKillConvergesByteIdentical) {
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
  ASSERT_TRUE(snap.has_shard);

  // kill -9 mid-write: garbage past the checkpoint offsets must be
  // discarded on resume.
  {
    std::ofstream ts(ts_path(), std::ios::binary | std::ios::app);
    ts << "9,9,9,garbage-past-the-checkpo";
    std::ofstream jr(jr_path(), std::ios::binary | std::ios::app);
    jr << "{\"interval\":999,\"kind\":\"atta";
  }

  const snapshot::SimSnapshot decoded =
      snapshot::decode(snapshot::encode(snap));
  ShardRunOptions options;
  options.num_shards = 4;
  options.timeseries_path = ts_path();
  options.journal_path = jr_path();
  options.resume_from = &decoded;
  const SimulationMetrics resumed = run_sharded_simulation(*world_, options);
  par::set_num_threads(0);

  EXPECT_EQ(full.metrics, snapshot::metrics_to_json(resumed));
  EXPECT_EQ(full.timeseries, slurp(ts_path()));
  EXPECT_EQ(full.journal, slurp(jr_path()));
}

TEST_F(ShardCacheBudgetTest, PressureRunMatchesPinnedDigestsThroughResume) {
  // One small scenario that reaches every change to a budgeted tile cache:
  // a one-prefix budget (evictions and trims on most pushes), short TTLs so
  // detached entries expire, a scripted crash wiping the busiest tile, a
  // backhaul degrade that clips pushes to partial deliveries, and a full
  // outage that parks them for retry, under a flash crowd behind an
  // admission cap. The matrices above only compare the engine with itself;
  // these digests pin its bytes to the reference outputs of the full-scan
  // admission, for a straight run and for a stop/resume split alike.
  ShardWorldConfig config = base_config();
  config.num_clients = 40;
  config.offline_probability = 0.05;
  config.offline_intervals = 2;
  config.ttl_intervals = 1;
  config.flash_crowd_tiles = 2;
  config.flash_crowd_multiplier = 8.0;
  config.admission_max_attached = 5;
  config.retry_queue_cap = 16;
  config.backhaul_bytes_per_sec = mbps_to_bytes_per_sec(2.0);
  const ShardWorld probe = build_shard_world(config);
  config.cache_budget_bytes = probe.prefix_bytes.back();
  ASSERT_FALSE(probe.flash_crowd_hot_tiles.empty());
  std::vector<FaultEvent> events;
  events.push_back({.kind = FaultKind::kServerCrash,
                    .at_interval = 4,
                    .duration_intervals = 2,
                    .server = probe.flash_crowd_hot_tiles.front()});
  for (int s = 0; s < config.num_servers(); ++s) {
    events.push_back({.kind = FaultKind::kBackhaulDegrade,
                      .at_interval = 1,
                      .duration_intervals = 2,
                      .server = s,
                      .severity = 0.6});
    events.push_back({.kind = FaultKind::kBackhaulDegrade,
                      .at_interval = 6,
                      .duration_intervals = 1,
                      .server = s,
                      .severity = 1.0});
  }
  config.fault_plan = FaultPlan(std::move(events));
  const ShardWorld world = build_shard_world(config);

  par::set_num_threads(2);
  ShardRunOptions options;
  options.num_shards = 4;
  options.timeseries_path = ts_path();
  options.journal_path = jr_path();
  const SimulationMetrics metrics = run_sharded_simulation(world, options);
  par::set_num_threads(0);
  // Not vacuous: every pressure and fault path fired, and both the TTL
  // expiry and the crash wipe removed entries that held bytes.
  EXPECT_GT(metrics.cache_evictions, 0);
  EXPECT_GT(metrics.cache_partial_stores, 0);
  EXPECT_GT(metrics.server_failures, 0);
  EXPECT_GT(metrics.migration_retries, 0);
  EXPECT_GT(metrics.attaches_shed, 0);
  const std::string journal = slurp(jr_path());
  int resident_expiries = 0;
  int resident_wipes = 0;
  for (const obs::JournalEvent& e : obs::journal_from_jsonl(journal)) {
    if (e.aux <= 0) continue;
    if (e.kind == obs::JournalEventKind::kCacheExpire) ++resident_expiries;
    if (e.kind == obs::JournalEventKind::kCacheEvict && e.bytes == 0)
      ++resident_wipes;
  }
  EXPECT_GT(resident_expiries, 0);
  EXPECT_GT(resident_wipes, 0);

  constexpr const char* kMetrics = "d4827423d09db98c";
  constexpr const char* kTimeseries = "19cffd89b2eda160";
  constexpr const char* kJournal = "d36aa846a9d450e5";
  EXPECT_EQ(digest(snapshot::metrics_to_json(metrics)), kMetrics);
  EXPECT_EQ(digest(slurp(ts_path())), kTimeseries);
  EXPECT_EQ(digest(journal), kJournal);

  snapshot::SimSnapshot snap;
  {
    ShardRunOptions first = options;
    first.num_shards = 16;
    first.stop_after_interval = 4;
    first.capture_out = &snap;
    run_sharded_simulation(world, first);
  }
  const snapshot::SimSnapshot decoded =
      snapshot::decode(snapshot::encode(snap));
  ShardRunOptions second = options;
  second.num_shards = 1;
  second.resume_from = &decoded;
  const SimulationMetrics resumed = run_sharded_simulation(world, second);
  EXPECT_EQ(digest(snapshot::metrics_to_json(resumed)), kMetrics);
  EXPECT_EQ(digest(slurp(ts_path())), kTimeseries);
  EXPECT_EQ(digest(slurp(jr_path())), kJournal);
}

TEST_F(ShardCacheBudgetTest, ResumeRejectsMisorderedCacheEntries) {
  // Restore rebuilds each tile's sorted resident index from the snapshot
  // entries, so a checkpoint whose entries are not strictly ascending in
  // (server, client) — swapped or duplicated — is malformed input.
  par::set_num_threads(1);
  snapshot::SimSnapshot snap;
  ShardRunOptions options;
  options.stop_after_interval = 4;
  options.capture_out = &snap;
  run_sharded_simulation(*world_, options);
  ASSERT_GE(snap.shard.entry_server.size(), 2u);

  const auto resume_throws = [&](const snapshot::SimSnapshot& bad) {
    ShardRunOptions resume;
    resume.resume_from = &bad;
    EXPECT_THROW(run_sharded_simulation(*world_, resume),
                 snapshot::SnapshotError);
  };
  snapshot::SimSnapshot swapped = snap;
  snapshot::ShardSimState& sw = swapped.shard;
  std::swap(sw.entry_server[0], sw.entry_server[1]);
  std::swap(sw.entry_client[0], sw.entry_client[1]);
  std::swap(sw.entry_expire[0], sw.entry_expire[1]);
  std::swap(sw.entry_prefix[0], sw.entry_prefix[1]);
  resume_throws(swapped);
  snapshot::SimSnapshot duplicated = snap;
  snapshot::ShardSimState& dup = duplicated.shard;
  dup.entry_server[1] = dup.entry_server[0];
  dup.entry_client[1] = dup.entry_client[0];
  resume_throws(duplicated);
  par::set_num_threads(0);
}

TEST_F(ShardCacheBudgetTest, UnbudgetedShardRunKeepsSchema2) {
  const ShardWorld plain = build_shard_world(base_config());
  const RunResult r = run_at(plain, 2, 4);
  EXPECT_NE(r.timeseries.find("# schema=2"), std::string::npos);
  EXPECT_EQ(r.timeseries.find("cache_bytes"), std::string::npos);
  EXPECT_EQ(r.metrics.find("cache_evictions"), std::string::npos);
}

}  // namespace
}  // namespace perdnn
