// Tier-1 determinism gate for the sharded city-scale engine: the same
// seeded ShardWorld must produce byte-identical metrics, streamed
// timeseries CSV and streamed journal JSONL across
//
//   threads x shards x simd x checkpoint/resume
//
// per the contract in sim/shard_sim.hpp. The resume leg also emulates a
// kill -9 mid-write (garbage appended past the checkpoint offset) — the
// stream writers must truncate back to the boundary and still converge on
// the uninterrupted bytes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "common/wire.hpp"
#include "obs/journal.hpp"
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
  add("client_disconnect_events", m.client_disconnect_events);
  add("attached_client_intervals",
      static_cast<double>(m.attached_client_intervals));
  add("offline_client_intervals",
      static_cast<double>(m.offline_client_intervals));
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

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// FNV-1a of an output stream as 16 hex digits.
std::string digest(const std::string& bytes) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    wire::fnv1a(bytes.data(), bytes.size())));
  return buf;
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

class ShardDeterminismTest : public ::testing::Test {
 protected:
  static ShardWorldConfig small_config() {
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
    return config;
  }

  static void SetUpTestSuite() {
    world_ = new ShardWorld(build_shard_world(small_config()));
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
  static std::string ts_path() { return case_path("_shard_ts.csv"); }
  static std::string jr_path() { return case_path("_shard_jr.jsonl"); }

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

ShardWorld* ShardDeterminismTest::world_ = nullptr;

TEST_F(ShardDeterminismTest, MatrixByteIdenticalAcrossThreadsAndShards) {
  const RunResult baseline = run_at(*world_, 1, 1);
  ASSERT_FALSE(baseline.metrics.empty());
  ASSERT_FALSE(baseline.timeseries.empty());
  ASSERT_FALSE(baseline.journal.empty());

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

  // Not vacuous: the run exercised attaches, pushes, cold windows and
  // offline churn.
  EXPECT_EQ(baseline.metrics.find("server_changes=0\n"), std::string::npos);
  EXPECT_EQ(baseline.metrics.find("total_migrated_bytes=0\n"),
            std::string::npos);
  EXPECT_EQ(baseline.metrics.find("cold_window_queries=0\n"),
            std::string::npos);
  EXPECT_EQ(baseline.metrics.find("offline_client_intervals=0\n"),
            std::string::npos);
}

TEST_F(ShardDeterminismTest, JournalOffMatrixMatchesPinnedDigests) {
  // The journal-off twin of the matrix above. Phase B walks the servers as
  // one range while the journal is on, and as min(threads, shards) ranges on
  // the pool while it is off, so only this leg reaches the parallel walk.
  // The digests pin its bytes to the serial walk's, at every thread and
  // shard count and through a stop/resume split that changes both.
  constexpr const char* kMetrics = "cbbc9c8893b1b92f";
  constexpr const char* kTimeseries = "5d1ac2de5b2ad702";
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
  for (const int shards : {1, 4, 16}) {
    for (const int threads : {1, 2, 8}) {
      const std::string metrics = run(threads, shards, -1, nullptr, nullptr);
      EXPECT_EQ(digest(metrics), kMetrics)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(digest(slurp(ts_path())), kTimeseries)
          << "threads=" << threads << " shards=" << shards;
    }
  }

  snapshot::SimSnapshot snap;
  run(1, 16, 4, nullptr, &snap);
  const snapshot::SimSnapshot decoded =
      snapshot::decode(snapshot::encode(snap));
  EXPECT_EQ(digest(run(2, 4, -1, &decoded, nullptr)), kMetrics);
  EXPECT_EQ(digest(slurp(ts_path())), kTimeseries);

  // Not vacuous: in the 4-shard split (five tiles each), which 8 threads
  // walk as four ranges, some pushes carry bytes to a tile of another shard
  // and some clients attach in one shard after leaving a tile of another.
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

TEST_F(ShardDeterminismTest, SimdOffWorldProducesIdenticalRun) {
  // The AVX2 batch kernels sit under the estimator fill of the planning
  // tables; per the simd.hpp contract they are bit-identical to the scalar
  // fallback, so disabling them — world build and run both — must change
  // nothing. On machines without AVX2 both legs run scalar and the test is
  // trivially (but correctly) green.
  const RunResult on = [&] {
    SimdGuard guard(true);
    return run_at(*world_, 2, 4);
  }();
  const ShardWorld off_world = [] {
    SimdGuard guard(false);
    return build_shard_world(small_config());
  }();
  ASSERT_EQ(world_->canonical_order, off_world.canonical_order);
  ASSERT_EQ(world_->prefix_bytes, off_world.prefix_bytes);
  const RunResult off = [&] {
    SimdGuard guard(false);
    return run_at(off_world, 8, 16);
  }();
  EXPECT_EQ(on.metrics, off.metrics);
  EXPECT_EQ(on.timeseries, off.timeseries);
  EXPECT_EQ(on.journal, off.journal);
}

TEST_F(ShardDeterminismTest, ResumeAfterKillConvergesByteIdentical) {
  const RunResult full = run_at(*world_, 2, 4);

  // First half: stop after interval 4 with a checkpoint, at different
  // thread/shard counts than the uninterrupted run.
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

  // Emulate kill -9 mid-write: bytes past the checkpoint offset, including
  // a partial line, that the resumed run must discard.
  {
    std::ofstream ts(ts_path(), std::ios::binary | std::ios::app);
    ts << "9,9,9,garbage-past-the-checkpo";
    std::ofstream jr(jr_path(), std::ios::binary | std::ios::app);
    jr << "{\"interval\":999,\"kind\":\"atta";
  }

  // Round-trip the snapshot through the v3 codec before resuming, so the
  // resume leg also covers the shard-section encode/decode.
  const snapshot::SimSnapshot decoded = snapshot::decode(snapshot::encode(snap));
  ASSERT_TRUE(decoded.has_shard);

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

TEST_F(ShardDeterminismTest, ResumeRejectsForeignConfig) {
  par::set_num_threads(1);
  snapshot::SimSnapshot snap;
  ShardRunOptions options;
  options.stop_after_interval = 1;
  options.capture_out = &snap;
  run_sharded_simulation(*world_, options);

  ShardWorldConfig other = small_config();
  other.seed = 8;
  const ShardWorld other_world = build_shard_world(other);
  ShardRunOptions resume;
  resume.resume_from = &snap;
  EXPECT_THROW(run_sharded_simulation(other_world, resume),
               snapshot::SnapshotError);
  par::set_num_threads(0);
}

TEST_F(ShardDeterminismTest, ResumeRejectsChainsOfUnknownClients) {
  par::set_num_threads(1);
  snapshot::SimSnapshot snap;
  ShardRunOptions options;
  options.journal_path = jr_path();
  options.stop_after_interval = 1;
  options.capture_out = &snap;
  run_sharded_simulation(*world_, options);
  ASSERT_FALSE(snap.shard.client_chains.empty());

  // Ids one past either end: a larger one would, with the check gone,
  // allocate that many chain slots before anything failed.
  for (const ClientId bad : {-1, world_->config.num_clients}) {
    snapshot::SimSnapshot forged = snap;
    forged.shard.client_chains.emplace_back(bad, 1);
    ShardRunOptions resume;
    resume.journal_path = jr_path();
    resume.resume_from = &forged;
    try {
      run_sharded_simulation(*world_, resume);
      ADD_FAILURE() << "client " << bad << " was accepted";
    } catch (const snapshot::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("journal chain"),
                std::string::npos)
          << e.what();
    }
  }
  par::set_num_threads(0);
}

TEST_F(ShardDeterminismTest, ResumeRejectsCacheExpiriesNoSlotWouldFire) {
  // A checkpoint after interval t holds no expiry past t + ttl, and no
  // detached entry due before t + 1. Restore queues a detached entry in the
  // wheel slot of its expiry, so an entry outside those bounds would never
  // expire: one due in the past sits in a slot that has already fired, and
  // an attached owner's entry due past t + ttl is not re-queued when the
  // owner detaches.
  const RunResult full = run_at(*world_, 2, 4);
  par::set_num_threads(1);
  snapshot::SimSnapshot snap;
  {
    ShardRunOptions options;
    options.num_shards = 4;
    options.timeseries_path = ts_path();
    options.journal_path = jr_path();
    options.stop_after_interval = 4;
    options.capture_out = &snap;
    run_sharded_simulation(*world_, options);
  }
  const snapshot::ShardSimState& s = snap.shard;
  // The first entry whose owner is attached elsewhere or nowhere, and the
  // first whose owner is attached to it.
  const std::size_t none = s.entry_server.size();
  std::size_t detached = none;
  std::size_t attached = none;
  for (std::size_t i = 0; i < none; ++i) {
    std::size_t& first =
        s.server[static_cast<std::size_t>(s.entry_client[i])] ==
                s.entry_server[i]
            ? attached
            : detached;
    if (first == none) first = i;
  }
  ASSERT_LT(detached, none);
  ASSERT_LT(attached, none);

  const auto resume = [&](const snapshot::SimSnapshot& from) {
    ShardRunOptions options;
    options.num_shards = 16;
    options.timeseries_path = ts_path();
    options.journal_path = jr_path();
    options.resume_from = &from;
    return run_sharded_simulation(*world_, options);
  };
  snapshot::SimSnapshot past_due = snap;
  past_due.shard.entry_expire[detached] = snap.next_interval - 1;
  EXPECT_THROW(resume(past_due), snapshot::SnapshotError);
  snapshot::SimSnapshot beyond_ttl = snap;
  beyond_ttl.shard.entry_expire[attached] =
      snap.next_interval + world_->config.ttl_intervals;
  EXPECT_THROW(resume(beyond_ttl), snapshot::SnapshotError);

  const SimulationMetrics resumed = resume(snap);
  par::set_num_threads(0);
  EXPECT_EQ(full.metrics, metrics_fingerprint(resumed));
  EXPECT_EQ(full.timeseries, slurp(ts_path()));
  EXPECT_EQ(full.journal, slurp(jr_path()));
}

TEST_F(ShardDeterminismTest, UnbudgetedRunMatchesPinnedDigests) {
  // The matrices above compare the unbudgeted engine only with itself.
  // These digests pin its bytes: a fault-free run with churn and a short
  // TTL, so Phase B's client-order walk and the per-shard TTL expiry both
  // reach the journal, at every thread and shard count and through a
  // stop/resume split that changes both.
  ShardWorldConfig config = small_config();
  config.ttl_intervals = 1;
  config.num_intervals = 12;
  const ShardWorld world = build_shard_world(config);
  constexpr const char* kMetrics = "4c4bfa95fd4b2a66";
  constexpr const char* kTimeseries = "3e5dfa00b19e8a18";
  constexpr const char* kJournal = "d66cd8073549cb25";

  const auto run = [&](int threads, int shards, int stop_after,
                       const snapshot::SimSnapshot* resume_from,
                       snapshot::SimSnapshot* capture_out) {
    par::set_num_threads(threads);
    ShardRunOptions options;
    options.num_shards = shards;
    options.timeseries_path = ts_path();
    options.journal_path = jr_path();
    options.stop_after_interval = stop_after;
    options.resume_from = resume_from;
    options.capture_out = capture_out;
    const SimulationMetrics metrics = run_sharded_simulation(world, options);
    par::set_num_threads(0);
    return snapshot::metrics_to_json(metrics);
  };
  for (const int shards : {1, 4, 16}) {
    for (const int threads : {1, 2, 8}) {
      const std::string metrics = run(threads, shards, -1, nullptr, nullptr);
      EXPECT_EQ(digest(metrics), kMetrics)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(digest(slurp(ts_path())), kTimeseries)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(digest(slurp(jr_path())), kJournal)
          << "threads=" << threads << " shards=" << shards;
    }
  }

  // Not vacuous: entries expire on the servers of several shards (here of
  // the 4-shard split, five tiles each), so the shards' sorted lists have to
  // be recorded in shard order.
  std::set<int> expiring_shards;
  for (const obs::JournalEvent& e : obs::journal_from_jsonl(slurp(jr_path())))
    if (e.kind == obs::JournalEventKind::kCacheExpire)
      expiring_shards.insert(e.server / 5);
  EXPECT_GE(expiring_shards.size(), 2u);

  snapshot::SimSnapshot snap;
  run(1, 16, 5, nullptr, &snap);
  const snapshot::SimSnapshot decoded =
      snapshot::decode(snapshot::encode(snap));
  const std::string resumed = run(2, 4, -1, &decoded, nullptr);
  EXPECT_EQ(digest(resumed), kMetrics);
  EXPECT_EQ(digest(slurp(ts_path())), kTimeseries);
  EXPECT_EQ(digest(slurp(jr_path())), kJournal);
}

TEST_F(ShardDeterminismTest, EmptyTileShardsStillEmitDenseRows) {
  // 20 tiles, 3 clients: most tiles (and with 16 shards, most shards) own
  // no client at all. The merged output must still be the dense
  // intervals x servers row matrix, byte-identical to the single-shard run.
  ShardWorldConfig config = small_config();
  config.num_clients = 3;
  config.num_intervals = 5;
  const ShardWorld sparse = build_shard_world(config);

  const RunResult one = run_at(sparse, 1, 1);
  const RunResult sixteen = run_at(sparse, 8, 16);
  EXPECT_EQ(one.metrics, sixteen.metrics);
  EXPECT_EQ(one.timeseries, sixteen.timeseries);
  EXPECT_EQ(one.journal, sixteen.journal);

  long long lines = 0;
  for (const char c : one.timeseries)
    if (c == '\n') ++lines;
  // `# schema=`, `# model=`, header, then one row per (interval, server).
  EXPECT_EQ(lines, 3 + static_cast<long long>(config.num_intervals) *
                           config.num_servers());
}

}  // namespace
}  // namespace perdnn
