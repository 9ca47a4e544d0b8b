// Tier-1 coverage for the checkpoint/resume subsystem: byte-identity of a
// resumed run against the uninterrupted one (across thread counts and
// fault plans), wire-format round-trips, and strict rejection of
// corrupted/truncated/mismatched snapshots.
#include "snapshot/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "faults/fault_plan.hpp"
#include "mobility/trace_gen.hpp"
#include "obs/timeseries.hpp"
#include "sim/shard_sim.hpp"
#include "sim/simulator.hpp"

namespace perdnn {
namespace {

struct RunResult {
  std::string metrics_json;
  std::string timeseries_csv;
};

class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CampusTraceConfig train_config;
    train_config.num_users = 8;
    train_config.duration = 1.0 * 3600.0;
    train_config.sample_interval = 20.0;
    train_config.seed = 100;
    CampusTraceConfig test_config = train_config;
    test_config.num_users = 5;
    test_config.seed = 200;

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

  /// Fault plan with a total backhaul outage so the retry queue is
  /// non-empty at the checkpoint, plus a crash, a telemetry dropout and a
  /// client disconnect.
  static SimulationConfig faulted_config() {
    SimulationConfig config = *config_;
    config.fault_plan = FaultPlan({
        {.kind = FaultKind::kServerCrash,
         .at_interval = 2,
         .duration_intervals = 3,
         .server = 0},
        {.kind = FaultKind::kBackhaulDegrade,
         .at_interval = 1,
         .duration_intervals = 6,
         .server = 1,
         .peer = kAllServers,
         .severity = 1.0},
        {.kind = FaultKind::kTelemetryDropout,
         .at_interval = 0,
         .duration_intervals = 8,
         .server = 2},
        {.kind = FaultKind::kClientDisconnect,
         .at_interval = 4,
         .duration_intervals = 2,
         .client = 1},
    });
    config.migration_retry = {.max_attempts = 6,
                              .initial_backoff_intervals = 1,
                              .max_backoff_intervals = 8};
    return config;
  }

  static RunResult full_run(const SimulationConfig& config, int threads) {
    par::set_num_threads(threads);
    obs::SimTimeseries timeseries;
    const SimulationMetrics metrics =
        run_simulation(config, *world_, &timeseries, {});
    std::ostringstream csv;
    timeseries.write_csv(csv);
    return {snapshot::metrics_to_json(metrics), csv.str()};
  }

  /// Runs intervals [0, stop_after], capturing the checkpoint in memory.
  static snapshot::SimSnapshot checkpoint_at(const SimulationConfig& config,
                                             int stop_after, int threads) {
    par::set_num_threads(threads);
    obs::SimTimeseries timeseries;
    snapshot::SimSnapshot snap;
    SimulationRunOptions options;
    options.stop_after_interval = stop_after;
    options.capture_out = &snap;
    run_simulation(config, *world_, &timeseries, options);
    return snap;
  }

  static RunResult resume_from(const SimulationConfig& config,
                               const snapshot::SimSnapshot& snap,
                               int threads) {
    par::set_num_threads(threads);
    obs::SimTimeseries timeseries;
    SimulationRunOptions options;
    options.resume_from = &snap;
    const SimulationMetrics metrics =
        run_simulation(config, *world_, &timeseries, options);
    std::ostringstream csv;
    timeseries.write_csv(csv);
    return {snapshot::metrics_to_json(metrics), csv.str()};
  }

  /// An output file named per test case: ctest runs each case as its own
  /// process, so one shared name would race under `ctest -j`.
  static std::string case_path(const char* suffix) {
    return ::testing::TempDir() + "perdnn_snapshot_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           suffix;
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  }

  /// checkpoint_at, journaling to `journal_path`.
  static snapshot::SimSnapshot journaled_checkpoint_at(
      const SimulationConfig& config, int stop_after,
      const std::string& journal_path) {
    par::set_num_threads(2);
    obs::SimTimeseries timeseries;
    snapshot::SimSnapshot snap;
    SimulationRunOptions options;
    options.journal_path = journal_path;
    options.stop_after_interval = stop_after;
    options.capture_out = &snap;
    run_simulation(config, *world_, &timeseries, options);
    return snap;
  }

  static SimulationConfig* config_;
  static SimulationWorld* world_;
};

SimulationConfig* SnapshotTest::config_ = nullptr;
SimulationWorld* SnapshotTest::world_ = nullptr;

TEST_F(SnapshotTest, ResumeIsByteIdenticalAcrossThreadsAndFastpath) {
  const RunResult reference = full_run(*config_, 2);
  const snapshot::SimSnapshot snap = checkpoint_at(*config_, 5, 2);
  ASSERT_GT(snap.next_interval, 0);
  ASSERT_TRUE(snap.has_timeseries);

  for (const int threads : {1, 2, 8}) {
    const RunResult resumed = resume_from(*config_, snap, threads);
    EXPECT_EQ(resumed.metrics_json, reference.metrics_json)
        << "threads=" << threads;
    EXPECT_EQ(resumed.timeseries_csv, reference.timeseries_csv)
        << "threads=" << threads;
  }
}

TEST_F(SnapshotTest, ResumeUnderFaultPlanIsByteIdentical) {
  const SimulationConfig config = faulted_config();
  const RunResult reference = full_run(config, 2);
  // Checkpoint at a boundary inside the total backhaul outage (intervals
  // 1..6) where the retry queue is actually non-empty, so the snapshot
  // must carry live mid-backoff retry state. Which boundary that is
  // depends on when a migration first crosses the dead link, so probe.
  snapshot::SimSnapshot snap;
  bool queued = false;
  for (int stop = 1; stop <= 7 && !queued; ++stop) {
    snap = checkpoint_at(config, stop, 2);
    queued = !snap.retry_orders.empty();
  }
  ASSERT_TRUE(queued)
      << "outage never deferred a migration; the scenario lost its bite";
  Bytes backlog = 0;
  for (const LayerRetryOrder& order : snap.retry_orders) backlog += order.bytes;
  EXPECT_GT(backlog, 0);

  for (const int threads : {1, 2, 8}) {
    const RunResult resumed = resume_from(config, snap, threads);
    EXPECT_EQ(resumed.metrics_json, reference.metrics_json)
        << "threads=" << threads;
    EXPECT_EQ(resumed.timeseries_csv, reference.timeseries_csv)
        << "threads=" << threads;
  }
}

TEST_F(SnapshotTest, EveryCheckpointIntervalResumesIdentically) {
  // Not just one lucky interval: a checkpoint taken at *any* boundary of a
  // short faulted run must resume byte-identically (this sweeps boundaries
  // where the retry queue is empty, mid-backoff, and drained).
  const SimulationConfig config = faulted_config();
  const RunResult reference = full_run(config, 2);
  for (const int stop : {0, 1, 4, 8}) {
    const snapshot::SimSnapshot snap = checkpoint_at(config, stop, 2);
    EXPECT_EQ(snap.next_interval, stop + 1);
    const RunResult resumed = resume_from(config, snap, 2);
    EXPECT_EQ(resumed.metrics_json, reference.metrics_json) << "stop=" << stop;
    EXPECT_EQ(resumed.timeseries_csv, reference.timeseries_csv)
        << "stop=" << stop;
  }
}

TEST_F(SnapshotTest, WireFormatRoundTripsExactly) {
  const snapshot::SimSnapshot snap = checkpoint_at(faulted_config(), 3, 2);
  const std::string bytes = snapshot::encode(snap);
  const snapshot::SimSnapshot decoded = snapshot::decode(bytes);
  // Field-level spot checks...
  EXPECT_EQ(decoded.config_fingerprint, snap.config_fingerprint);
  EXPECT_EQ(decoded.next_interval, snap.next_interval);
  EXPECT_EQ(decoded.num_intervals, snap.num_intervals);
  EXPECT_EQ(decoded.rng, snap.rng);
  EXPECT_EQ(decoded.link_rng, snap.link_rng);
  EXPECT_EQ(decoded.caches, snap.caches);
  EXPECT_EQ(decoded.attached, snap.attached);
  EXPECT_EQ(decoded.retry_orders.size(), snap.retry_orders.size());
  EXPECT_EQ(decoded.timeseries_rows.size(), snap.timeseries_rows.size());
  // ...and the strong form: re-encoding reproduces the exact bytes.
  EXPECT_EQ(snapshot::encode(decoded), bytes);
}

TEST_F(SnapshotTest, JournalStateRoundTripsThroughTheWire) {
  // A checkpoint taken while journaling carries the journal stream's
  // offset, event count and chain state, not its events; the wire codec
  // must reproduce them exactly.
  const std::string path = case_path(".jsonl");
  const snapshot::SimSnapshot snap =
      journaled_checkpoint_at(faulted_config(), 3, path);
  const std::string journal = slurp(path);
  std::remove(path.c_str());

  ASSERT_TRUE(snap.has_journal);
  ASSERT_GT(snap.journal.events, 0u);
  EXPECT_EQ(snap.journal.bytes, journal.size());
  EXPECT_EQ(snap.journal.events,
            static_cast<std::uint64_t>(
                std::count(journal.begin(), journal.end(), '\n')));
  EXPECT_GT(snap.journal.next_chain, 1u);
  EXPECT_FALSE(snap.journal.client_chains.empty());

  const std::string bytes = snapshot::encode(snap);
  const snapshot::SimSnapshot decoded = snapshot::decode(bytes);
  EXPECT_TRUE(decoded.has_journal);
  EXPECT_EQ(decoded.journal, snap.journal);
  EXPECT_EQ(snapshot::encode(decoded), bytes);

  // Journal-free snapshots keep the flag off end to end.
  const snapshot::SimSnapshot bare = checkpoint_at(*config_, 2, 1);
  EXPECT_FALSE(bare.has_journal);
  EXPECT_FALSE(snapshot::decode(snapshot::encode(bare)).has_journal);
}

TEST_F(SnapshotTest, SaveLoadRoundTripsThroughAFile) {
  const snapshot::SimSnapshot snap = checkpoint_at(*config_, 2, 1);
  const std::string path = ::testing::TempDir() + "perdnn_snapshot_test.ckpt";
  snapshot::save(snap, path);
  const snapshot::SimSnapshot loaded = snapshot::load(path);
  EXPECT_EQ(snapshot::encode(loaded), snapshot::encode(snap));
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, CorruptedInputsAreRejectedNotCrashed) {
  const std::string bytes = snapshot::encode(checkpoint_at(*config_, 2, 1));

  // Truncations at every structurally interesting length.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{12}, std::size_t{19}, std::size_t{20},
        bytes.size() / 2, bytes.size() - 9, bytes.size() - 1}) {
    EXPECT_THROW(snapshot::decode(bytes.substr(0, len)),
                 snapshot::SnapshotError)
        << "truncated to " << len << " bytes";
  }
  // Trailing garbage.
  EXPECT_THROW(snapshot::decode(bytes + "x"), snapshot::SnapshotError);
  // Bad magic.
  {
    std::string bad = bytes;
    bad[0] = 'X';
    EXPECT_THROW(snapshot::decode(bad), snapshot::SnapshotError);
  }
  // Unknown version.
  {
    std::string bad = bytes;
    bad[8] = static_cast<char>(0x7f);
    EXPECT_THROW(snapshot::decode(bad), snapshot::SnapshotError);
  }
  // Byte flips throughout the payload and in the checksum.
  for (const std::size_t off :
       {std::size_t{21}, std::size_t{40}, bytes.size() / 3, bytes.size() / 2,
        bytes.size() - 4}) {
    std::string bad = bytes;
    bad[off] = static_cast<char>(bad[off] ^ 0x5a);
    EXPECT_THROW(snapshot::decode(bad), snapshot::SnapshotError)
        << "byte flip at " << off;
  }
  // A claimed payload size larger than the file must not allocate wildly.
  {
    std::string bad = bytes;
    for (int i = 0; i < 8; ++i) bad[12 + i] = static_cast<char>(0xff);
    EXPECT_THROW(snapshot::decode(bad), snapshot::SnapshotError);
  }
}

TEST_F(SnapshotTest, LoadOfMissingFileThrows) {
  EXPECT_THROW(snapshot::load("/nonexistent/dir/nothing.ckpt"),
               snapshot::SnapshotError);
}

/// Reads one golden fixture from tests/snapshot/data (checked-in files
/// written by earlier kSnapshotVersion writers).
std::string read_fixture(const std::string& name) {
  const std::string path = std::string(PERDNN_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::uint32_t declared_version(const std::string& bytes) {
  // Wire layout: magic (8 bytes), then a little-endian u32 version.
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(bytes[8 + static_cast<std::size_t>(i)]);
  return v;
}

TEST_F(SnapshotTest, GoldenVersion2FixtureStillDecodes) {
  const std::string bytes = read_fixture("v2.snap");
  ASSERT_EQ(declared_version(bytes), 2u);
  const snapshot::SimSnapshot snap = snapshot::decode(bytes);
  EXPECT_GT(snap.next_interval, 0);
  EXPECT_FALSE(snap.has_shard);
  // The journal was inline: its events are counted, and no stream exists
  // for a journaling resume to continue.
  EXPECT_FALSE(snap.has_journal);
  EXPECT_EQ(snap.journal.events, 2u);
  ASSERT_FALSE(snap.caches.empty());
  // Pre-v5 files carry no per-entry byte counts; they default to zero and
  // are recomputed from the cost model on restore.
  for (const auto& server_cache : snap.caches)
    for (const auto& entry : server_cache) EXPECT_EQ(entry.bytes, 0);
  // A decoded golden file re-encodes as a valid current-version snapshot.
  const std::string reencoded = snapshot::encode(snap);
  EXPECT_EQ(declared_version(reencoded), snapshot::kSnapshotVersion);
  EXPECT_NO_THROW(snapshot::decode(reencoded));
}

TEST_F(SnapshotTest, GoldenVersion3ShardFixtureStillDecodes) {
  const std::string bytes = read_fixture("v3.snap");
  ASSERT_EQ(declared_version(bytes), 3u);
  const snapshot::SimSnapshot snap = snapshot::decode(bytes);
  EXPECT_GT(snap.next_interval, 0);
  EXPECT_TRUE(snap.has_shard);
  // Version 3 predates the shard retry queue: it decodes empty.
  EXPECT_TRUE(snap.shard.retry_client.empty());
  EXPECT_FALSE(snap.shard.x.empty());
  EXPECT_NO_THROW(snapshot::decode(snapshot::encode(snap)));
}

TEST_F(SnapshotTest, GoldenVersion4FixturesStillDecode) {
  const std::string classic_bytes = read_fixture("v4_classic.snap");
  ASSERT_EQ(declared_version(classic_bytes), 4u);
  const snapshot::SimSnapshot classic = snapshot::decode(classic_bytes);
  EXPECT_GT(classic.next_interval, 0);
  EXPECT_FALSE(classic.has_shard);
  EXPECT_FALSE(classic.has_journal);  // inline, counted
  EXPECT_EQ(classic.journal.events, 54u);
  EXPECT_FALSE(classic.caches.empty());
  // Version 4 predates the budgeted-cache counters: they decode zero.
  EXPECT_EQ(classic.metrics.cache_evictions, 0);
  EXPECT_EQ(classic.metrics.cache_partial_stores, 0);
  EXPECT_EQ(classic.metrics.peak_cache_bytes, 0);

  const std::string shard_bytes = read_fixture("v4_shard.snap");
  ASSERT_EQ(declared_version(shard_bytes), 4u);
  const snapshot::SimSnapshot shard = snapshot::decode(shard_bytes);
  EXPECT_GT(shard.next_interval, 0);
  EXPECT_TRUE(shard.has_shard);
  EXPECT_FALSE(shard.shard.x.empty());
  EXPECT_NO_THROW(snapshot::decode(snapshot::encode(shard)));
}

TEST_F(SnapshotTest, GoldenVersion5FixtureStillDecodes) {
  // Written from a budgeted classic run, so the per-entry byte counts and
  // budgeted-cache counters are live, followed by the two estimate-memo
  // tallies (misses > 0) that version 6 dropped.
  const std::string bytes = read_fixture("v5_classic.snap");
  ASSERT_EQ(declared_version(bytes), 5u);
  const snapshot::SimSnapshot snap = snapshot::decode(bytes);
  EXPECT_GT(snap.next_interval, 0);
  EXPECT_FALSE(snap.has_shard);
  EXPECT_FALSE(snap.has_journal);  // inline, counted
  EXPECT_EQ(snap.journal.events, 57u);
  EXPECT_GT(snap.metrics.cache_partial_stores, 0);
  bool any_entry_bytes = false;
  for (const auto& server_cache : snap.caches)
    for (const auto& entry : server_cache)
      if (entry.bytes > 0) any_entry_bytes = true;
  EXPECT_TRUE(any_entry_bytes);
  // The traffic history folds into a summary one server wide per cache.
  EXPECT_TRUE(snap.traffic.has_width(snap.caches.size()));
  EXPECT_GE(snap.traffic.busiest_total, 0);
  // The re-encode is a current-version file that round-trips exactly.
  const std::string reencoded = snapshot::encode(snap);
  EXPECT_EQ(declared_version(reencoded), snapshot::kSnapshotVersion);
  EXPECT_EQ(snapshot::encode(snapshot::decode(reencoded)), reencoded);
}

TEST_F(SnapshotTest, GoldenVersion6ClassicFixtureResumesExactly) {
  // Written by the last version-6 writer from
  // checkpoint_at(faulted_config(), 6, 1): retry orders are parked, and
  // both an earlier interval and the interval open at the checkpoint moved
  // backhaul bytes. Folding that history into the version-7 summary must
  // resume to the uninterrupted run's exact outputs.
  const std::string bytes = read_fixture("v6_classic.snap");
  ASSERT_EQ(declared_version(bytes), 6u);
  const snapshot::SimSnapshot snap = snapshot::decode(bytes);
  EXPECT_EQ(snap.version, 6u);
  EXPECT_FALSE(snap.retry_orders.empty());
  EXPECT_TRUE(snap.traffic.has_width(snap.caches.size()));
  EXPECT_GT(snap.traffic.busiest_total, 0);
  const RunResult reference = full_run(faulted_config(), 2);
  const RunResult resumed = resume_from(faulted_config(), snap, 2);
  EXPECT_EQ(resumed.metrics_json, reference.metrics_json);
  EXPECT_EQ(resumed.timeseries_csv, reference.timeseries_csv);
}

TEST_F(SnapshotTest, GoldenVersion7ShardFixtureLandsInTheSharedSection) {
  // Written by the last version-7 writer from a journaled sharded run (the
  // ShardSnapshotTest world) stopped after interval 3, whose writer then
  // reported: 71545 bytes, 582 events, next chain 122 and 60 bindings.
  const std::string bytes = read_fixture("v7_shard.snap");
  ASSERT_EQ(declared_version(bytes), 7u);
  const snapshot::SimSnapshot snap = snapshot::decode(bytes);
  EXPECT_TRUE(snap.has_shard);
  EXPECT_TRUE(snap.has_journal);
  EXPECT_EQ(snap.next_interval, 4);
  EXPECT_EQ(snap.journal.bytes, 71545u);
  EXPECT_EQ(snap.journal.events, 582u);
  EXPECT_EQ(snap.journal.next_chain, 122u);
  ASSERT_EQ(snap.journal.client_chains.size(), 60u);
  EXPECT_EQ(snap.journal.client_chains.front(),
            (std::pair<ClientId, std::uint64_t>{0, 82}));
  EXPECT_EQ(snap.journal.client_chains[3],
            (std::pair<ClientId, std::uint64_t>{3, 4}));
  EXPECT_EQ(snap.journal.client_chains.back(),
            (std::pair<ClientId, std::uint64_t>{59, 60}));
  // The re-encode is a version-8 file with the same stream state.
  const std::string reencoded = snapshot::encode(snap);
  EXPECT_EQ(declared_version(reencoded), snapshot::kSnapshotVersion);
  EXPECT_EQ(snapshot::decode(reencoded).journal, snap.journal);
}

TEST_F(SnapshotTest, GoldenVersion7ClassicFixtureResumesOnlyWithoutAJournal) {
  // Written by the last version-7 writer from a journaled
  // checkpoint_at(faulted_config(), 6, 1): its 144 events are inline.
  const std::string bytes = read_fixture("v7_classic.snap");
  ASSERT_EQ(declared_version(bytes), 7u);
  const snapshot::SimSnapshot snap = snapshot::decode(bytes);
  EXPECT_FALSE(snap.has_shard);
  EXPECT_FALSE(snap.has_journal);
  EXPECT_EQ(snap.journal.events, 144u);
  EXPECT_EQ(snap.journal.next_chain, 10u);
  EXPECT_FALSE(snap.retry_orders.empty());

  const RunResult reference = full_run(faulted_config(), 2);
  const RunResult resumed = resume_from(faulted_config(), snap, 2);
  EXPECT_EQ(resumed.metrics_json, reference.metrics_json);
  EXPECT_EQ(resumed.timeseries_csv, reference.timeseries_csv);

  // No stream exists to continue, so a journaling resume is refused.
  SimulationRunOptions options;
  options.resume_from = &snap;
  options.journal_path = case_path(".jsonl");
  EXPECT_THROW(run_simulation(faulted_config(), *world_, nullptr, options),
               snapshot::SnapshotError);
}

TEST_F(SnapshotTest, JournalingResumeNeedsAStreamedJournal) {
  // A checkpoint taken without a journal has no prefix to continue: a
  // journaling resume would write a journal missing it, its chain ids
  // restarting at 1, so it is refused.
  const std::string path = case_path(".jsonl");
  const auto journaling_resume_refused = [&](const snapshot::SimSnapshot& snap) {
    SimulationRunOptions options;
    options.resume_from = &snap;
    options.journal_path = path;
    try {
      run_simulation(faulted_config(), *world_, nullptr, options);
    } catch (const snapshot::SnapshotError&) {
      return true;
    }
    return false;
  };
  EXPECT_TRUE(journaling_resume_refused(checkpoint_at(faulted_config(), 3, 1)));

  // So is one whose journal file no longer holds the checkpoint's bytes.
  const snapshot::SimSnapshot journaled =
      journaled_checkpoint_at(faulted_config(), 3, path);
  ASSERT_GT(journaled.journal.bytes, 0u);
  std::filesystem::resize_file(path, journaled.journal.bytes - 1);
  EXPECT_TRUE(journaling_resume_refused(journaled));
  std::remove(path.c_str());
  EXPECT_TRUE(journaling_resume_refused(journaled));

  // A run that does not journal ignores a journaled checkpoint's stream.
  const RunResult reference = full_run(faulted_config(), 2);
  const RunResult resumed = resume_from(faulted_config(), journaled, 2);
  EXPECT_EQ(resumed.metrics_json, reference.metrics_json);
  EXPECT_EQ(resumed.timeseries_csv, reference.timeseries_csv);
}

TEST_F(SnapshotTest, ClassicResumeRefusesChainsOutsideTheWorld) {
  // The journal writer sizes a vector by client id, so a forged binding is
  // refused before the writer sees it.
  const std::string path = case_path(".jsonl");
  const snapshot::SimSnapshot snap =
      journaled_checkpoint_at(faulted_config(), 3, path);
  ASSERT_FALSE(snap.journal.client_chains.empty());
  for (const ClientId bad :
       {ClientId{-1}, static_cast<ClientId>(world_->test_traces.size())}) {
    snapshot::SimSnapshot forged = snap;
    forged.journal.client_chains.emplace_back(bad, 1);
    SimulationRunOptions options;
    options.resume_from = &forged;
    options.journal_path = path;
    try {
      run_simulation(faulted_config(), *world_, nullptr, options);
      ADD_FAILURE() << "client " << bad << " was accepted";
    } catch (const snapshot::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("outside the world's clients"),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, RestoreRejectsOutOfRangeState) {
  // A checkpoint is outside input: every index it holds is range-checked,
  // and every order and count the run relies on is checked, before the run
  // follows it. Each case corrupts one field, re-encodes (so the checksum
  // is valid) and must be refused with a SnapshotError.
  const SimulationConfig config = faulted_config();
  snapshot::SimSnapshot snap;
  std::size_t cached = 0;
  for (int stop = 4; stop <= 8; ++stop) {
    snap = checkpoint_at(config, stop, 1);
    cached = 0;
    while (cached < snap.caches.size() && snap.caches[cached].empty())
      ++cached;
    if (!snap.retry_orders.empty() && cached < snap.caches.size()) break;
  }
  ASSERT_FALSE(snap.retry_orders.empty());
  ASSERT_LT(cached, snap.caches.size());
  ASSERT_FALSE(snap.retry_orders.front().payload.empty());
  ASSERT_FALSE(snap.caches[cached].front().layers.empty());

  const LayerId bad_layer = world_->model.num_layers();
  const auto bad_client = static_cast<ClientId>(snap.clients.size());
  using Snap = snapshot::SimSnapshot;
  const std::vector<std::pair<const char*, std::function<void(Snap&)>>>
      mutations = {
          {"order source",
           [](Snap& s) { s.retry_orders.front().source = 1 << 20; }},
          {"order target",
           [](Snap& s) { s.retry_orders.front().target = -1; }},
          {"order client",
           [&](Snap& s) { s.retry_orders.front().client = bad_client; }},
          {"order layer",
           [&](Snap& s) {
             s.retry_orders.front().payload.back() = bad_layer;
           }},
          {"order bytes", [](Snap& s) { s.retry_orders.front().bytes = -1; }},
          {"order attempts",
           [](Snap& s) { s.retry_orders.front().attempts = 0; }},
          // A parked order always has an attempt left.
          {"order spent budget",
           [&](Snap& s) {
             s.retry_orders.front().attempts =
                 config.migration_retry.max_attempts;
           }},
          {"cache client",
           [&](Snap& s) { s.caches[cached].front().client = -3; }},
          {"cache layer",
           [&](Snap& s) {
             s.caches[cached].front().layers.back() = bad_layer;
           }},
          // Two entries for one client would restore as one entry holding
          // the bytes of both.
          {"repeated cache client",
           [&](Snap& s) {
             s.caches[cached].insert(s.caches[cached].begin(),
                                     s.caches[cached].front());
           }},
          {"attach count",
           [](Snap& s) {
             s.attached[1] = std::numeric_limits<int>::max();
           }},
          {"pending layer",
           [](Snap& s) { s.clients.front().pending.push_back(-1); }},
          {"traffic peak width",
           [](Snap& s) { s.traffic.peak_uplink.pop_back(); }},
          {"traffic busiest width",
           [](Snap& s) { s.traffic.busiest_downlink.push_back(0); }},
          {"partial timeseries interval",
           [](Snap& s) { s.timeseries_rows.pop_back(); }},
      };
  for (const auto& [what, mutate] : mutations) {
    Snap bad = snap;
    mutate(bad);
    const snapshot::SimSnapshot decoded =
        snapshot::decode(snapshot::encode(bad));
    obs::SimTimeseries timeseries;
    SimulationRunOptions options;
    options.resume_from = &decoded;
    EXPECT_THROW(run_simulation(config, *world_, &timeseries, options),
                 snapshot::SnapshotError)
        << what;
  }
  // The unmutated capture still resumes.
  obs::SimTimeseries timeseries;
  SimulationRunOptions options;
  options.resume_from = &snap;
  EXPECT_NO_THROW(run_simulation(config, *world_, &timeseries, options));
}

/// The sharded world of ShardSnapshotTest, which v7_shard.snap came from.
ShardWorldConfig shard_snapshot_config() {
  ShardWorldConfig config;
  config.model = ModelName::kMobileNet;
  config.tiles_x = 4;
  config.tiles_y = 5;
  config.cell_radius_m = 50.0;
  config.num_clients = 60;
  config.num_intervals = 8;
  config.max_load_level = 6;
  config.seed = 7;
  return config;
}

TEST(ShardSnapshotTest, GoldenVersion7FixtureResumesExactly) {
  // v7_shard.snap stopped after interval 3 of this world. Its fingerprint
  // still matches, and the resumed run ends where an uninterrupted one does.
  const ShardWorld world = build_shard_world(shard_snapshot_config());
  const snapshot::SimSnapshot snap =
      snapshot::decode(read_fixture("v7_shard.snap"));
  ShardRunOptions options;
  options.resume_from = &snap;
  EXPECT_EQ(snapshot::metrics_to_json(run_sharded_simulation(world, options)),
            snapshot::metrics_to_json(run_sharded_simulation(world)));
}

TEST(ShardSnapshotTest, PreVersion7AndMisfitTrafficAreRefused) {
  const ShardWorld world = build_shard_world(shard_snapshot_config());
  const auto resume_error = [&](const snapshot::SimSnapshot& snap) {
    ShardRunOptions options;
    options.resume_from = &snap;
    try {
      run_sharded_simulation(world, options);
    } catch (const snapshot::SnapshotError& e) {
      return std::string(e.what());
    }
    return std::string("resumed");
  };
  // Old sharded files decode but cannot resume, and the error says why.
  for (const auto& [name, version] :
       {std::pair<const char*, int>{"v3.snap", 3}, {"v4_shard.snap", 4}}) {
    const snapshot::SimSnapshot old = snapshot::decode(read_fixture(name));
    ASSERT_TRUE(old.has_shard) << name;
    const std::string error = resume_error(old);
    EXPECT_NE(error.find("version " + std::to_string(version)),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("Mbps"), std::string::npos) << error;
  }

  // A current capture resumes; one whose traffic summary is the wrong
  // width for the world is refused.
  par::set_num_threads(1);
  snapshot::SimSnapshot snap;
  ShardRunOptions stop;
  stop.stop_after_interval = 3;
  stop.capture_out = &snap;
  run_sharded_simulation(world, stop);
  const snapshot::SimSnapshot decoded =
      snapshot::decode(snapshot::encode(snap));
  EXPECT_EQ(decoded.traffic, snap.traffic);
  EXPECT_EQ(resume_error(decoded), "resumed");
  snapshot::SimSnapshot narrow = decoded;
  narrow.traffic.peak_downlink.pop_back();
  EXPECT_NE(resume_error(narrow).find("traffic summary"), std::string::npos);
  par::set_num_threads(0);
}

TEST_F(SnapshotTest, FingerprintMismatchIsRejectedOnResume) {
  const snapshot::SimSnapshot snap = checkpoint_at(*config_, 2, 1);
  SimulationConfig other = *config_;
  other.seed = config_->seed + 1;  // a different scenario
  obs::SimTimeseries timeseries;
  SimulationRunOptions options;
  options.resume_from = &snap;
  EXPECT_THROW(run_simulation(other, *world_, &timeseries, options),
               snapshot::SnapshotError);
  EXPECT_NE(snapshot::config_fingerprint(other, *world_),
            snap.config_fingerprint);
}

TEST_F(SnapshotTest, FingerprintIgnoresPerformanceKnobs) {
  // Thread count is byte-identity-neutral, so it must not be part of the
  // fingerprint: a checkpoint taken at 8 threads resumes at 1.
  const std::uint64_t fp = snapshot::config_fingerprint(*config_, *world_);
  par::set_num_threads(8);
  EXPECT_EQ(snapshot::config_fingerprint(*config_, *world_), fp);
  SimulationConfig tweaked = *config_;
  tweaked.ttl_intervals += 1;
  EXPECT_NE(snapshot::config_fingerprint(tweaked, *world_), fp);
}

TEST_F(SnapshotTest, FingerprintsKeepTheirValues) {
  // A fingerprint travels in every checkpoint on disk, so the hasher behind
  // both engines' fingerprints must keep their values: a faulted, budgeted
  // classic scenario and a faulted, budgeted, crowded shard config, each
  // pinned, both with a fault plan so the string mix is covered too.
  SimulationConfig config = faulted_config();
  config.cache_budget_bytes = 3 << 20;
  EXPECT_EQ(snapshot::config_fingerprint(config, *world_),
            0xbaa40b1d9bef3fa4ULL);

  ShardWorldConfig shard;
  shard.model = ModelName::kMobileNet;
  shard.tiles_x = 4;
  shard.tiles_y = 5;
  shard.num_clients = 60;
  shard.num_intervals = 10;
  shard.offline_probability = 0.05;
  shard.seed = 7;
  shard.admission_max_attached = 7;
  shard.flash_crowd_tiles = 2;
  shard.flash_crowd_multiplier = 8.0;
  shard.cache_budget_bytes = 1 << 20;
  shard.fault_plan = FaultPlan({
      {.kind = FaultKind::kServerCrash,
       .at_interval = 3,
       .duration_intervals = 2,
       .server = 2},
      {.kind = FaultKind::kBackhaulDegrade,
       .at_interval = 1,
       .duration_intervals = 2,
       .server = 1,
       .peer = kAllServers,
       .severity = 0.6},
  });
  EXPECT_EQ(shard_config_fingerprint(shard), 0xcd24a9ef64b3d056ULL);
}

TEST_F(SnapshotTest, PeriodicCheckpointingIsOutputNeutral) {
  const RunResult reference = full_run(*config_, 2);
  par::set_num_threads(2);
  obs::SimTimeseries timeseries;
  const std::string path =
      ::testing::TempDir() + "perdnn_snapshot_periodic.ckpt";
  SimulationRunOptions options;
  options.checkpoint_every = 3;
  options.checkpoint_path = path;
  const SimulationMetrics metrics =
      run_simulation(*config_, *world_, &timeseries, options);
  std::ostringstream csv;
  timeseries.write_csv(csv);
  EXPECT_EQ(snapshot::metrics_to_json(metrics), reference.metrics_json);
  EXPECT_EQ(csv.str(), reference.timeseries_csv);
  // The last periodic checkpoint is on disk and loadable.
  const snapshot::SimSnapshot last = snapshot::load(path);
  EXPECT_EQ(last.num_intervals, metrics.num_intervals);
  EXPECT_LT(last.next_interval, last.num_intervals);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace perdnn
