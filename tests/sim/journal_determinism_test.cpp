// Tier-1 determinism gate for the classic engine's streamed event journal:
// the same seeded simulation must journal byte-identical files at --threads
// 1, 2 and 8 and across a checkpoint/resume split — and enabling the
// journal must not perturb the simulation itself.
// Also covers the causal-chain contract: every chain reconstructs a
// client's full attach -> plan -> upload -> serve/fallback path, asserted
// against one known scripted-fault scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "faults/fault_plan.hpp"
#include "mobility/trace_gen.hpp"
#include "obs/journal.hpp"
#include "obs/timeseries.hpp"
#include "sim/simulator.hpp"
#include "snapshot/snapshot.hpp"

namespace perdnn {
namespace {

using obs::JournalEvent;
using obs::JournalEventKind;

class JournalDeterminismTest : public ::testing::Test {
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

  /// The scripted scenario the chain-reconstruction assertions key on: a
  /// crash, a total wildcard backhaul outage, a telemetry dropout, and
  /// client 1 disconnecting at interval 4 for 2 intervals.
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

  /// The journal file, named per test case: ctest runs each case as its own
  /// process, so one shared name would race under `ctest -j`.
  static std::string jr_path() {
    return ::testing::TempDir() +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_journal.jsonl";
  }

  static std::string slurp_journal() {
    std::ifstream in(jr_path(), std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  static std::string journal_jsonl(const SimulationConfig& config,
                                   int threads) {
    par::set_num_threads(threads);
    SimulationRunOptions options;
    options.journal_path = jr_path();
    run_simulation(config, *world_, nullptr, options);
    return slurp_journal();
  }

  static std::vector<JournalEvent> journal_events(
      const SimulationConfig& config) {
    return obs::journal_from_jsonl(journal_jsonl(config, 2));
  }

  static SimulationConfig* config_;
  static SimulationWorld* world_;
};

SimulationConfig* JournalDeterminismTest::config_ = nullptr;
SimulationWorld* JournalDeterminismTest::world_ = nullptr;

TEST_F(JournalDeterminismTest, ByteIdenticalAcrossThreadsAndFastpath) {
  const std::string reference = journal_jsonl(*config_, 1);
  ASSERT_FALSE(reference.empty());
  for (const int threads : {1, 2, 8}) {
    EXPECT_EQ(journal_jsonl(*config_, threads), reference)
        << "threads=" << threads;
  }
}

TEST_F(JournalDeterminismTest, FaultPlanJournalIsDeterministic) {
  const SimulationConfig config = faulted_config();
  const std::string reference = journal_jsonl(config, 1);
  ASSERT_FALSE(reference.empty());
  for (const int threads : {2, 8}) {
    EXPECT_EQ(journal_jsonl(config, threads), reference)
        << "threads=" << threads;
  }
}

TEST_F(JournalDeterminismTest, ResumeSplitJournalEqualsUninterrupted) {
  const SimulationConfig config = faulted_config();
  const std::string reference = journal_jsonl(config, 2);

  // First leg: run to an interval boundary, capturing the snapshot (which
  // carries the journal's offset and chain state, not its events).
  par::set_num_threads(2);
  snapshot::SimSnapshot snap;
  {
    SimulationRunOptions options;
    options.journal_path = jr_path();
    options.stop_after_interval = 4;
    options.capture_out = &snap;
    run_simulation(config, *world_, nullptr, options);
    ASSERT_TRUE(snap.has_journal);
    ASSERT_GT(snap.journal.events, 0u);
    EXPECT_EQ(snap.journal.bytes, slurp_journal().size());
    EXPECT_EQ(slurp_journal(), reference.substr(0, snap.journal.bytes));
  }

  // Second leg: resume into the same file at every thread count, each time
  // truncating it back to the checkpoint; the final stream must match byte
  // for byte, with no checkpoint marker in it.
  for (const int threads : {1, 2, 8}) {
    par::set_num_threads(threads);
    SimulationRunOptions options;
    options.journal_path = jr_path();
    options.resume_from = &snap;
    run_simulation(config, *world_, nullptr, options);
    EXPECT_EQ(slurp_journal(), reference) << "threads=" << threads;
  }
  EXPECT_EQ(reference.find("checkpoint_"), std::string::npos);
}

TEST_F(JournalDeterminismTest, JournalingDoesNotPerturbTheSimulation) {
  par::set_num_threads(2);
  obs::SimTimeseries with_ts, without_ts;
  SimulationRunOptions options;
  options.journal_path = jr_path();
  const SimulationMetrics with =
      run_simulation(*config_, *world_, &with_ts, options);
  const SimulationMetrics without =
      run_simulation(*config_, *world_, &without_ts, {});
  EXPECT_FALSE(slurp_journal().empty());
  EXPECT_EQ(with.cold_window_queries, without.cold_window_queries);
  EXPECT_EQ(with.hits, without.hits);
  EXPECT_EQ(with.misses, without.misses);
  EXPECT_EQ(with.server_changes, without.server_changes);
  EXPECT_EQ(with.total_migrated_bytes, without.total_migrated_bytes);
  std::ostringstream csv_with, csv_without;
  with_ts.write_csv(csv_with);
  without_ts.write_csv(csv_without);
  EXPECT_EQ(csv_with.str(), csv_without.str());
}

TEST_F(JournalDeterminismTest, EveryChainReconstructsAnAttachPath) {
  std::map<std::uint64_t, std::vector<const JournalEvent*>> chains;
  const std::vector<JournalEvent> events = journal_events(faulted_config());
  for (const JournalEvent& e : events)
    if (e.chain != 0) chains[e.chain].push_back(&e);
  ASSERT_FALSE(chains.empty());

  for (const auto& [chain, seq] : chains) {
    // A chain opens with the attach that created it, stays on one client,
    // and never runs backwards in sim time.
    EXPECT_EQ(seq.front()->kind, JournalEventKind::kAttach)
        << "chain " << chain;
    const ClientId client = seq.front()->client;
    int prev_interval = seq.front()->interval;
    bool planned = false;
    for (const JournalEvent* e : seq) {
      if (e->client >= 0) {
        EXPECT_EQ(e->client, client) << "chain " << chain;
      }
      EXPECT_GE(e->interval, prev_interval) << "chain " << chain;
      prev_interval = e->interval;
      planned |= e->kind == JournalEventKind::kPlan ||
                 e->kind == JournalEventKind::kDegradedPlan;
    }
    EXPECT_TRUE(planned) << "chain " << chain << " never planned an upload";
  }
}

TEST_F(JournalDeterminismTest, ScriptedFaultScenarioReconstructs) {
  const std::vector<JournalEvent> events = journal_events(faulted_config());

  // The scripted client disconnect is journalled: fault_applied at
  // interval 4 for client 1, and client 1's open chain records the
  // detach with the disconnect reason at the same interval.
  const auto applied = std::find_if(
      events.begin(), events.end(), [](const JournalEvent& e) {
        return e.kind == JournalEventKind::kFaultApplied &&
               e.detail == obs::kFaultClientDisconnect;
      });
  ASSERT_NE(applied, events.end());
  EXPECT_EQ(applied->interval, 4);
  EXPECT_EQ(applied->client, 1);

  const auto detach = std::find_if(
      events.begin(), events.end(), [](const JournalEvent& e) {
        return e.kind == JournalEventKind::kDetach && e.client == 1 &&
               e.detail == obs::kDetachDisconnect;
      });
  ASSERT_NE(detach, events.end());
  EXPECT_EQ(detach->interval, 4);
  EXPECT_NE(detach->chain, 0u);

  // That chain is a complete attach -> plan -> serve prefix ending in the
  // disconnect: reconstructing it tells the whole story of the dip.
  std::vector<const JournalEvent*> chain;
  for (const JournalEvent& e : events)
    if (e.chain == detach->chain) chain.push_back(&e);
  ASSERT_GE(chain.size(), 3u);
  EXPECT_EQ(chain.front()->kind, JournalEventKind::kAttach);
  EXPECT_TRUE(std::any_of(chain.begin(), chain.end(), [](const auto* e) {
    return e->kind == JournalEventKind::kPlan ||
           e->kind == JournalEventKind::kDegradedPlan;
  }));
  EXPECT_TRUE(std::any_of(chain.begin(), chain.end(), [](const auto* e) {
    return e->kind == JournalEventKind::kColdServe;
  }));

  // The server crash is journalled with its clear, 3 intervals later.
  const auto crash = std::find_if(
      events.begin(), events.end(), [](const JournalEvent& e) {
        return e.kind == JournalEventKind::kFaultApplied &&
               e.detail == obs::kFaultServerCrash;
      });
  ASSERT_NE(crash, events.end());
  EXPECT_EQ(crash->interval, 2);
  EXPECT_EQ(crash->server, 0);
  EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                          [](const JournalEvent& e) {
                            return e.kind == JournalEventKind::kFaultCleared &&
                                   e.detail == obs::kFaultServerCrash &&
                                   e.interval == 5;
                          }));
}

}  // namespace
}  // namespace perdnn
