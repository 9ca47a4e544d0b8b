#include "faults/fault_plan.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/fault_timeline.hpp"

namespace perdnn {
namespace {

FaultEvent crash(ServerId server, int at, int duration) {
  return {.kind = FaultKind::kServerCrash,
          .at_interval = at,
          .duration_intervals = duration,
          .server = server};
}

TEST(FaultPlanTest, ValidatesEventsOnConstruction) {
  EXPECT_THROW(FaultPlan({crash(0, -1, 2)}), std::logic_error);
  EXPECT_THROW(FaultPlan({crash(0, 3, 0)}), std::logic_error);
  EXPECT_THROW(FaultPlan({crash(kNoServer, 3, 2)}), std::logic_error);
  EXPECT_THROW(FaultPlan({{.kind = FaultKind::kClientDisconnect,
                           .at_interval = 0,
                           .client = -1}}),
               std::logic_error);
  EXPECT_THROW(FaultPlan({{.kind = FaultKind::kBackhaulDegrade,
                           .at_interval = 0,
                           .server = 1,
                           .peer = 1}}),
               std::logic_error);
  EXPECT_THROW(FaultPlan({{.kind = FaultKind::kBackhaulDegrade,
                           .at_interval = 0,
                           .server = 1,
                           .peer = 2,
                           .severity = 1.5}}),
               std::logic_error);
  EXPECT_NO_THROW(FaultPlan({crash(0, 0, 1)}));
}

TEST(FaultPlanTest, SortsEventsCanonically) {
  const FaultPlan plan({crash(2, 5, 1), crash(1, 5, 1), crash(0, 2, 3)});
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0], crash(0, 2, 3));
  EXPECT_EQ(plan.events()[1], crash(1, 5, 1));
  EXPECT_EQ(plan.events()[2], crash(2, 5, 1));

  // The same event set in any order yields an identical plan.
  const FaultPlan shuffled({crash(1, 5, 1), crash(0, 2, 3), crash(2, 5, 1)});
  EXPECT_EQ(plan.events(), shuffled.events());
}

TEST(FaultPlanTest, JsonRoundTripsExactly) {
  const FaultPlan plan({
      crash(3, 2, 4),
      {.kind = FaultKind::kBackhaulDegrade,
       .at_interval = 1,
       .duration_intervals = 6,
       .server = 0,
       .peer = 2,
       .severity = 0.75},
      {.kind = FaultKind::kBackhaulDegrade,
       .at_interval = 4,
       .duration_intervals = 2,
       .server = 1,
       .peer = kAllServers,
       .severity = 1.0},
      {.kind = FaultKind::kTelemetryDropout,
       .at_interval = 0,
       .duration_intervals = 8,
       .server = 2},
      {.kind = FaultKind::kClientDisconnect,
       .at_interval = 5,
       .duration_intervals = 3,
       .client = 7},
  });
  const FaultPlan reparsed = FaultPlan::from_json(plan.to_json());
  EXPECT_EQ(plan.events(), reparsed.events());
  // Serialisation is canonical: round-tripping is a fixed point.
  EXPECT_EQ(plan.to_json(), reparsed.to_json());
}

TEST(FaultPlanTest, FromJsonRejectsUnknownMembersAndKinds) {
  EXPECT_THROW(FaultPlan::from_json("{}"), std::logic_error);
  EXPECT_THROW(
      FaultPlan::from_json(
          R"({"events":[{"kind":"meteor_strike","at":0,"server":0}]})"),
      std::logic_error);
  EXPECT_THROW(
      FaultPlan::from_json(
          R"({"events":[{"kind":"server_crash","at":0,"server":0,"x":1}]})"),
      std::logic_error);
  EXPECT_THROW(FaultPlan::from_json(R"({"events":[{"at":0,"server":0}]})"),
               std::logic_error);
  const FaultPlan ok = FaultPlan::from_json(
      R"({"events":[{"kind":"server_crash","at":3,"duration":2,"server":1}]})");
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok.events()[0], crash(1, 3, 2));
}

TEST(FaultPlanTest, FromJsonRejectsMalformedNumbers) {
  const auto parse = [](const std::string& event) {
    return FaultPlan::from_json(R"({"events":[)" + event + "]}");
  };
  // Out of int range: the cast would be undefined.
  EXPECT_THROW(parse(R"({"kind":"server_crash","at":1e300,"server":0})"),
               std::logic_error);
  EXPECT_THROW(
      parse(R"({"kind":"server_crash","at":0,"duration":-1e12,"server":0})"),
      std::logic_error);
  EXPECT_THROW(parse(R"({"kind":"client_disconnect","at":0,"client":3e9})"),
               std::logic_error);
  // Fractional: the cast would silently truncate.
  EXPECT_THROW(parse(R"({"kind":"server_crash","at":2.9,"server":1})"),
               std::logic_error);
  EXPECT_THROW(parse(R"({"kind":"server_crash","at":2,"server":1.5})"),
               std::logic_error);
  EXPECT_THROW(
      parse(R"({"kind":"backhaul_degrade","at":0,"server":0,"peer":0.5})"),
      std::logic_error);
  // A window whose end overflows int.
  EXPECT_THROW(
      parse(R"({"kind":"server_crash","at":2147483646,"duration":5,"server":0})"),
      std::logic_error);
  // Not JSON at all.
  EXPECT_THROW(FaultPlan::from_json(R"({"events":[{"kind":)"),
               std::exception);

  // Integral doubles inside int range decode exactly.
  const FaultPlan ok = parse(
      R"({"kind":"server_crash","at":2147483646,"duration":1,"server":4.0})");
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok.events()[0], crash(4, 2147483646, 1));
}

TEST(FaultPlanTest, RejectsWindowsEndingPastIntMax) {
  const int last = std::numeric_limits<int>::max();
  EXPECT_THROW(FaultPlan({crash(0, last - 1, 5)}), std::logic_error);
  EXPECT_THROW(FaultPlan({crash(0, last, 1)}), std::logic_error);
  EXPECT_NO_THROW(FaultPlan({crash(0, last - 1, 1)}));
  EXPECT_NO_THROW(FaultPlan({crash(0, 0, last)}));
}

TEST(FaultPlanTest, CheckBoundsNamesOffendingEvent) {
  const FaultPlan plan({crash(5, 0, 1)});
  EXPECT_NO_THROW(plan.check_bounds(6, 0));
  EXPECT_THROW(plan.check_bounds(5, 0), std::logic_error);
  const FaultPlan churn({{.kind = FaultKind::kClientDisconnect,
                          .at_interval = 0,
                          .client = 3}});
  EXPECT_NO_THROW(churn.check_bounds(1, 4));
  EXPECT_THROW(churn.check_bounds(1, 3), std::logic_error);
}

TEST(FaultPlanTest, LegacyCrashesMatchesHistoricalRecursion) {
  // rate 1.0: every server crashes at interval 0, stays down for the
  // downtime, and crashes again the moment it recovers — the exact shape of
  // the old inject_failures loop.
  const FaultPlan plan = FaultPlan::legacy_crashes(
      /*failure_rate=*/1.0, /*downtime_intervals=*/3, /*num_servers=*/2,
      /*num_intervals=*/7, /*seed=*/9);
  std::vector<FaultEvent> expected;
  for (int at : {0, 3, 6})
    for (ServerId s : {0, 1}) expected.push_back(crash(s, at, 3));
  EXPECT_EQ(plan.events(), FaultPlan(expected).events());

  // Seeded: the same knobs replay the same schedule; rate 0 is empty.
  EXPECT_EQ(FaultPlan::legacy_crashes(0.3, 2, 4, 50, 7).to_json(),
            FaultPlan::legacy_crashes(0.3, 2, 4, 50, 7).to_json());
  EXPECT_TRUE(FaultPlan::legacy_crashes(0.0, 3, 4, 50, 7).empty());

  // A down server draws nothing: no crash window ever overlaps another on
  // the same server.
  const FaultPlan dense = FaultPlan::legacy_crashes(0.5, 4, 3, 100, 11);
  std::vector<int> last_end(3, 0);
  for (const FaultEvent& e : dense.events()) {
    EXPECT_GE(e.at_interval, last_end[static_cast<std::size_t>(e.server)]);
    last_end[static_cast<std::size_t>(e.server)] =
        e.at_interval + e.duration_intervals;
  }
}

TEST(FaultPlanTest, RandomScheduleIsSeededAndBounded) {
  RandomFaultConfig config;
  config.seed = 13;
  config.num_servers = 6;
  config.num_clients = 10;
  config.num_intervals = 80;
  config.server_crash_rate = 0.05;
  config.backhaul_degrade_rate = 0.05;
  config.telemetry_dropout_rate = 0.05;
  config.client_disconnect_rate = 0.05;
  const FaultPlan a = FaultPlan::random_schedule(config);
  const FaultPlan b = FaultPlan::random_schedule(config);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.events(), b.events());
  EXPECT_NO_THROW(a.check_bounds(config.num_servers, config.num_clients));

  config.seed = 14;
  EXPECT_NE(FaultPlan::random_schedule(config).to_json(), a.to_json());

  RandomFaultConfig quiet = config;
  quiet.server_crash_rate = 0.0;
  quiet.backhaul_degrade_rate = 0.0;
  quiet.telemetry_dropout_rate = 0.0;
  quiet.client_disconnect_rate = 0.0;
  EXPECT_TRUE(FaultPlan::random_schedule(quiet).empty());

  EXPECT_THROW(
      [] {
        RandomFaultConfig bad;
        bad.num_servers = 2;
        bad.num_intervals = 5;
        bad.server_crash_rate = 1.5;
        return FaultPlan::random_schedule(bad);
      }(),
      std::logic_error);
}

TEST(FaultTimelineTest, AnswersPerIntervalQueries) {
  const FaultPlan plan({
      crash(1, 3, 4),  // down during [3, 7)
      {.kind = FaultKind::kBackhaulDegrade,
       .at_interval = 2,
       .duration_intervals = 3,
       .server = 0,
       .peer = 2,
       .severity = 0.6},
      {.kind = FaultKind::kBackhaulDegrade,
       .at_interval = 2,
       .duration_intervals = 3,
       .server = 0,
       .peer = kAllServers,
       .severity = 0.25},
      {.kind = FaultKind::kTelemetryDropout,
       .at_interval = 1,
       .duration_intervals = 2,
       .server = 2},
      {.kind = FaultKind::kClientDisconnect,
       .at_interval = 4,
       .duration_intervals = 2,
       .client = 0},
  });
  FaultTimeline timeline(plan, /*num_servers=*/3, /*num_clients=*/2);
  EXPECT_EQ(timeline.crashes_starting_at(3), std::vector<ServerId>{1});
  EXPECT_TRUE(timeline.crashes_starting_at(4).empty());
  EXPECT_EQ(timeline.disconnects_starting_at(4), std::vector<ClientId>{0});

  for (int t = 0; t < 9; ++t) {
    SCOPED_TRACE("interval " + std::to_string(t));
    timeline.advance(t);
    EXPECT_EQ(timeline.server_down(1), t >= 3 && t < 7);
    EXPECT_FALSE(timeline.server_down(0));
    EXPECT_EQ(timeline.telemetry_down(2), t >= 1 && t < 3);
    EXPECT_FALSE(timeline.telemetry_down(0));
    EXPECT_EQ(timeline.client_offline(0), t >= 4 && t < 6);
    EXPECT_FALSE(timeline.client_offline(1));

    // Worst overlapping event wins; the wildcard covers every link of 0 in
    // both directions; the pair event covers its link from either side.
    const bool degraded = t >= 2 && t < 5;
    EXPECT_EQ(timeline.backhaul_active(), degraded);
    EXPECT_DOUBLE_EQ(timeline.backhaul_factor(0, 2), degraded ? 0.4 : 1.0);
    EXPECT_DOUBLE_EQ(timeline.backhaul_factor(2, 0), degraded ? 0.4 : 1.0);
    EXPECT_DOUBLE_EQ(timeline.backhaul_factor(0, 1), degraded ? 0.75 : 1.0);
    EXPECT_DOUBLE_EQ(timeline.backhaul_factor(1, 0),
                     timeline.backhaul_factor(0, 1));
    EXPECT_DOUBLE_EQ(timeline.backhaul_factor(1, 2), 1.0);
  }

  // Empty timelines answer "healthy" everywhere.
  FaultTimeline empty;
  empty.advance(0);
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.server_down(0));
  EXPECT_DOUBLE_EQ(empty.backhaul_factor(0, 1), 1.0);
  EXPECT_TRUE(empty.crashes_starting_at(0).empty());

  EXPECT_THROW(FaultTimeline(plan, 2, 2), std::logic_error);
  EXPECT_THROW(FaultTimeline(plan, 3, 0), std::logic_error);
}

TEST(FaultTimelineTest, AdvanceClearsTheSharedLinkLedger) {
  const FaultPlan plan({{.kind = FaultKind::kBackhaulDegrade,
                         .at_interval = 0,
                         .duration_intervals = 4,
                         .server = 0,
                         .peer = 1,
                         .severity = 0.5}});
  FaultTimeline timeline(plan, /*num_servers=*/3, /*num_clients=*/0);
  timeline.advance(0);
  // Both directions of a link draw on one capacity entry.
  timeline.link_used(0, 1) += 100;
  EXPECT_EQ(timeline.link_used(1, 0), 100);
  timeline.link_used(1, 0) += 50;
  EXPECT_EQ(timeline.link_used(0, 1), 150);
  EXPECT_EQ(timeline.link_used(0, 2), 0);

  // Capacity is per interval: the next advance (or a resume) starts empty.
  timeline.advance(1);
  EXPECT_EQ(timeline.link_used(0, 1), 0);
  timeline.link_used(1, 0) += 7;
  timeline.seek(1);
  EXPECT_EQ(timeline.link_used(0, 1), 0);
}

}  // namespace
}  // namespace perdnn
