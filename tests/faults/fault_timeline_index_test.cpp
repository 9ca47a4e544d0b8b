// Checks the FaultTimeline cursor against a brute-force scan of the plan:
// after advance(t), every per-entity flag, the backhaul activity, every
// link's capacity factor, the crash/disconnect starts and the boundary
// journal records equal what a scan of the windows [at, at + duration)
// yields at t. A cursor rebuilt with seek(t); advance(t) — what a resumed
// run does — must land in the same state as the straight walk at every t.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_plan.hpp"
#include "faults/fault_timeline.hpp"

namespace perdnn {
namespace {

bool active(const FaultEvent& e, int t) {
  return e.at_interval <= t && t < e.at_interval + e.duration_intervals;
}

bool any_active(const FaultPlan& plan, FaultKind kind, std::int32_t id,
                int t) {
  for (const FaultEvent& e : plan.events()) {
    if (e.kind != kind || !active(e, t)) continue;
    const std::int32_t who =
        kind == FaultKind::kClientDisconnect ? e.client : e.server;
    if (who == id) return true;
  }
  return false;
}

// Links are unordered: an event covers a-b when one endpoint is its server
// and it names the other endpoint or every link.
bool covers(const FaultEvent& e, ServerId a, ServerId b) {
  const auto names = [&e](ServerId peer) {
    return e.peer == kAllServers || e.peer == peer;
  };
  return (e.server == a && names(b)) || (e.server == b && names(a));
}

double oracle_factor(const FaultPlan& plan, ServerId a, ServerId b, int t) {
  double factor = 1.0;
  for (const FaultEvent& e : plan.events())
    if (e.kind == FaultKind::kBackhaulDegrade && active(e, t) &&
        covers(e, a, b))
      factor = std::min(factor, 1.0 - e.severity);
  return factor;
}

std::vector<std::int32_t> oracle_starts(const FaultPlan& plan, FaultKind kind,
                                        int t) {
  std::vector<std::int32_t> ids;
  for (const FaultEvent& e : plan.events())
    if (e.kind == kind && e.at_interval == t)
      ids.push_back(kind == FaultKind::kClientDisconnect ? e.client
                                                         : e.server);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

// Reference journal order: one pass over the plan in event order, a
// kFaultApplied where a window opens and a kFaultCleared where it closes.
std::vector<obs::JournalEvent> oracle_boundaries(const FaultPlan& plan,
                                                 int t) {
  std::vector<obs::JournalEvent> out;
  for (const FaultEvent& ev : plan.events()) {
    const auto code = static_cast<std::int32_t>(ev.kind);
    if (ev.at_interval == t)
      out.push_back({.interval = t,
                     .kind = obs::JournalEventKind::kFaultApplied,
                     .client = ev.client,
                     .server = ev.server,
                     .peer = ev.peer,
                     .detail = code,
                     .aux = ev.duration_intervals,
                     .value = ev.severity});
    if (ev.at_interval + ev.duration_intervals == t)
      out.push_back({.interval = t,
                     .kind = obs::JournalEventKind::kFaultCleared,
                     .client = ev.client,
                     .server = ev.server,
                     .peer = ev.peer,
                     .detail = code});
  }
  return out;
}

// Every state query of the cursor at its current interval.
void expect_same_state(const FaultTimeline& a, const FaultTimeline& b,
                       int num_servers, int num_clients) {
  for (ServerId s = 0; s < num_servers; ++s) {
    EXPECT_EQ(a.server_down(s), b.server_down(s)) << "server " << s;
    EXPECT_EQ(a.telemetry_down(s), b.telemetry_down(s)) << "server " << s;
    for (ServerId peer = 0; peer < num_servers; ++peer)
      EXPECT_EQ(a.backhaul_factor(s, peer), b.backhaul_factor(s, peer))
          << "link " << s << "-" << peer;
  }
  for (ClientId c = 0; c < num_clients; ++c)
    EXPECT_EQ(a.client_offline(c), b.client_offline(c)) << "client " << c;
  EXPECT_EQ(a.backhaul_active(), b.backhaul_active());
}

// Walks every interval (a few past the plan's end, so closing edges are
// exercised) and cross-checks the cursor against the brute-force scan.
void check_against_scan(const FaultPlan& plan, int num_servers,
                        int num_clients, int num_intervals) {
  FaultTimeline timeline(plan, num_servers, num_clients);
  for (int t = 0; t < num_intervals + 8; ++t) {
    SCOPED_TRACE("interval " + std::to_string(t));
    timeline.advance(t);
    for (ServerId s = 0; s < num_servers; ++s) {
      EXPECT_EQ(timeline.server_down(s),
                any_active(plan, FaultKind::kServerCrash, s, t))
          << "server " << s;
      EXPECT_EQ(timeline.telemetry_down(s),
                any_active(plan, FaultKind::kTelemetryDropout, s, t))
          << "server " << s;
      for (ServerId peer = 0; peer < num_servers; ++peer) {
        if (peer == s) continue;
        EXPECT_DOUBLE_EQ(timeline.backhaul_factor(s, peer),
                         oracle_factor(plan, s, peer, t))
            << "link " << s << "-" << peer;
      }
    }
    for (ClientId c = 0; c < num_clients; ++c)
      EXPECT_EQ(timeline.client_offline(c),
                any_active(plan, FaultKind::kClientDisconnect, c, t))
          << "client " << c;
    bool backhaul = false;
    for (const FaultEvent& e : plan.events())
      backhaul |= e.kind == FaultKind::kBackhaulDegrade && active(e, t);
    EXPECT_EQ(timeline.backhaul_active(), backhaul);
    EXPECT_EQ(timeline.crashes_starting_at(t),
              oracle_starts(plan, FaultKind::kServerCrash, t));
    EXPECT_EQ(timeline.disconnects_starting_at(t),
              oracle_starts(plan, FaultKind::kClientDisconnect, t));
    EXPECT_EQ(timeline.boundary_events(t), oracle_boundaries(plan, t));

    // A resumed run rebuilds the cursor from scratch at t.
    FaultTimeline resumed(plan, num_servers, num_clients);
    resumed.seek(t);
    resumed.advance(t);
    expect_same_state(resumed, timeline, num_servers, num_clients);
  }
}

TEST(FaultTimelineIndex, MatchesWindowQueriesOnRandomSchedule) {
  RandomFaultConfig config;
  config.seed = 1234;
  config.num_servers = 30;
  config.num_clients = 200;
  config.num_intervals = 40;
  config.server_crash_rate = 0.02;
  config.crash_downtime_intervals = 5;
  config.backhaul_degrade_rate = 0.015;
  config.backhaul_outage_intervals = 3;
  config.backhaul_severity = 0.6;
  config.telemetry_dropout_rate = 0.02;
  config.telemetry_dropout_intervals = 6;
  config.client_disconnect_rate = 0.01;
  config.client_disconnect_intervals = 4;

  // The random schedule scripts wildcard links only; add overlapping pair
  // events so both link shapes meet the oracle.
  std::vector<FaultEvent> events = FaultPlan::random_schedule(config).events();
  ASSERT_FALSE(events.empty()) << "random schedule produced no events — the "
                                  "check would be vacuous";
  for (int i = 0; i < 12; ++i)
    events.push_back({.kind = FaultKind::kBackhaulDegrade,
                      .at_interval = 3 * i,
                      .duration_intervals = 2 + i % 5,
                      .server = static_cast<ServerId>((7 * i) % 30),
                      .peer = static_cast<ServerId>((7 * i + 1 + i % 3) % 30),
                      .severity = 0.1 * static_cast<double>(1 + i % 10)});
  const FaultPlan plan{std::move(events)};
  check_against_scan(plan, config.num_servers, config.num_clients,
                     config.num_intervals);
}

TEST(FaultTimelineIndex, OverlappingWindowsUnionViaCounts) {
  // Two crash windows on the same server overlap: [2,6) and [4,9). The
  // cursor must report the union [2,9), not toggle off at the first
  // window's end. Same shape for telemetry, disconnects, and backhaul.
  std::vector<FaultEvent> events;
  events.push_back({.kind = FaultKind::kServerCrash,
                    .at_interval = 2,
                    .duration_intervals = 4,
                    .server = 1});
  events.push_back({.kind = FaultKind::kServerCrash,
                    .at_interval = 4,
                    .duration_intervals = 5,
                    .server = 1});
  events.push_back({.kind = FaultKind::kTelemetryDropout,
                    .at_interval = 0,
                    .duration_intervals = 3,
                    .server = 0});
  events.push_back({.kind = FaultKind::kTelemetryDropout,
                    .at_interval = 1,
                    .duration_intervals = 1,
                    .server = 0});
  events.push_back({.kind = FaultKind::kClientDisconnect,
                    .at_interval = 3,
                    .duration_intervals = 2,
                    .client = 2});
  events.push_back({.kind = FaultKind::kClientDisconnect,
                    .at_interval = 4,
                    .duration_intervals = 4,
                    .client = 2});
  events.push_back({.kind = FaultKind::kBackhaulDegrade,
                    .at_interval = 1,
                    .duration_intervals = 4,
                    .server = 0,
                    .peer = kAllServers,
                    .severity = 0.5});
  events.push_back({.kind = FaultKind::kBackhaulDegrade,
                    .at_interval = 3,
                    .duration_intervals = 5,
                    .server = 1,
                    .peer = 2,
                    .severity = 1.0});

  const FaultPlan plan{std::move(events)};
  check_against_scan(plan, /*num_servers=*/3, /*num_clients=*/4, 10);

  // Spot-check the union semantics directly.
  FaultTimeline timeline(plan, 3, 4);
  const auto at = [&timeline](int t) -> const FaultTimeline& {
    timeline.advance(t);
    return timeline;
  };
  EXPECT_FALSE(at(1).server_down(1));
  EXPECT_TRUE(at(4).client_offline(2));
  EXPECT_TRUE(at(5).server_down(1));   // inside both windows
  EXPECT_TRUE(at(7).server_down(1));   // only the second window
  EXPECT_TRUE(timeline.client_offline(2));
  EXPECT_FALSE(at(8).client_offline(2));
  EXPECT_FALSE(at(9).server_down(1));  // exclusive end
}

TEST(FaultTimelineIndex, EmptyTimelineHasNoEdges) {
  FaultTimeline timeline;
  EXPECT_TRUE(timeline.empty());
  for (int t = 0; t < 4; ++t) {
    timeline.advance(t);
    EXPECT_TRUE(timeline.boundary_events(t).empty());
    EXPECT_TRUE(timeline.crashes_starting_at(t).empty());
    EXPECT_TRUE(timeline.disconnects_starting_at(t).empty());
    EXPECT_FALSE(timeline.server_down(0));
    EXPECT_FALSE(timeline.telemetry_down(0));
    EXPECT_FALSE(timeline.client_offline(0));
    EXPECT_FALSE(timeline.backhaul_active());
    EXPECT_DOUBLE_EQ(timeline.backhaul_factor(0, 1), 1.0);
  }
  // A plan with no events compiles to the same empty timeline.
  const FaultTimeline compiled(FaultPlan{}, 3, 5);
  EXPECT_TRUE(compiled.empty());
  EXPECT_TRUE(compiled.boundary_events(0).empty());
}

}  // namespace
}  // namespace perdnn
