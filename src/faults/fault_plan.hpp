// Deterministic, scripted fault injection (the robustness counterpart of the
// paper's Section 4.B failure discussion).
//
// A FaultPlan is a validated, time-sorted list of typed fault events:
//
//   * kServerCrash       — an edge server goes down for a window: its layer
//                          cache is lost and its clients are dropped;
//   * kBackhaulDegrade   — the backhaul link between a server pair loses a
//                          fraction of its capacity (severity 1.0 = outage);
//                          `peer == kAllServers` degrades every link of the
//                          named server (an uplink failure at that site);
//   * kTelemetryDropout  — GPU statistics from a server stop arriving; the
//                          control plane must plan with stale/absent stats
//                          (degraded estimation);
//   * kClientDisconnect  — a client goes offline for a window (radio off,
//                          tunnel, battery), detaching and re-attaching cold.
//
// Plans are either scripted directly, parsed from a small JSON spec
// (to_json/from_json round-trip exactly), or generated from a seeded random
// schedule so chaos sweeps are reproducible bit-for-bit. The legacy
// SimulationConfig knobs (server_failure_rate / server_downtime_intervals)
// map onto legacy_crashes(), which reproduces the historical Bernoulli
// recursion: every live server draws each interval, and a server already
// down cannot crash again until it recovers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace perdnn {

/// Wildcard for BackhaulDegrade peers: every link incident to `server`.
inline constexpr ServerId kAllServers = -2;

enum class FaultKind {
  kServerCrash,
  kBackhaulDegrade,
  kTelemetryDropout,
  kClientDisconnect,
};

/// Parses/prints the JSON names: "server_crash", "backhaul_degrade",
/// "telemetry_dropout", "client_disconnect". Throws on unknown names.
const char* fault_kind_name(FaultKind kind);
FaultKind fault_kind_from_name(const std::string& name);

struct FaultEvent {
  FaultKind kind = FaultKind::kServerCrash;
  /// First affected interval (inclusive).
  int at_interval = 0;
  /// Number of intervals the fault lasts; the window is
  /// [at_interval, at_interval + duration_intervals).
  int duration_intervals = 1;
  /// Crash / telemetry target, or first backhaul endpoint.
  ServerId server = kNoServer;
  /// Second backhaul endpoint; kAllServers = every link of `server`.
  ServerId peer = kAllServers;
  /// Disconnect target.
  ClientId client = -1;
  /// Backhaul only: fraction of link capacity lost, in [0, 1]; 1.0 means a
  /// full outage (migrations to the far side are deferred, not sent slower).
  double severity = 1.0;

  bool operator==(const FaultEvent&) const = default;
};

/// Intensity knobs for the seeded random schedule generator. All rates are
/// per entity (server / client) per interval; windows that would overlap an
/// active fault of the same kind on the same entity are suppressed, so the
/// generated plan never stacks identical faults.
struct RandomFaultConfig {
  std::uint64_t seed = 42;
  int num_servers = 0;
  int num_clients = 0;
  int num_intervals = 0;

  double server_crash_rate = 0.0;
  int crash_downtime_intervals = 3;

  double backhaul_degrade_rate = 0.0;
  int backhaul_outage_intervals = 2;
  /// Severity of generated backhaul events (1.0 = outage).
  double backhaul_severity = 1.0;

  double telemetry_dropout_rate = 0.0;
  int telemetry_dropout_intervals = 4;

  double client_disconnect_rate = 0.0;
  int client_disconnect_intervals = 2;
};

class FaultPlan {
 public:
  FaultPlan() = default;
  /// Validates every event (see validate_event) and sorts them by
  /// (at_interval, kind, server, peer, client) so identical event sets
  /// always serialise and replay identically.
  explicit FaultPlan(std::vector<FaultEvent> events);

  /// Seeded random schedule over every fault class (chaos sweeps).
  static FaultPlan random_schedule(const RandomFaultConfig& config);

  /// Back-compat mapping of the legacy SimulationConfig failure knobs:
  /// per-interval Bernoulli crash draws per live server, fixed downtime.
  static FaultPlan legacy_crashes(double failure_rate, int downtime_intervals,
                                  int num_servers, int num_intervals,
                                  std::uint64_t seed);

  /// JSON spec: {"events":[{"kind":"server_crash","at":3,"duration":4,
  /// "server":2}, ...]}. Optional members take their defaults; unknown
  /// members or kinds, and ids or intervals that are not integers in int
  /// range, are hard errors.
  static FaultPlan from_json(const std::string& text);
  std::string to_json() const;

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  const std::vector<FaultEvent>& events() const { return events_; }

  /// Checks every event's entity ids against the world about to consume the
  /// plan; throws std::logic_error naming the offending event.
  void check_bounds(int num_servers, int num_clients) const;

 private:
  std::vector<FaultEvent> events_;
};

/// Structural validation of one event (durations >= 1, a window that ends
/// at or before INT_MAX, severity in [0, 1], required ids present for the
/// kind). Throws std::logic_error.
void validate_event(const FaultEvent& event);

}  // namespace perdnn
