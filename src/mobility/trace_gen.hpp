// Synthetic mobility trace generators.
//
// The paper replays two real datasets that we cannot redistribute:
//   * KAIST (CRAWDAD ncsu/mobilitymodels): daily pedestrian GPS tracks on a
//     campus, 30 s sampling, 31 users, mean speed ~0.5 m/s;
//   * Geolife: multi-modal urban traces in Beijing, 1-5 s sampling,
//     clipped to a 7.2 km x 5.6 km rectangle, 138 users, mean ~3.9 m/s.
//
// We substitute generators that reproduce the statistics the PerDNN results
// depend on — study-area size, sampling period, user count, speed
// distribution and dwell behaviour — since those are what drive server-
// change frequency, prediction accuracy and hit ratios (see DESIGN.md §2).
//
//   * Campus generator: random-waypoint walks between a fixed set of
//     buildings with long pauses (pauses dominate, so overall mean speed
//     lands near 0.5 m/s while walking speed is a realistic ~1.2 m/s).
//   * Urban generator: street-grid movement with heading persistence and
//     transport-mode switching (walk / bike / vehicle), yielding fast,
//     momentum-heavy trajectories like Geolife's.
//
// Both generators record duration / sample_interval points per user and
// throw TraceConfigError unless that ratio is finite and lies in
// [1, kMaxTracePoints]; the front ends check their `minutes` against the
// same bound through trace_points().
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "geo/point.hpp"
#include "mobility/trajectory.hpp"

namespace perdnn {

/// Most points one generated trajectory may hold: about 23 days at the
/// tools' 20 s sampling, 1.6 MB of points per user.
inline constexpr double kMaxTracePoints = 100000.0;

/// A trace configuration the generators cannot honour.
class TraceConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Points per trajectory of a generated trace: duration / sample_interval,
/// checked as a double before the cast. Throws TraceConfigError unless
/// sample_interval > 0 and the ratio is finite and lies in
/// [1, kMaxTracePoints].
std::size_t trace_points(Seconds duration, Seconds sample_interval);

struct CampusTraceConfig {
  Rect area{0.0, 0.0, 1500.0, 2000.0};  // the paper's KAIST clip
  int num_users = 31;
  Seconds sample_interval = 30.0;
  Seconds duration = 6.0 * 3600.0;
  int num_buildings = 24;
  double walk_speed_mean = 1.25;  // m/s while moving
  double walk_speed_std = 0.25;
  Seconds pause_mean = 420.0;  // long dwells dominate campus life
  /// GPS measurement noise (std, metres) added to every recorded point.
  double gps_noise_std = 2.5;
  std::uint64_t seed = 1;
};

std::vector<Trajectory> generate_campus_traces(const CampusTraceConfig& config);

struct UrbanTraceConfig {
  Rect area{0.0, 0.0, 7200.0, 5600.0};  // the paper's Geolife clip
  int num_users = 138;
  Seconds sample_interval = 5.0;  // Geolife's dense sampling
  Seconds duration = 2.0 * 3600.0;
  double walk_speed = 1.4;
  double bike_speed = 4.0;
  double vehicle_speed = 9.0;
  double turn_probability = 0.06;        // per step, at street corners
  double mode_switch_probability = 0.004;  // per step
  double pause_probability = 0.01;       // brief stops (lights, stations)
  Seconds pause_mean = 45.0;
  /// GPS measurement noise (std, metres) added to every recorded point.
  double gps_noise_std = 2.0;
  std::uint64_t seed = 2;
};

std::vector<Trajectory> generate_urban_traces(const UrbanTraceConfig& config);

}  // namespace perdnn
