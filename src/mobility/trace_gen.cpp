#include "mobility/trace_gen.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>

#include "common/check.hpp"

namespace perdnn {

std::size_t trace_points(Seconds duration, Seconds sample_interval) {
  const double points = duration / sample_interval;
  // NaN fails every comparison, so it is refused with the rest.
  if (!(sample_interval > 0.0) ||
      !(points >= 1.0 && points <= kMaxTracePoints)) {
    std::ostringstream msg;
    msg << "trace of " << duration << " s sampled every " << sample_interval
        << " s: the points per trajectory must lie in [1, "
        << kMaxTracePoints << "]";
    throw TraceConfigError(msg.str());
  }
  return static_cast<std::size_t>(points);
}

std::vector<Trajectory> generate_campus_traces(
    const CampusTraceConfig& config) {
  PERDNN_CHECK(config.num_users >= 1);
  PERDNN_CHECK(config.num_buildings >= 2);
  const std::size_t steps =
      trace_points(config.duration, config.sample_interval);
  Rng master(config.seed);

  // Buildings shared by every user: clustered destinations create the
  // repeated corridors that make campus mobility predictable.
  Rng building_rng = master.fork();
  std::vector<Point> buildings;
  buildings.reserve(static_cast<std::size_t>(config.num_buildings));
  for (int b = 0; b < config.num_buildings; ++b) {
    buildings.push_back(
        {building_rng.uniform(config.area.min_x + 50.0,
                              config.area.max_x - 50.0),
         building_rng.uniform(config.area.min_y + 50.0,
                              config.area.max_y - 50.0)});
  }

  std::vector<Trajectory> out;
  out.reserve(static_cast<std::size_t>(config.num_users));
  for (int u = 0; u < config.num_users; ++u) {
    Rng rng = master.fork();
    Trajectory traj;
    traj.user = u;
    traj.interval = config.sample_interval;
    traj.points.reserve(steps);

    Point pos = buildings[rng.index(buildings.size())];
    Point target = buildings[rng.index(buildings.size())];
    double pause_left = rng.exponential(config.pause_mean);
    double speed =
        std::max(0.4, rng.normal(config.walk_speed_mean, config.walk_speed_std));

    for (std::size_t s = 0; s < steps; ++s) {
      traj.points.push_back(config.area.clamp(
          {pos.x + config.gps_noise_std * rng.normal(),
           pos.y + config.gps_noise_std * rng.normal()}));
      double dt = config.sample_interval;
      while (dt > 0.0) {
        if (pause_left > 0.0) {
          const double wait = std::min(pause_left, dt);
          pause_left -= wait;
          dt -= wait;
          continue;
        }
        const Point to_target = target - pos;
        const double dist = to_target.norm();
        if (dist < 1e-6) {
          // Arrived: dwell, then pick the next building.
          pause_left = rng.exponential(config.pause_mean);
          target = buildings[rng.index(buildings.size())];
          speed = std::max(
              0.4, rng.normal(config.walk_speed_mean, config.walk_speed_std));
          continue;
        }
        const double step_dist = std::min(dist, speed * dt);
        pos = config.area.clamp(pos + to_target * (step_dist / dist));
        dt -= step_dist / speed;
      }
    }
    out.push_back(std::move(traj));
  }
  return out;
}

std::vector<Trajectory> generate_urban_traces(const UrbanTraceConfig& config) {
  PERDNN_CHECK(config.num_users >= 1);
  const std::size_t steps =
      trace_points(config.duration, config.sample_interval);
  Rng master(config.seed);

  const double headings[4] = {0.0, std::numbers::pi / 2, std::numbers::pi,
                              3 * std::numbers::pi / 2};

  std::vector<Trajectory> out;
  out.reserve(static_cast<std::size_t>(config.num_users));
  for (int u = 0; u < config.num_users; ++u) {
    Rng rng = master.fork();
    Trajectory traj;
    traj.user = u;
    traj.interval = config.sample_interval;
    traj.points.reserve(steps);

    Point pos{rng.uniform(config.area.min_x, config.area.max_x),
              rng.uniform(config.area.min_y, config.area.max_y)};
    std::size_t heading = rng.index(4);
    // Mode mix tuned to land the overall mean speed near Geolife's ~3.9 m/s.
    const std::vector<double> mode_weights = {0.30, 0.20, 0.50};
    std::size_t mode = rng.categorical(mode_weights);
    double pause_left = 0.0;

    auto mode_speed = [&](std::size_t m) {
      switch (m) {
        case 0: return config.walk_speed;
        case 1: return config.bike_speed;
        default: return config.vehicle_speed;
      }
    };

    for (std::size_t s = 0; s < steps; ++s) {
      traj.points.push_back(config.area.clamp(
          {pos.x + config.gps_noise_std * rng.normal(),
           pos.y + config.gps_noise_std * rng.normal()}));
      const double dt = config.sample_interval;
      if (pause_left > 0.0) {
        pause_left -= dt;
        continue;
      }
      if (rng.bernoulli(config.pause_probability)) {
        pause_left = rng.exponential(config.pause_mean);
        continue;
      }
      if (rng.bernoulli(config.mode_switch_probability))
        mode = rng.categorical(mode_weights);
      if (rng.bernoulli(config.turn_probability))
        heading = rng.bernoulli(0.5) ? (heading + 1) % 4 : (heading + 3) % 4;

      const double speed = mode_speed(mode) * (1.0 + 0.08 * rng.normal());
      const Point delta{std::cos(headings[heading]) * speed * dt,
                        std::sin(headings[heading]) * speed * dt};
      Point next = pos + delta;
      if (!config.area.contains(next)) {
        // U-turn at the study-area boundary.
        heading = (heading + 2) % 4;
        next = config.area.clamp(pos);
      }
      pos = next;
    }
    out.push_back(std::move(traj));
  }
  return out;
}

}  // namespace perdnn
