#include "mobility/trace_gen.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace perdnn {
namespace {

CampusTraceConfig one_campus_user(Seconds duration, Seconds interval) {
  CampusTraceConfig config;
  config.num_users = 1;
  config.duration = duration;
  config.sample_interval = interval;
  return config;
}

UrbanTraceConfig one_urban_user(Seconds duration, Seconds interval) {
  UrbanTraceConfig config;
  config.num_users = 1;
  config.duration = duration;
  config.sample_interval = interval;
  return config;
}

/// Both generators refuse the config with the typed error.
void expect_refused(Seconds duration, Seconds interval) {
  EXPECT_THROW(generate_campus_traces(one_campus_user(duration, interval)),
               TraceConfigError)
      << duration << " s every " << interval << " s";
  EXPECT_THROW(generate_urban_traces(one_urban_user(duration, interval)),
               TraceConfigError)
      << duration << " s every " << interval << " s";
}

TEST(CampusTraces, ShapeAndDeterminism) {
  CampusTraceConfig config;
  config.num_users = 8;
  config.duration = 3600.0;
  const auto a = generate_campus_traces(config);
  const auto b = generate_campus_traces(config);
  ASSERT_EQ(a.size(), 8u);
  for (std::size_t u = 0; u < a.size(); ++u) {
    EXPECT_EQ(a[u].user, static_cast<int>(u));
    EXPECT_EQ(a[u].interval, config.sample_interval);
    EXPECT_EQ(a[u].points.size(),
              static_cast<std::size_t>(config.duration /
                                       config.sample_interval));
    ASSERT_EQ(a[u].points.size(), b[u].points.size());
    for (std::size_t i = 0; i < a[u].points.size(); ++i)
      EXPECT_EQ(a[u].points[i], b[u].points[i]);
  }
}

TEST(CampusTraces, StaysInsideArea) {
  CampusTraceConfig config;
  config.num_users = 5;
  config.duration = 2.0 * 3600.0;
  for (const auto& traj : generate_campus_traces(config))
    for (const Point p : traj.points)
      EXPECT_TRUE(config.area.contains(p)) << p.x << "," << p.y;
}

TEST(CampusTraces, MeanSpeedNearHalfMeterPerSecond) {
  CampusTraceConfig config;
  config.num_users = 20;
  config.duration = 4.0 * 3600.0;
  const double speed = mean_speed(generate_campus_traces(config));
  // The paper's KAIST users average ~0.5 m/s (walks interleaved with dwells).
  EXPECT_GT(speed, 0.2);
  EXPECT_LT(speed, 0.9);
}

TEST(CampusTraces, DifferentSeedsDiffer) {
  CampusTraceConfig a_config;
  a_config.num_users = 2;
  a_config.duration = 1800.0;
  CampusTraceConfig b_config = a_config;
  b_config.seed = a_config.seed + 1;
  const auto a = generate_campus_traces(a_config);
  const auto b = generate_campus_traces(b_config);
  EXPECT_FALSE(a[0].points[10] == b[0].points[10]);
}

TEST(UrbanTraces, MeanSpeedNearGeolife) {
  UrbanTraceConfig config;
  config.num_users = 30;
  config.duration = 3600.0;
  const double speed = mean_speed(generate_urban_traces(config));
  // Geolife users average ~3.9 m/s across transport modes.
  EXPECT_GT(speed, 2.5);
  EXPECT_LT(speed, 5.5);
}

TEST(UrbanTraces, UrbanUsersFasterThanCampusUsers) {
  CampusTraceConfig campus;
  campus.num_users = 10;
  campus.duration = 3600.0;
  UrbanTraceConfig urban;
  urban.num_users = 10;
  urban.duration = 3600.0;
  EXPECT_GT(mean_speed(generate_urban_traces(urban)),
            3.0 * mean_speed(generate_campus_traces(campus)));
}

TEST(UrbanTraces, StaysInsideArea) {
  UrbanTraceConfig config;
  config.num_users = 5;
  config.duration = 1800.0;
  for (const auto& traj : generate_urban_traces(config))
    for (const Point p : traj.points) EXPECT_TRUE(config.area.contains(p));
}

TEST(TracePointBound, RefusesNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  expect_refused(nan, 20.0);
  expect_refused(600.0, nan);
}

TEST(TracePointBound, RefusesZeroSteps) {
  expect_refused(19.0, 20.0);  // 0.95 points would cast to 0
  expect_refused(0.0, 20.0);
  expect_refused(-600.0, 20.0);
  expect_refused(-600.0, -20.0);  // a positive ratio of two negatives
  expect_refused(600.0, std::numeric_limits<double>::infinity());
}

TEST(TracePointBound, AcceptsTheBound) {
  const Seconds duration = kMaxTracePoints * 20.0;
  const auto campus = generate_campus_traces(one_campus_user(duration, 20.0));
  const auto urban = generate_urban_traces(one_urban_user(duration, 20.0));
  EXPECT_EQ(campus.front().points.size(),
            static_cast<std::size_t>(kMaxTracePoints));
  EXPECT_EQ(urban.front().points.size(),
            static_cast<std::size_t>(kMaxTracePoints));
  EXPECT_EQ(trace_points(20.0, 20.0), 1u);
}

TEST(TracePointBound, RefusesOnePointPastTheBound) {
  expect_refused((kMaxTracePoints + 1.0) * 20.0, 20.0);
  expect_refused(1e300, 20.0);  // the cast this check guards is UB here
  expect_refused(std::numeric_limits<double>::infinity(), 20.0);
}

TEST(Trajectory, ResamplingStridesPoints) {
  Trajectory traj;
  traj.interval = 5.0;
  for (int i = 0; i < 10; ++i)
    traj.points.push_back({static_cast<double>(i), 0.0});
  const Trajectory coarse = traj.resampled(4);
  EXPECT_DOUBLE_EQ(coarse.interval, 20.0);
  ASSERT_EQ(coarse.points.size(), 3u);
  EXPECT_DOUBLE_EQ(coarse.points[1].x, 4.0);
  EXPECT_THROW(traj.resampled(0), std::logic_error);
}

TEST(Trajectory, MeanSpeedOfStraightLine) {
  Trajectory traj;
  traj.interval = 10.0;
  for (int i = 0; i < 5; ++i)
    traj.points.push_back({static_cast<double>(20 * i), 0.0});
  EXPECT_DOUBLE_EQ(traj.mean_speed(), 2.0);
  Trajectory empty;
  EXPECT_DOUBLE_EQ(empty.mean_speed(), 0.0);
}

TEST(Trajectory, AllPointsConcatenates) {
  Trajectory a, b;
  a.points = {{0.0, 0.0}};
  b.points = {{1.0, 1.0}, {2.0, 2.0}};
  EXPECT_EQ(all_points({a, b}).size(), 3u);
}

}  // namespace
}  // namespace perdnn
