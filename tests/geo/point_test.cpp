#include "geo/point.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.hpp"

namespace perdnn {
namespace {

// The oracle is the test within_radius replaced: distance(a, b) <= r.
void expect_agrees(Point a, Point b, double r) {
  EXPECT_EQ(within_radius(a, b, r), distance(a, b) <= r)
      << "a=(" << a.x << "," << a.y << ") b=(" << b.x << "," << b.y
      << ") r=" << r;
}

TEST(WithinRadius, AgreesWithDistanceOnSeededPairs) {
  // A million pairs at city scale, then pairs at random binary magnitudes,
  // so squares also overflow, underflow and go subnormal.
  Rng rng(41);
  for (int i = 0; i < 1000000; ++i) {
    const Point a{rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4)};
    const Point b{rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4)};
    expect_agrees(a, b, rng.uniform(0.0, 2e4));
  }
  for (int i = 0; i < 200000; ++i) {
    const double scale = std::ldexp(1.0, static_cast<int>(rng.uniform_int(
                                             -1070, 1020)));
    const Point a{rng.uniform(-1.0, 1.0) * scale,
                  rng.uniform(-1.0, 1.0) * scale};
    const Point b{rng.uniform(-1.0, 1.0) * scale,
                  rng.uniform(-1.0, 1.0) * scale};
    expect_agrees(a, b, rng.uniform(0.0, 2.0) * scale);
  }
}

TEST(WithinRadius, AgreesWithinFourUlpOfTheRadius) {
  // r within ±4 ulp of the pair's distance: the squares land inside the
  // 1e-12 band, where only the libm call can decide.
  Rng rng(43);
  int in_band = 0;
  for (int i = 0; i < 100000; ++i) {
    const double scale = std::pow(10.0, rng.uniform(-3.0, 6.0));
    const Point a{rng.uniform(-1.0, 1.0) * scale,
                  rng.uniform(-1.0, 1.0) * scale};
    const double angle = rng.uniform(0.0, 6.283185307179586);
    const double len = rng.uniform(0.0, 1.0) * scale;
    const Point b{a.x + len * std::cos(angle), a.y + len * std::sin(angle)};
    const double d = distance(a, b);
    double r = d;
    for (int k = 0; k < 4; ++k)
      r = std::nextafter(r, -std::numeric_limits<double>::infinity());
    for (int k = -4; k <= 4; ++k) {
      expect_agrees(a, b, r);
      const double dx = a.x - b.x;
      const double dy = a.y - b.y;
      if (std::abs(dx * dx + dy * dy - r * r) <= r * r * 1e-12) ++in_band;
      r = std::nextafter(r, std::numeric_limits<double>::infinity());
    }
  }
  EXPECT_GT(in_band, 800000);
}

TEST(WithinRadius, ZeroRadius) {
  const Point p{3.5, -2.25};
  expect_agrees(p, p, 0.0);
  expect_agrees(p, {3.5, -2.0}, 0.0);
  expect_agrees(p, p, -0.0);
  expect_agrees({0.0, 0.0}, {1e-200, 0.0}, 0.0);
  expect_agrees({0.0, 0.0}, {5e-324, 0.0}, 0.0);
  EXPECT_TRUE(within_radius(p, p, 0.0));
  EXPECT_FALSE(within_radius(p, {3.5, -2.0}, 0.0));
}

TEST(WithinRadius, NonFiniteInputs) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double coords[] = {0.0, 1.0, -3.0, 1e300, -1e300, inf, -inf, nan};
  const double radii[] = {0.0, 1.0, 1e300, inf, -1.0, -inf, nan};
  for (const double ax : coords)
    for (const double ay : coords)
      for (const double bx : coords)
        for (const double r : radii) {
          expect_agrees({ax, ay}, {bx, 0.0}, r);
          expect_agrees({ax, 0.0}, {bx, ay}, r);
        }
  // hypot(inf, NaN) is inf, so an infinite offset is outside any finite r
  // even with a NaN in the other coordinate.
  EXPECT_FALSE(within_radius({inf, nan}, {0.0, 0.0}, 1e300));
  EXPECT_TRUE(within_radius({inf, nan}, {0.0, 0.0}, inf));
}

}  // namespace
}  // namespace perdnn
