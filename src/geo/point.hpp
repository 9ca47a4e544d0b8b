// Planar geometry for the smart-city simulation. Mobility traces are
// projected to a local metric (x, y) plane in metres, as the paper does when
// it clips Geolife to a rectangular area around Beijing subway line 2.
#pragma once

#include <cmath>

namespace perdnn {

/// A point (or displacement) in metres on the local plane.
struct Point {
  double x = 0.0;
  double y = 0.0;

  friend Point operator+(Point a, Point b) { return {a.x + b.x, a.y + b.y}; }
  friend Point operator-(Point a, Point b) { return {a.x - b.x, a.y - b.y}; }
  friend Point operator*(Point a, double s) { return {a.x * s, a.y * s}; }
  friend bool operator==(Point a, Point b) { return a.x == b.x && a.y == b.y; }

  double norm() const { return std::hypot(x, y); }
};

/// Euclidean distance in metres.
inline double distance(Point a, Point b) { return (a - b).norm(); }

/// Exactly `distance(a, b) <= r` for every input, without the libm call on
/// all but a sliver of them. Between them, dx² + dy², r² and `hypot` round
/// by less than 6e-16 relative, so outside the band r²·(1 ∓ 1e-12), over a
/// thousand times wider, comparing squares decides as `hypot` would. Inside
/// the band, on a NaN sum, and for an r that is negative, NaN or so small
/// that its square loses precision, `distance` decides.
inline bool within_radius(Point a, Point b, double r) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  const double d2 = dx * dx + dy * dy;
  const double r2 = r * r;
  if (r >= 0.0 && r2 >= 0x1p-900) {
    if (d2 < r2 * (1.0 - 1e-12)) return true;
    if (d2 > r2 * (1.0 + 1e-12)) return false;
  }
  return distance(a, b) <= r;
}

/// Axis-aligned rectangle used to clip traces to the study area.
struct Rect {
  double min_x = 0.0;
  double min_y = 0.0;
  double max_x = 0.0;
  double max_y = 0.0;

  double width() const { return max_x - min_x; }
  double height() const { return max_y - min_y; }
  bool contains(Point p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }
  /// Clamps a point into the rectangle (used by trace generators at borders).
  Point clamp(Point p) const {
    return {p.x < min_x ? min_x : (p.x > max_x ? max_x : p.x),
            p.y < min_y ? min_y : (p.y > max_y ? max_y : p.y)};
  }
};

}  // namespace perdnn
