// Hexagonal tessellation of the study area.
//
// The paper divides the region into a hexagonal grid whose cells have a
// radius of 50 m (the service range of a typical Wi-Fi AP) and allocates an
// edge server per visited cell. We use pointy-top hexagons in axial (q, r)
// coordinates; the conversions follow the standard cube-coordinate
// formulation (Red Blob Games / Amit Patel).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <vector>

#include "geo/point.hpp"

namespace perdnn {

/// Axial hexagon coordinate.
struct HexCoord {
  std::int32_t q = 0;
  std::int32_t r = 0;

  friend bool operator==(HexCoord a, HexCoord b) {
    return a.q == b.q && a.r == b.r;
  }
};

struct HexCoordHash {
  std::size_t operator()(HexCoord h) const {
    const auto uq = static_cast<std::uint64_t>(static_cast<std::uint32_t>(h.q));
    const auto ur = static_cast<std::uint64_t>(static_cast<std::uint32_t>(h.r));
    return std::hash<std::uint64_t>{}((uq << 32) | ur);
  }
};

/// Pointy-top hexagonal grid with circumradius `cell_radius_m` metres.
class HexGrid {
 public:
  explicit HexGrid(double cell_radius_m);

  double cell_radius() const { return radius_; }

  /// Centre of a cell on the metric plane (pointy-top axial -> pixel).
  Point center(HexCoord cell) const {
    return {radius_ * kSqrt3 * (cell.q + cell.r / 2.0),
            radius_ * 1.5 * cell.r};
  }

  /// Cell containing the given point (cube rounding).
  HexCoord cell_at(Point p) const;

  /// Hex (grid) distance between two cells, in cell steps.
  static std::int32_t hex_distance(HexCoord a, HexCoord b);

  /// The six neighbours of a cell.
  static std::vector<HexCoord> neighbors(HexCoord cell);

  /// True when `p` lies strictly inside the inscribed circle (radius
  /// sqrt(3)/2 R, shrunk by a relative 1e-6) of the cell centred at
  /// `centre`. cell_at(p) is then that cell: the margin dwarfs cube
  /// rounding's error anywhere a city fits. Hot loops test it before paying
  /// for cell_at.
  bool in_incircle(Point p, Point centre) const {
    const double dx = p.x - centre.x;
    const double dy = p.y - centre.y;
    return dx * dx + dy * dy < incircle_sq_;
  }

  /// Hex steps from p's cell past which no cell centre lies within
  /// `radius_m` of p. A ring-k centre is at least 1.5 k R from the origin
  /// centre, and p is within R of it, so k <= (radius_m + R) / (1.5 R).
  /// The bound is the smaller of that and the historical
  /// ceil(radius_m / (sqrt(3) R)) + 1, which is the looser one below
  /// radius_m ~ 3.7 R and above it cuts off the outermost ring: taking the
  /// minimum keeps every caller's cells as they were.
  int ring_bound(double radius_m) const;

  /// Calls visit(cell) for every cell within `steps` hex steps of `origin`
  /// whose centre lies within `radius_m` of `p`, in (dq, dr) order.
  /// `origin` is cell_at(p) and `steps` ring_bound(radius_m): hot callers
  /// hold both already. Allocates nothing.
  template <typename Visit>
  void for_each_cell_within(Point p, HexCoord origin, double radius_m,
                            int steps, Visit&& visit) const {
    for (std::int32_t dq = -steps; dq <= steps; ++dq) {
      for (std::int32_t dr = -steps; dr <= steps; ++dr) {
        if (std::abs(dq + dr) > steps) continue;  // outside the hex ball
        const HexCoord cell{origin.q + dq, origin.r + dr};
        if (within_radius(center(cell), p, radius_m)) visit(cell);
      }
    }
  }

  /// All cells whose centre lies within `radius_m` metres of `p` and within
  /// ring_bound(radius_m) hex steps of p's cell. Enumerates that hex ball
  /// rather than scanning the whole grid.
  std::vector<HexCoord> cells_within(Point p, double radius_m) const;

  /// Allocation-free variant for per-interval hot loops: clears `out` and
  /// fills it with the same cells (capacity is reused across calls).
  void cells_within_into(Point p, double radius_m,
                         std::vector<HexCoord>& out) const;

 private:
  static constexpr double kSqrt3 = 1.7320508075688772;

  double radius_;
  double incircle_sq_ = 0.0;
};

}  // namespace perdnn
