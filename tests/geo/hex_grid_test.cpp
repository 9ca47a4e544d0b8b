#include "geo/hex_grid.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace perdnn {
namespace {

TEST(HexGrid, RejectsNonPositiveRadius) {
  EXPECT_THROW(HexGrid(0.0), std::logic_error);
  EXPECT_THROW(HexGrid(-1.0), std::logic_error);
}

TEST(HexGrid, OriginCellIsZero) {
  HexGrid grid(50.0);
  const HexCoord cell = grid.cell_at({0.0, 0.0});
  EXPECT_EQ(cell.q, 0);
  EXPECT_EQ(cell.r, 0);
}

// Property: the centre of any cell maps back to that cell.
TEST(HexGrid, CenterRoundTrips) {
  HexGrid grid(50.0);
  for (std::int32_t q = -20; q <= 20; q += 3) {
    for (std::int32_t r = -20; r <= 20; r += 3) {
      const HexCoord cell{q, r};
      const HexCoord back = grid.cell_at(grid.center(cell));
      EXPECT_EQ(back.q, cell.q);
      EXPECT_EQ(back.r, cell.r);
    }
  }
}

// Property: every point lies within one circumradius of its cell's centre.
TEST(HexGrid, PointsAreWithinCircumradiusOfTheirCell) {
  HexGrid grid(50.0);
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const Point p{rng.uniform(-2000.0, 2000.0), rng.uniform(-2000.0, 2000.0)};
    const HexCoord cell = grid.cell_at(p);
    EXPECT_LE(distance(grid.center(cell), p), 50.0 + 1e-9);
  }
}

// Property: the assigned cell is the nearest one (true for a hexagonal
// Voronoi tessellation).
TEST(HexGrid, CellAtIsNearestCenter) {
  HexGrid grid(30.0);
  Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    const Point p{rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)};
    const HexCoord cell = grid.cell_at(p);
    const double own = distance(grid.center(cell), p);
    for (const HexCoord neighbor : HexGrid::neighbors(cell)) {
      EXPECT_LE(own, distance(grid.center(neighbor), p) + 1e-9);
    }
  }
}

TEST(HexGrid, NeighborsAreAtDistanceOne) {
  const HexCoord origin{4, -2};
  const auto neighbors = HexGrid::neighbors(origin);
  EXPECT_EQ(neighbors.size(), 6u);
  std::set<std::pair<int, int>> unique;
  for (const HexCoord n : neighbors) {
    EXPECT_EQ(HexGrid::hex_distance(origin, n), 1);
    unique.insert({n.q, n.r});
  }
  EXPECT_EQ(unique.size(), 6u);
}

TEST(HexGrid, HexDistanceSymmetricAndTriangle) {
  Rng rng(29);
  for (int i = 0; i < 200; ++i) {
    const HexCoord a{static_cast<std::int32_t>(rng.uniform_int(-10, 10)),
                     static_cast<std::int32_t>(rng.uniform_int(-10, 10))};
    const HexCoord b{static_cast<std::int32_t>(rng.uniform_int(-10, 10)),
                     static_cast<std::int32_t>(rng.uniform_int(-10, 10))};
    const HexCoord c{static_cast<std::int32_t>(rng.uniform_int(-10, 10)),
                     static_cast<std::int32_t>(rng.uniform_int(-10, 10))};
    EXPECT_EQ(HexGrid::hex_distance(a, b), HexGrid::hex_distance(b, a));
    EXPECT_LE(HexGrid::hex_distance(a, c),
              HexGrid::hex_distance(a, b) + HexGrid::hex_distance(b, c));
  }
}

// Property: cells_within returns exactly the cells whose centres fall inside
// the disc (verified against a brute-force scan).
TEST(HexGrid, CellsWithinMatchesBruteForce) {
  HexGrid grid(50.0);
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    const Point p{rng.uniform(-300.0, 300.0), rng.uniform(-300.0, 300.0)};
    const double radius = rng.uniform(0.0, 220.0);
    std::set<std::pair<int, int>> got;
    for (const HexCoord cell : grid.cells_within(p, radius))
      got.insert({cell.q, cell.r});
    const HexCoord origin = grid.cell_at(p);
    for (std::int32_t dq = -10; dq <= 10; ++dq) {
      for (std::int32_t dr = -10; dr <= 10; ++dr) {
        const HexCoord cell{origin.q + dq, origin.r + dr};
        const bool inside = distance(grid.center(cell), p) <= radius;
        EXPECT_EQ(got.count({cell.q, cell.r}) > 0, inside)
            << "cell (" << cell.q << "," << cell.r << ") radius " << radius;
      }
    }
  }
}

// The loop cells_within_into ran before the ring bound and within_radius:
// the historical ceil(r / (sqrt(3) R)) + 1 steps and one hypot per cell.
std::vector<HexCoord> historical_cells_within(const HexGrid& grid, Point p,
                                              double radius_m) {
  std::vector<HexCoord> out;
  const HexCoord origin = grid.cell_at(p);
  const double pitch = 1.7320508075688772 * grid.cell_radius();
  const auto steps = static_cast<std::int32_t>(std::ceil(radius_m / pitch)) + 1;
  for (std::int32_t q = -steps; q <= steps; ++q) {
    for (std::int32_t r = -steps; r <= steps; ++r) {
      if (std::abs(q + r) > steps) continue;
      const HexCoord cell{origin.q + q, origin.r + r};
      if (distance(grid.center(cell), p) <= radius_m) out.push_back(cell);
    }
  }
  return out;
}

// Random points, plus points on cell edges and vertices, around a few cells
// near and far from the origin.
std::vector<Point> oracle_points(const HexGrid& grid) {
  const double radius = grid.cell_radius();
  std::vector<Point> points;
  Rng rng(47);
  for (const HexCoord cell : {HexCoord{0, 0}, HexCoord{3, -7},
                              HexCoord{-40, 25}, HexCoord{1000, 999}}) {
    const Point c = grid.center(cell);
    for (int i = 0; i < 200; ++i)
      points.push_back({c.x + rng.uniform(-radius, radius),
                        c.y + rng.uniform(-radius, radius)});
    for (int k = 0; k < 6; ++k) {
      // Pointy-top vertices sit at 30° + k·60° from the centre.
      const double a0 = (30.0 + 60.0 * k) * 3.14159265358979323846 / 180.0;
      const double a1 = a0 + 60.0 * 3.14159265358979323846 / 180.0;
      const Point v0{c.x + radius * std::cos(a0), c.y + radius * std::sin(a0)};
      const Point v1{c.x + radius * std::cos(a1), c.y + radius * std::sin(a1)};
      for (int j = 0; j < 8; ++j) {
        const double f = j / 8.0;  // j = 0 is the vertex itself
        points.push_back({v0.x + (v1.x - v0.x) * f, v0.y + (v1.y - v0.y) * f});
      }
    }
    points.push_back(c);
  }
  return points;
}

// cells_within against the loop it replaced, kept here as the oracle, and
// against a brute-force scan three rings past the geometric bound
// (r + R) / (1.5 R). The result equals the oracle cell for cell, in order;
// the scan shows it holds every cell within r except, past r ~ 3.7 R,
// those beyond the historical step bound, which the oracle cut off too.
TEST(HexGrid, CellsWithinMatchesTheHistoricalLoopAndABruteForceScan) {
  const double kR = 50.0;
  const HexGrid grid(kR);
  const std::vector<Point> points = oracle_points(grid);
  int capped = 0;
  for (const double ratio : {0.0, 0.5, 1.2, 1.7320508075688772, 2.0, 3.5, 8.0,
                             20.0, 20.5}) {
    const double r = ratio * kR;
    const int historical =
        static_cast<int>(std::ceil(ratio / 1.7320508075688772)) + 1;
    const int scan = static_cast<int>((r + kR) / (1.5 * kR)) + 3;
    for (const Point p : points) {
      const std::vector<HexCoord> got = grid.cells_within(p, r);
      const std::vector<HexCoord> want = historical_cells_within(grid, p, r);
      ASSERT_EQ(got.size(), want.size()) << "r/R=" << ratio;
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(got[i] == want[i]) << "r/R=" << ratio << " cell " << i;

      std::set<std::pair<int, int>> found;
      for (const HexCoord cell : got) found.insert({cell.q, cell.r});
      const HexCoord origin = grid.cell_at(p);
      for (std::int32_t dq = -scan; dq <= scan; ++dq) {
        for (std::int32_t dr = -scan; dr <= scan; ++dr) {
          const HexCoord cell{origin.q + dq, origin.r + dr};
          if (HexGrid::hex_distance(origin, cell) > scan) continue;
          const bool inside = distance(grid.center(cell), p) <= r;
          const bool listed = found.count({cell.q, cell.r}) > 0;
          if (inside && !listed) {
            EXPECT_GT(HexGrid::hex_distance(origin, cell), historical)
                << "r/R=" << ratio << " cell (" << cell.q << "," << cell.r
                << ")";
            ++capped;
          } else {
            EXPECT_EQ(listed, inside) << "r/R=" << ratio << " cell ("
                                      << cell.q << "," << cell.r << ")";
          }
        }
      }
    }
  }
  // Not vacuous: the historical bound does cut off cells at r = 20.5 R.
  EXPECT_GT(capped, 0);
}

TEST(HexGrid, RingBoundIsTheSmallerBound) {
  const HexGrid grid(50.0);
  EXPECT_EQ(grid.ring_bound(0.0), 0);     // historical 1
  EXPECT_EQ(grid.ring_bound(60.0), 1);    // historical 2
  EXPECT_EQ(grid.ring_bound(100.0), 2);   // historical 3
  EXPECT_EQ(grid.ring_bound(1000.0), 13); // rings 14
  EXPECT_EQ(grid.ring_bound(1025.0), 13); // rings 14
  // (r + R) / (1.5 R) = 3 up to rounding keeps its third ring.
  EXPECT_EQ(grid.ring_bound(175.0), 3);
  EXPECT_THROW(grid.ring_bound(-1.0), std::logic_error);
}

TEST(HexGrid, ZeroRadiusReturnsAtMostOwnCell) {
  HexGrid grid(50.0);
  const auto cells = grid.cells_within({1.0, 1.0}, 0.0);
  EXPECT_LE(cells.size(), 1u);
}

// Boundary: a point exactly on the edge between two cells (the midpoint of
// their centres) must resolve to one of those two cells, deterministically —
// cell_at must not invent a third cell or flip between calls. These are the
// "client standing on a tile border" positions the sharded world feeds in.
TEST(HexGrid, EdgeMidpointsResolveToAnAdjacentCellDeterministically) {
  HexGrid grid(50.0);
  for (std::int32_t q = -6; q <= 6; q += 2) {
    for (std::int32_t r = -6; r <= 6; r += 2) {
      const HexCoord cell{q, r};
      const Point c0 = grid.center(cell);
      for (const HexCoord neighbor : HexGrid::neighbors(cell)) {
        const Point c1 = grid.center(neighbor);
        const Point mid{(c0.x + c1.x) / 2.0, (c0.y + c1.y) / 2.0};
        const HexCoord got = grid.cell_at(mid);
        EXPECT_TRUE(got == cell || got == neighbor)
            << "midpoint of (" << q << "," << r << ") and (" << neighbor.q
            << "," << neighbor.r << ") landed in (" << got.q << "," << got.r
            << ")";
        // Deterministic: asking again gives the same answer.
        const HexCoord again = grid.cell_at(mid);
        EXPECT_TRUE(got == again);
      }
    }
  }
}

// Boundary: cell vertices are equidistant from three cells; cell_at must
// still pick one of those three nearest cells (never a farther one).
TEST(HexGrid, CellVerticesResolveToANearestCell) {
  HexGrid grid(40.0);
  for (std::int32_t q = -4; q <= 4; q += 2) {
    for (std::int32_t r = -4; r <= 4; r += 2) {
      const HexCoord cell{q, r};
      const Point c = grid.center(cell);
      for (int k = 0; k < 6; ++k) {
        // Pointy-top vertices sit at 30° + k·60° from the centre.
        const double angle = (30.0 + 60.0 * k) * 3.14159265358979323846 / 180.0;
        const Point vertex{c.x + 40.0 * std::cos(angle),
                           c.y + 40.0 * std::sin(angle)};
        const HexCoord got = grid.cell_at(vertex);
        const double own = distance(grid.center(got), vertex);
        // Whatever it picked, no neighbour of the picked cell is strictly
        // closer: the choice is among the tied nearest cells.
        for (const HexCoord n : HexGrid::neighbors(got))
          EXPECT_LE(own, distance(grid.center(n), vertex) + 1e-6);
      }
    }
  }
}

// No wraparound: neighbour queries at extreme coordinates stay local — six
// distinct cells, all at hex distance 1, each offset by at most one step in
// q and r. (A modular/wrapping grid would teleport across the world.)
TEST(HexGrid, NeighborsAtExtremeCoordinatesDoNotWrap) {
  const HexCoord extremes[] = {{1000000, 0},
                               {-1000000, 0},
                               {0, 1000000},
                               {0, -1000000},
                               {999999, -999999}};
  for (const HexCoord origin : extremes) {
    std::set<std::pair<int, int>> unique;
    for (const HexCoord n : HexGrid::neighbors(origin)) {
      EXPECT_EQ(HexGrid::hex_distance(origin, n), 1);
      EXPECT_LE(std::abs(n.q - origin.q), 1);
      EXPECT_LE(std::abs(n.r - origin.r), 1);
      unique.insert({n.q, n.r});
    }
    EXPECT_EQ(unique.size(), 6u);
  }
}

// cells_within far from the origin returns no duplicates and only cells
// whose centres genuinely lie in the disc — another wraparound guard.
TEST(HexGrid, CellsWithinFarFromOriginIsDuplicateFreeAndLocal) {
  HexGrid grid(50.0);
  const Point far{1.0e6, -7.5e5};
  const auto cells = grid.cells_within(far, 180.0);
  EXPECT_FALSE(cells.empty());
  std::set<std::pair<int, int>> unique;
  for (const HexCoord cell : cells) {
    EXPECT_LE(distance(grid.center(cell), far), 180.0 + 1e-6);
    unique.insert({cell.q, cell.r});
  }
  EXPECT_EQ(unique.size(), cells.size());
}

// The allocation-free variant returns exactly what cells_within returns,
// and a reused scratch vector is cleared on every call (stale contents from
// a previous, larger query must not leak into the next result).
TEST(HexGrid, CellsWithinIntoMatchesAndClearsScratch) {
  HexGrid grid(50.0);
  Rng rng(37);
  std::vector<HexCoord> scratch;
  for (int trial = 0; trial < 25; ++trial) {
    const Point p{rng.uniform(-400.0, 400.0), rng.uniform(-400.0, 400.0)};
    const double radius = rng.uniform(0.0, 250.0);
    const auto fresh = grid.cells_within(p, radius);
    grid.cells_within_into(p, radius, scratch);
    ASSERT_EQ(scratch.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i)
      EXPECT_TRUE(scratch[i] == fresh[i]);
  }
  // Large query followed by an empty one: the scratch must come back empty.
  grid.cells_within_into({0.0, 0.0}, 300.0, scratch);
  EXPECT_GT(scratch.size(), 1u);
  grid.cells_within_into({1.0e4, 1.0e4}, 0.0, scratch);
  EXPECT_LE(scratch.size(), 1u);
}

}  // namespace
}  // namespace perdnn
