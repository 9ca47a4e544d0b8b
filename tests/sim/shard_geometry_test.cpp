// Oracle tests for the sharded engine's tile shortcuts. Phase A skips
// ShardWorld::tile_at when a position stays inside its tile's incircle, and
// the push walk derives the prediction's tile from the one cell_at it needs
// anyway. Both must give the tile the full lookup gives, written here as it
// was before tile_of existed, on every point of a dense lattice over a world
// whose odd-r border is ragged and whose edge points fall in clamped cells.
#include <gtest/gtest.h>

#include <algorithm>

#include "geo/hex_grid.hpp"
#include "sim/shard_world.hpp"

namespace perdnn {
namespace {

int floor_mod2(int v) { return ((v % 2) + 2) % 2; }

// tile_at before tile_of: cell_at, the odd-r offset, then the clamp.
ServerId historical_tile_at(const ShardWorld& w, Point p) {
  const HexCoord axial = w.grid.cell_at(p);
  int row = axial.r;
  int col = axial.q + (axial.r - floor_mod2(axial.r)) / 2;
  row = std::clamp(row, 0, w.config.tiles_y - 1);
  col = std::clamp(col, 0, w.config.tiles_x - 1);
  return static_cast<ServerId>(row) * w.config.tiles_x + col;
}

TEST(ShardGeometryTest, TileShortcutsMatchTileAtOnADenseLattice) {
  ShardWorldConfig config;
  config.model = ModelName::kMobileNet;
  config.tiles_x = 5;
  config.tiles_y = 4;
  config.num_clients = 10;
  config.max_load_level = 2;
  const ShardWorld w = build_shard_world(config);
  const double kR = config.cell_radius_m;

  long long shortcut_hits = 0;
  long long clamped = 0;
  long long points = 0;
  // A lattice one cell radius past the rectangle on every side; the step is
  // not a fraction of the hex pitch, so points fall on no fixed phase.
  const double step = kR / 23.7;
  for (double x = -kR; x <= w.width_m + kR; x += step) {
    for (double y = -kR; y <= w.height_m + kR; y += step) {
      const Point p{x, y};
      ++points;
      const ServerId want = historical_tile_at(w, p);
      ASSERT_EQ(w.tile_at(p), want) << x << "," << y;

      // The push walk: one cell_at, then the clamp, then the in-rectangle
      // test that keeps only real tiles as push targets.
      const HexCoord cell = w.grid.cell_at(p);
      EXPECT_EQ(w.tile_of(cell), want) << x << "," << y;
      const ServerId in_rect = w.tile_in_rect(cell);
      if (in_rect == kNoServer) {
        ++clamped;
      } else {
        EXPECT_EQ(in_rect, want) << x << "," << y;
      }

      // The incircle shortcut, from every tile a client could have stood
      // on: a hit must name the tile the full lookup finds.
      for (ServerId t = 0; t < w.num_servers(); ++t) {
        if (!w.grid.in_incircle(p, w.tile_center(t))) continue;
        ++shortcut_hits;
        EXPECT_EQ(t, want) << x << "," << y << " from tile " << t;
      }
    }
  }
  // Not vacuous: most lattice points take the shortcut from their own tile
  // (the incircle is ~91% of the hexagon), and the lattice reaches cells
  // outside the rectangle, which clamp.
  EXPECT_GT(shortcut_hits, points / 2);
  EXPECT_GT(clamped, 0);
}

}  // namespace
}  // namespace perdnn
