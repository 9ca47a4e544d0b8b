#include "geo/hex_grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/check.hpp"

namespace perdnn {

HexGrid::HexGrid(double cell_radius_m) : radius_(cell_radius_m) {
  PERDNN_CHECK(cell_radius_m > 0.0);
  const double incircle = kSqrt3 / 2.0 * cell_radius_m * (1.0 - 1e-6);
  incircle_sq_ = incircle * incircle;
}

HexCoord HexGrid::cell_at(Point p) const {
  // Pixel -> fractional axial.
  const double qf = (kSqrt3 / 3.0 * p.x - 1.0 / 3.0 * p.y) / radius_;
  const double rf = (2.0 / 3.0 * p.y) / radius_;
  // Cube rounding: s = -q - r.
  const double sf = -qf - rf;
  double q = std::round(qf);
  double r = std::round(rf);
  double s = std::round(sf);
  const double dq = std::abs(q - qf);
  const double dr = std::abs(r - rf);
  const double ds = std::abs(s - sf);
  if (dq > dr && dq > ds) {
    q = -r - s;
  } else if (dr > ds) {
    r = -q - s;
  }
  return {static_cast<std::int32_t>(q), static_cast<std::int32_t>(r)};
}

std::int32_t HexGrid::hex_distance(HexCoord a, HexCoord b) {
  const std::int32_t dq = a.q - b.q;
  const std::int32_t dr = a.r - b.r;
  const std::int32_t ds = -dq - dr;
  return (std::abs(dq) + std::abs(dr) + std::abs(ds)) / 2;
}

std::vector<HexCoord> HexGrid::neighbors(HexCoord cell) {
  static constexpr std::int32_t kDirs[6][2] = {
      {1, 0}, {1, -1}, {0, -1}, {-1, 0}, {-1, 1}, {0, 1}};
  std::vector<HexCoord> out;
  out.reserve(6);
  for (const auto& d : kDirs) out.push_back({cell.q + d[0], cell.r + d[1]});
  return out;
}

std::vector<HexCoord> HexGrid::cells_within(Point p, double radius_m) const {
  std::vector<HexCoord> out;
  cells_within_into(p, radius_m, out);
  return out;
}

int HexGrid::ring_bound(double radius_m) const {
  PERDNN_CHECK(radius_m >= 0.0);
  const auto historical =
      static_cast<int>(std::ceil(radius_m / (kSqrt3 * radius_))) + 1;
  // The 1e-9 keeps a ring whose bound is an integer up to rounding.
  const auto rings = static_cast<int>(
      std::floor((radius_m + radius_) / (1.5 * radius_) + 1e-9));
  return std::min(historical, rings);
}

void HexGrid::cells_within_into(Point p, double radius_m,
                                std::vector<HexCoord>& out) const {
  out.clear();
  for_each_cell_within(p, cell_at(p), radius_m, ring_bound(radius_m),
                       [&out](HexCoord cell) { out.push_back(cell); });
}

}  // namespace perdnn
