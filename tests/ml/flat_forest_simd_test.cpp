// SIMD-vs-scalar kernel equivalence gate: FlatForest::predict_batch_into
// with the AVX2 kernel enabled must be bit-identical — not approximately
// equal — to the forced-scalar path on the same rows, for RF and GBT
// ensembles, for batch sizes off the SIMD width, and for feature values at
// the edges of the double range (subnormals, huge magnitudes, signed
// zeros). On builds or machines without AVX2 the forced-on leg clamps back
// to scalar and the comparisons become trivially true, which keeps the test
// meaningful exactly where a divergence could exist.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "ml/dataset.hpp"
#include "ml/flat_forest.hpp"
#include "ml/gbt.hpp"
#include "ml/random_forest.hpp"

namespace perdnn::ml {
namespace {

struct SimdGuard {
  explicit SimdGuard(bool enable) : previous(simd::enabled()) {
    simd::set_enabled(enable);
  }
  ~SimdGuard() { simd::set_enabled(previous); }
  bool previous;
};

Dataset random_dataset(Rng& rng, int n, int num_features) {
  Dataset data;
  for (int i = 0; i < n; ++i) {
    Vector x(static_cast<std::size_t>(num_features));
    for (auto& v : x) v = rng.uniform(-2.0, 2.0);
    double y = 0.0;
    for (std::size_t f = 0; f < x.size(); ++f)
      y += (f % 2 == 0 ? 1.0 : -0.5) * x[f] * x[f] + (x[f] > 0.3 ? 1.0 : 0.0);
    data.add(std::move(x), y + rng.uniform(-0.1, 0.1));
  }
  return data;
}

FlatForest train_rf(int num_features, int num_trees) {
  Rng rng(17);
  const Dataset data = random_dataset(rng, 400, num_features);
  ForestConfig config;
  config.num_trees = num_trees;
  RandomForest forest(config);
  Rng fit_rng(29);
  forest.fit(data, fit_rng);
  return FlatForest::compile(forest);
}

FlatForest train_gbt(int num_features) {
  Rng rng(19);
  const Dataset data = random_dataset(rng, 400, num_features);
  GbtConfig config;
  GradientBoostedTrees gbt(config);
  Rng fit_rng(31);
  gbt.fit(data, fit_rng);
  return FlatForest::compile(gbt);
}

/// Row-major feature matrix with a mix of ordinary, boundary and edge-case
/// values: subnormals, near-max magnitudes, signed zeros and values close to
/// real split thresholds.
std::vector<double> edge_case_rows(Rng& rng, std::size_t n,
                                   std::size_t num_features) {
  const double specials[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 4.0,  // subnormal
      std::numeric_limits<double>::min(),
      1e300,
      -1e300,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      1e-308,
      -1e-308,
  };
  constexpr std::size_t kNumSpecials = sizeof(specials) / sizeof(specials[0]);
  std::vector<double> rows(n * num_features);
  std::size_t k = 0;
  for (double& v : rows) {
    // Every 3rd value is drawn from the specials; the rest span the trained
    // range plus extrapolation.
    v = (k % 3 == 0) ? specials[(k / 3) % kNumSpecials]
                     : rng.uniform(-3.0, 3.0);
    ++k;
  }
  return rows;
}

void expect_bit_identical(const FlatForest& forest, const double* rows,
                          std::size_t num_features, std::size_t n) {
  std::vector<double> scalar_out(n, -1.0), simd_out(n, -2.0);
  {
    SimdGuard guard(false);
    forest.predict_batch_into(rows, num_features, n, scalar_out.data());
  }
  {
    SimdGuard guard(true);
    forest.predict_batch_into(rows, num_features, n, simd_out.data());
  }
  // memcmp, not ==: NaN-safe and catches -0.0 vs 0.0 drift.
  EXPECT_EQ(std::memcmp(scalar_out.data(), simd_out.data(),
                        n * sizeof(double)),
            0)
      << "batch size " << n;
  // Both must also match per-row predict() (the scalar reference).
  for (std::size_t i = 0; i < n; ++i) {
    Vector row(rows + i * num_features, rows + (i + 1) * num_features);
    EXPECT_EQ(forest.predict(row), scalar_out[i]) << "row " << i;
  }
}

TEST(FlatForestSimd, ReportsDispatchState) {
  // enabled() can never exceed what the build and CPU provide.
  if (!simd::compiled_in() || !simd::cpu_supported()) {
    EXPECT_FALSE(simd::enabled());
  }
  SimdGuard on(true);
  EXPECT_EQ(simd::enabled(), simd::compiled_in() && simd::cpu_supported());
  EXPECT_STREQ(simd::active_kernel(), simd::enabled() ? "avx2" : "scalar");
}

TEST(FlatForestSimd, RandomForestBitIdenticalAcrossBatchSizes) {
  const FlatForest forest = train_rf(5, 12);
  Rng rng(41);
  // Off-width sizes on both sides of kSimdWidth, plus exact multiples.
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{5},
                              std::size_t{7}, std::size_t{8}, std::size_t{9},
                              std::size_t{16}, std::size_t{17},
                              std::size_t{67}, std::size_t{256}}) {
    const auto rows = edge_case_rows(rng, n, forest.num_features());
    expect_bit_identical(forest, rows.data(), forest.num_features(), n);
  }
}

TEST(FlatForestSimd, GradientBoostedBitIdenticalAcrossBatchSizes) {
  const FlatForest forest = train_gbt(4);
  Rng rng(43);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                              std::size_t{9}, std::size_t{67},
                              std::size_t{128}}) {
    const auto rows = edge_case_rows(rng, n, forest.num_features());
    expect_bit_identical(forest, rows.data(), forest.num_features(), n);
  }
}

TEST(FlatForestSimd, EmptyBatchIsANoOp) {
  const FlatForest forest = train_rf(3, 4);
  double sentinel = 123.5;
  SimdGuard guard(true);
  forest.predict_batch_into(nullptr, forest.num_features(), 0, &sentinel);
  EXPECT_EQ(sentinel, 123.5);
}

TEST(FlatForestSimd, WideStrideRowsMatch) {
  // stride > num_features: the kernel must only read the leading columns.
  const FlatForest forest = train_rf(4, 8);
  Rng rng(47);
  const std::size_t n = 24;
  const std::size_t stride = forest.num_features() + 3;
  std::vector<double> rows(n * stride,
                           std::numeric_limits<double>::quiet_NaN());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t f = 0; f < forest.num_features(); ++f)
      rows[i * stride + f] = rng.uniform(-3.0, 3.0);
  std::vector<double> scalar_out(n), simd_out(n);
  {
    SimdGuard guard(false);
    forest.predict_batch_into(rows.data(), stride, n, scalar_out.data());
  }
  {
    SimdGuard guard(true);
    forest.predict_batch_into(rows.data(), stride, n, simd_out.data());
  }
  EXPECT_EQ(std::memcmp(scalar_out.data(), simd_out.data(),
                        n * sizeof(double)),
            0);
}

TEST(FlatForestSimd, PredictBatchMatrixMatchesForcedScalar) {
  const FlatForest forest = train_rf(5, 10);
  Rng rng(53);
  const std::size_t n = 37;
  Matrix rows(n, forest.num_features());
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < forest.num_features(); ++c)
      rows(r, c) = rng.uniform(-3.0, 3.0);
  Vector scalar_out, simd_out;
  {
    SimdGuard guard(false);
    scalar_out = forest.predict_batch(rows);
  }
  {
    SimdGuard guard(true);
    simd_out = forest.predict_batch(rows);
  }
  ASSERT_EQ(scalar_out.size(), simd_out.size());
  EXPECT_EQ(std::memcmp(scalar_out.data(), simd_out.data(),
                        n * sizeof(double)),
            0);
}

}  // namespace
}  // namespace perdnn::ml
