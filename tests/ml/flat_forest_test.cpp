// FlatForest must reproduce the pointer-walking ensembles bit for bit: the
// estimators keep only the compiled forests, so these ensembles are its
// test oracle, and any ULP drift would change every plan downstream.
#include "ml/flat_forest.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ml/dataset.hpp"

namespace perdnn::ml {
namespace {

Dataset random_dataset(Rng& rng, int n, int num_features) {
  Dataset data;
  for (int i = 0; i < n; ++i) {
    Vector x(static_cast<std::size_t>(num_features));
    for (auto& v : x) v = rng.uniform(-2.0, 2.0);
    // A lumpy nonlinear target so trees actually split on every feature.
    double y = 0.0;
    for (std::size_t f = 0; f < x.size(); ++f)
      y += (f % 2 == 0 ? 1.0 : -0.5) * x[f] * x[f] + (x[f] > 0.3 ? 1.0 : 0.0);
    data.add(std::move(x), y + rng.uniform(-0.1, 0.1));
  }
  return data;
}

std::vector<Vector> random_queries(Rng& rng, int n, int num_features) {
  std::vector<Vector> queries;
  for (int i = 0; i < n; ++i) {
    Vector x(static_cast<std::size_t>(num_features));
    for (auto& v : x) v = rng.uniform(-3.0, 3.0);  // includes extrapolation
    queries.push_back(std::move(x));
  }
  return queries;
}

TEST(FlatForest, SingleTreeBitIdentical) {
  Rng rng(11);
  for (int features : {1, 3, 7}) {
    const Dataset data = random_dataset(rng, 300, features);
    RegressionTree tree;
    tree.fit(data, rng);
    const FlatForest flat = FlatForest::compile(tree);
    EXPECT_EQ(flat.num_trees(), 1u);
    EXPECT_EQ(flat.num_nodes(), tree.num_nodes());
    for (const Vector& q : random_queries(rng, 200, features))
      EXPECT_EQ(flat.predict(q), tree.predict(q));  // exact, not NEAR
  }
}

TEST(FlatForest, RandomForestBitIdentical) {
  Rng rng(12);
  for (int seed = 0; seed < 3; ++seed) {
    Rng fit_rng(100 + seed);
    const Dataset data = random_dataset(rng, 400, 5);
    ForestConfig config;
    config.num_trees = 12;
    RandomForest forest(config);
    forest.fit(data, fit_rng);
    const FlatForest flat = FlatForest::compile(forest);
    EXPECT_EQ(flat.num_trees(), 12u);
    for (const Vector& q : random_queries(rng, 300, 5))
      EXPECT_EQ(flat.predict(q), forest.predict(q));
  }
}

TEST(FlatForest, GradientBoostedBitIdentical) {
  Rng rng(13);
  for (int seed = 0; seed < 3; ++seed) {
    Rng fit_rng(200 + seed);
    const Dataset data = random_dataset(rng, 400, 4);
    GbtConfig config;
    config.num_rounds = 25;
    GradientBoostedTrees gbt(config);
    gbt.fit(data, fit_rng);
    const FlatForest flat = FlatForest::compile(gbt);
    EXPECT_EQ(flat.num_trees(), 25u);
    for (const Vector& q : random_queries(rng, 300, 4))
      EXPECT_EQ(flat.predict(q), gbt.predict(q));
  }
}

TEST(FlatForest, PredictBatchMatchesPredictPerRow) {
  Rng rng(14);
  const Dataset data = random_dataset(rng, 400, 6);
  Rng fit_rng(42);
  ForestConfig config;
  config.num_trees = 8;
  RandomForest forest(config);
  forest.fit(data, fit_rng);
  const FlatForest flat = FlatForest::compile(forest);

  const auto queries = random_queries(rng, 64, 6);
  Matrix rows(queries.size(), 6);
  for (std::size_t r = 0; r < queries.size(); ++r)
    for (std::size_t c = 0; c < 6; ++c) rows(r, c) = queries[r][c];

  const Vector batch = flat.predict_batch(rows);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t r = 0; r < queries.size(); ++r) {
    EXPECT_EQ(batch[r], flat.predict(queries[r]));
    EXPECT_EQ(batch[r], forest.predict(queries[r]));
  }
}

TEST(FlatForest, EmptyAndAccessors) {
  const FlatForest flat;
  EXPECT_TRUE(flat.empty());
  EXPECT_EQ(flat.num_trees(), 0u);
  EXPECT_EQ(flat.num_nodes(), 0u);
}

}  // namespace
}  // namespace perdnn::ml
