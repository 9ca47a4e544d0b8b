#include "estimation/estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "nn/model_zoo.hpp"

namespace perdnn {
namespace {

/// Shared fixture: one profiling sweep over the toy model, split into train
/// and held-out halves.
class EstimatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gpu_ = new GpuContentionModel(titan_xp_profile());
    model_ = new DnnModel(build_toy_model(4));
    ConcurrencyProfiler profiler(gpu_, Rng(11));
    const DnnModel* models[] = {model_};
    ProfilerConfig config;
    config.max_clients = 8;
    config.samples_per_level = 10;
    auto records = profiler.profile_models(models, config);
    train_ = new std::vector<ProfileRecord>;
    test_ = new std::vector<ProfileRecord>;
    for (std::size_t i = 0; i < records.size(); ++i)
      (i % 2 == 0 ? train_ : test_)->push_back(records[i]);
  }

  static void TearDownTestSuite() {
    delete gpu_;
    delete model_;
    delete train_;
    delete test_;
    gpu_ = nullptr;
    model_ = nullptr;
    train_ = nullptr;
    test_ = nullptr;
  }

  static GpuContentionModel* gpu_;
  static DnnModel* model_;
  static std::vector<ProfileRecord>* train_;
  static std::vector<ProfileRecord>* test_;
};

GpuContentionModel* EstimatorTest::gpu_ = nullptr;
DnnModel* EstimatorTest::model_ = nullptr;
std::vector<ProfileRecord>* EstimatorTest::train_ = nullptr;
std::vector<ProfileRecord>* EstimatorTest::test_ = nullptr;

TEST_F(EstimatorTest, AllEstimatorsProducePositiveEstimates) {
  Rng rng(1);
  NeurosurgeonEstimator ll;
  LoadAwareLinearEstimator ll_load;
  RandomForestEstimator rf;
  ll.train(*train_, rng);
  ll_load.train(*train_, rng);
  rf.train(*train_, rng);
  for (const auto& rec : *test_) {
    EXPECT_GT(ll.estimate(rec.layer, rec.input_bytes, rec.stats), 0.0);
    EXPECT_GT(ll_load.estimate(rec.layer, rec.input_bytes, rec.stats), 0.0);
    EXPECT_GT(rf.estimate(rec.layer, rec.input_bytes, rec.stats), 0.0);
  }
}

TEST_F(EstimatorTest, RandomForestBeatsHyperparamOnlyLLUnderLoad) {
  // The Fig 4 claim: at high concurrency, the load-blind LL baseline
  // degrades while the GPU-stat-aware random forest stays accurate.
  Rng rng(2);
  NeurosurgeonEstimator ll;
  RandomForestEstimator rf;
  ll.train(*train_, rng);
  rf.train(*train_, rng);
  const double ll_mae = estimator_mae(ll, *test_, /*num_clients=*/8);
  const double rf_mae = estimator_mae(rf, *test_, /*num_clients=*/8);
  EXPECT_LT(rf_mae, ll_mae);
}

TEST_F(EstimatorTest, LoadFeaturesImproveLinearModelUnderLoad) {
  Rng rng(3);
  NeurosurgeonEstimator ll;
  LoadAwareLinearEstimator ll_load;
  ll.train(*train_, rng);
  ll_load.train(*train_, rng);
  const double ll_mae = estimator_mae(ll, *test_, /*num_clients=*/8);
  const double ll_load_mae = estimator_mae(ll_load, *test_, /*num_clients=*/8);
  EXPECT_LT(ll_load_mae, 1.05 * ll_mae);
}

TEST_F(EstimatorTest, ErrorGrowsWithLoadForLoadBlindModel) {
  Rng rng(4);
  NeurosurgeonEstimator ll;
  ll.train(*train_, rng);
  const double mae_low = estimator_mae(ll, *test_, 1);
  const double mae_high = estimator_mae(ll, *test_, 8);
  EXPECT_GT(mae_high, mae_low);
}

TEST_F(EstimatorTest, ForestImportanceIncludesLoadFeatures) {
  Rng rng(5);
  RandomForestEstimator rf;
  rf.train(*train_, rng);
  const Vector imp = rf.feature_importance(LayerKind::kConv);
  ASSERT_EQ(imp.size(), combined_feature_names().size());
  // The load block (last 5 features) must carry substantial importance —
  // the paper found workload features more important than hyperparameters.
  double load_importance = 0.0;
  for (std::size_t i = layer_feature_names().size(); i < imp.size(); ++i)
    load_importance += imp[i];
  EXPECT_GT(load_importance, 0.2);
}

TEST_F(EstimatorTest, UnknownKindFallsBackGracefully) {
  Rng rng(6);
  RandomForestEstimator rf;
  rf.train(*train_, rng);
  LayerSpec weird;
  weird.kind = LayerKind::kDropout;  // never profiled in the toy model
  weird.inputs = {0};
  weird.output_bytes = 1000;
  GpuStats stats;
  stats.num_clients = 2;
  stats.kernel_util = 50.0;
  EXPECT_GT(rf.estimate(weird, 1000, stats), 0.0);
}

TEST_F(EstimatorTest, TrainOnEmptyRecordsThrows) {
  Rng rng(7);
  std::vector<ProfileRecord> empty;
  NeurosurgeonEstimator ll;
  RandomForestEstimator rf;
  EXPECT_THROW(ll.train(empty, rng), std::logic_error);
  EXPECT_THROW(rf.train(empty, rng), std::logic_error);
}

TEST_F(EstimatorTest, EstimateBeforeTrainThrows) {
  RandomForestEstimator rf;
  LayerSpec conv = model_->layer(1);
  GpuStats stats;
  EXPECT_THROW(rf.estimate(conv, 100, stats), std::logic_error);
}

TEST_F(EstimatorTest, GradientBoostingCompetitiveWithForestUnderLoad) {
  Rng rng(8);
  RandomForestEstimator rf;
  GradientBoostedEstimator gbt;
  rf.train(*train_, rng);
  gbt.train(*train_, rng);
  const double rf_mae = estimator_mae(rf, *test_, /*num_clients=*/8);
  const double gbt_mae = estimator_mae(gbt, *test_, /*num_clients=*/8);
  // GBT should land in the forest's league (and both far below LL).
  EXPECT_LT(gbt_mae, 2.0 * rf_mae);
  NeurosurgeonEstimator ll;
  ll.train(*train_, rng);
  EXPECT_LT(gbt_mae, estimator_mae(ll, *test_, /*num_clients=*/8));
}

TEST_F(EstimatorTest, BatchedEstimateModelEqualsPerLayerEstimate) {
  // estimate_model() pushes each layer-kind group through its compiled
  // forest's batch kernel; it must equal the per-layer estimate() loop bit
  // for bit. MobileNet's depthwise convolutions never appear in the toy
  // sweep, so those layers take the global-ridge fallback.
  const DnnModel mobilenet = build_mobilenet_v1();
  const auto trained = [&](LayerKind kind) {
    return std::any_of(
        train_->begin(), train_->end(),
        [&](const ProfileRecord& r) { return r.layer.kind == kind; });
  };
  bool has_untrained_kind = false;
  for (LayerId id = 0; id < mobilenet.num_layers(); ++id)
    if (!trained(mobilenet.layer(id).kind)) has_untrained_kind = true;
  ASSERT_TRUE(has_untrained_kind);

  Rng rng(9);
  RandomForestEstimator rf;
  GradientBoostedEstimator gbt;
  rf.train(*train_, rng);
  gbt.train(*train_, rng);
  for (int i = 0; i < 4; ++i) {
    GpuStats stats;
    stats.num_clients = 1 + 3 * i;
    stats.kernel_util = 10.0 + 25.0 * i;
    stats.mem_util = 5.0 + 12.5 * i;
    stats.mem_usage_mb = 800.0 + 1500.0 * i;
    stats.temperature_c = 40.0 + 8.0 * i;
    for (const LayerTimeEstimator* estimator :
         {static_cast<const LayerTimeEstimator*>(&rf),
          static_cast<const LayerTimeEstimator*>(&gbt)}) {
      const std::vector<Seconds> batched =
          estimator->estimate_model(mobilenet, stats);
      ASSERT_EQ(batched.size(),
                static_cast<std::size_t>(mobilenet.num_layers()));
      for (LayerId id = 0; id < mobilenet.num_layers(); ++id)
        EXPECT_EQ(batched[static_cast<std::size_t>(id)],
                  estimator->estimate(mobilenet.layer(id),
                                      mobilenet.input_bytes(id), stats))
            << estimator->name() << " layer " << id << " stats #" << i;
    }
  }
}

TEST(EstimatorFeatures, NamesAlignWithVectors) {
  LayerSpec conv;
  conv.kind = LayerKind::kConv;
  conv.inputs = {0};
  conv.flops = 1e9;
  GpuStats stats;
  EXPECT_EQ(layer_features(conv, 100).size(), layer_feature_names().size());
  EXPECT_EQ(load_features(stats).size(), load_feature_names().size());
  EXPECT_EQ(combined_features(conv, 100, stats).size(),
            combined_feature_names().size());
}

}  // namespace
}  // namespace perdnn
