#include "nn/model_zoo.hpp"

#include <gtest/gtest.h>

namespace perdnn {
namespace {

/// Expected shapes of the Table I models (paper numbers, with tolerance for
/// our reconstruction).
struct ZooExpectation {
  ModelName name;
  int min_layers;
  int max_layers;
  double min_mb;
  double max_mb;
  double min_gflops;
  double max_gflops;
};

class ModelZooTest : public ::testing::TestWithParam<ZooExpectation> {};

TEST_P(ModelZooTest, MatchesPaperScale) {
  const ZooExpectation& expect = GetParam();
  const DnnModel model = build_model(expect.name);
  EXPECT_NO_THROW(model.validate());
  EXPECT_GE(model.num_layers(), expect.min_layers);
  EXPECT_LE(model.num_layers(), expect.max_layers);
  const double mb = bytes_to_mb(model.total_weight_bytes());
  EXPECT_GE(mb, expect.min_mb);
  EXPECT_LE(mb, expect.max_mb);
  const double gflops = model.total_flops() / 1e9;
  EXPECT_GE(gflops, expect.min_gflops);
  EXPECT_LE(gflops, expect.max_gflops);
}

TEST_P(ModelZooTest, StructuralInvariants) {
  const DnnModel model = build_model(GetParam().name);
  // Exactly one input layer at position 0 and a softmax terminal.
  EXPECT_EQ(model.layer(0).kind, LayerKind::kInput);
  EXPECT_EQ(model.layer(model.num_layers() - 1).kind, LayerKind::kSoftmax);
  for (LayerId id = 0; id < model.num_layers(); ++id) {
    const LayerSpec& layer = model.layer(id);
    EXPECT_GE(layer.weight_bytes, 0);
    EXPECT_GT(layer.output_bytes, 0) << layer.name;
    EXPECT_GE(layer.flops, 0.0);
    if (id > 0) {
      EXPECT_NE(layer.kind, LayerKind::kInput);
      EXPECT_FALSE(layer.inputs.empty());
    }
    if (layer.is_compute()) {
      EXPECT_GT(layer.flops, 0.0) << layer.name;
      EXPECT_GT(layer.weight_bytes, 0) << layer.name;
    }
  }
}

TEST_P(ModelZooTest, SpatialDimensionsShrinkMonotonically) {
  const DnnModel model = build_model(GetParam().name);
  // The input is 224x224; no layer may exceed its producer's spatial size.
  for (LayerId id = 1; id < model.num_layers(); ++id) {
    const LayerSpec& layer = model.layer(id);
    for (LayerId in : layer.inputs) {
      EXPECT_LE(layer.out_height, model.layer(in).out_height)
          << layer.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelZooTest,
    ::testing::Values(
        // Paper: 110 layers, 16 MB.
        ZooExpectation{ModelName::kMobileNet, 100, 125, 14.0, 19.0, 0.8, 1.6},
        // Paper: 312 layers, 128 MB.
        ZooExpectation{ModelName::kInception, 280, 330, 115.0, 140.0, 3.0,
                       5.5},
        // Paper: 245 layers, 98 MB.
        ZooExpectation{ModelName::kResNet, 215, 260, 90.0, 105.0, 6.5, 9.0}),
    [](const ::testing::TestParamInfo<ZooExpectation>& info) {
      return model_name_str(info.param.name);
    });

TEST(ModelZoo, ModelFromFlagInvertsTheLowercaseName) {
  EXPECT_EQ(model_from_flag("mobilenet"), ModelName::kMobileNet);
  EXPECT_EQ(model_from_flag("inception"), ModelName::kInception);
  EXPECT_EQ(model_from_flag("resnet"), ModelName::kResNet);
  // Only the three simulated models, spelled exactly.
  for (const char* other : {"", "alexnet", "vgg16", "Inception", "resnet "})
    EXPECT_EQ(model_from_flag(other), std::nullopt) << "'" << other << "'";
}

TEST(ModelZoo, InceptionFcHeadDominatesBytes) {
  // The 21k-way classifier holds most of the weights but little compute —
  // the structural property behind the paper's fractional-migration win.
  const DnnModel model = build_inception21k();
  Bytes fc_bytes = 0;
  Flops fc_flops = 0;
  for (const LayerSpec& layer : model.layers()) {
    if (layer.kind == LayerKind::kFullyConnected) {
      fc_bytes += layer.weight_bytes;
      fc_flops += layer.flops;
    }
  }
  EXPECT_GT(static_cast<double>(fc_bytes),
            0.6 * static_cast<double>(model.total_weight_bytes()));
  EXPECT_LT(fc_flops, 0.05 * model.total_flops());
}

TEST(ModelZoo, ResNetHasResidualAdds) {
  const DnnModel model = build_resnet50();
  int adds = 0;
  for (const LayerSpec& layer : model.layers())
    if (layer.kind == LayerKind::kEltwiseAdd) ++adds;
  EXPECT_EQ(adds, 16);  // 3 + 4 + 6 + 3 bottleneck blocks
}

TEST(ModelZoo, InceptionHasConcatModules) {
  const DnnModel model = build_inception21k();
  int concats = 0;
  for (const LayerSpec& layer : model.layers())
    if (layer.kind == LayerKind::kConcat) ++concats;
  EXPECT_EQ(concats, 10);
}

TEST(ModelZoo, MobileNetUsesDepthwiseConvs) {
  const DnnModel model = build_mobilenet_v1();
  int dw = 0;
  for (const LayerSpec& layer : model.layers())
    if (layer.kind == LayerKind::kDepthwiseConv) ++dw;
  EXPECT_EQ(dw, 13);
}


TEST(ModelZoo, AlexNetIsFcDominated) {
  const DnnModel model = build_alexnet();
  EXPECT_NO_THROW(model.validate());
  EXPECT_GE(model.num_layers(), 15);
  Bytes fc_bytes = 0;
  for (const LayerSpec& layer : model.layers())
    if (layer.kind == LayerKind::kFullyConnected) fc_bytes += layer.weight_bytes;
  // The 4096-wide FCs hold the overwhelming majority of AlexNet's weights.
  EXPECT_GT(static_cast<double>(fc_bytes),
            0.85 * static_cast<double>(model.total_weight_bytes()));
}

TEST(ModelZoo, Vgg16MatchesPublishedScale) {
  const DnnModel model = build_vgg16();
  EXPECT_NO_THROW(model.validate());
  const double mb = bytes_to_mb(model.total_weight_bytes());
  EXPECT_GT(mb, 500.0);  // published VGG-16 is ~528 MB at fp32
  EXPECT_LT(mb, 560.0);
  const double gflops = model.total_flops() / 1e9;
  EXPECT_GT(gflops, 25.0);  // ~30.9 GFLOPs for 224x224
  EXPECT_LT(gflops, 36.0);
  int convs = 0;
  for (const LayerSpec& layer : model.layers())
    if (layer.kind == LayerKind::kConv) ++convs;
  EXPECT_EQ(convs, 13);
}

TEST(ModelZoo, ToyModelScalesWithBlocks) {
  const DnnModel small = build_toy_model(2);
  const DnnModel large = build_toy_model(5);
  EXPECT_LT(small.num_layers(), large.num_layers());
  EXPECT_NO_THROW(small.validate());
  EXPECT_NO_THROW(large.validate());
  EXPECT_THROW(build_toy_model(0), std::logic_error);
}

}  // namespace
}  // namespace perdnn
