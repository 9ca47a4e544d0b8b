#include "nn/model_zoo.hpp"

#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace perdnn {

namespace {

constexpr Bytes kFloatBytes = 4;

/// Emits caffe-granularity layer stacks while tracking spatial dimensions
/// and channel counts through the DAG.
class ModelBuilder {
 public:
  ModelBuilder(std::string name, int input_hw, int input_channels)
      : model_(std::move(name)) {
    LayerSpec input;
    input.name = "data";
    input.kind = LayerKind::kInput;
    input.out_channels = input_channels;
    input.out_height = input.out_width = input_hw;
    input.output_bytes = activation_bytes(input_channels, input_hw, input_hw);
    input_id_ = model_.add_layer(std::move(input));
  }

  LayerId input_id() const { return input_id_; }

  /// conv + bn + scale + relu; returns the relu's id.
  LayerId conv_bn_relu(LayerId in, int out_c, int k, int stride,
                       const std::string& prefix) {
    return relu(scale(bn(conv(in, out_c, k, stride, prefix), prefix), prefix),
                prefix);
  }

  /// conv + bn + scale (no relu) — ResNet residual branches before the add.
  LayerId conv_bn(LayerId in, int out_c, int k, int stride,
                  const std::string& prefix) {
    return scale(bn(conv(in, out_c, k, stride, prefix), prefix), prefix);
  }

  LayerId conv(LayerId in, int out_c, int k, int stride,
               const std::string& prefix) {
    const LayerSpec& src = model_.layer(in);
    LayerSpec l;
    l.name = prefix + "/conv";
    l.kind = LayerKind::kConv;
    l.inputs = {in};
    l.in_channels = src.out_channels;
    l.out_channels = out_c;
    l.kernel = k;
    l.stride = stride;
    l.out_height = conv_out(src.out_height, stride);
    l.out_width = conv_out(src.out_width, stride);
    l.weight_bytes =
        (static_cast<Bytes>(k) * k * src.out_channels * out_c + out_c) *
        kFloatBytes;
    l.output_bytes = activation_bytes(out_c, l.out_height, l.out_width);
    l.flops = 2.0 * k * k * src.out_channels * out_c *
              static_cast<double>(l.out_height) * l.out_width;
    return model_.add_layer(std::move(l));
  }

  LayerId dwconv_bn_relu(LayerId in, int k, int stride,
                         const std::string& prefix) {
    const LayerSpec& src = model_.layer(in);
    LayerSpec l;
    l.name = prefix + "/dwconv";
    l.kind = LayerKind::kDepthwiseConv;
    l.inputs = {in};
    l.in_channels = src.out_channels;
    l.out_channels = src.out_channels;
    l.kernel = k;
    l.stride = stride;
    l.out_height = conv_out(src.out_height, stride);
    l.out_width = conv_out(src.out_width, stride);
    l.weight_bytes =
        (static_cast<Bytes>(k) * k * src.out_channels + src.out_channels) *
        kFloatBytes;
    l.output_bytes =
        activation_bytes(src.out_channels, l.out_height, l.out_width);
    l.flops = 2.0 * k * k * src.out_channels *
              static_cast<double>(l.out_height) * l.out_width;
    const LayerId id = model_.add_layer(std::move(l));
    return relu(scale(bn(id, prefix), prefix), prefix);
  }

  LayerId bn(LayerId in, const std::string& prefix) {
    return pointwise(in, LayerKind::kBatchNorm, prefix + "/bn",
                     /*params_per_channel=*/2);
  }

  LayerId scale(LayerId in, const std::string& prefix) {
    return pointwise(in, LayerKind::kScale, prefix + "/scale",
                     /*params_per_channel=*/2);
  }

  LayerId relu(LayerId in, const std::string& prefix) {
    return pointwise(in, LayerKind::kActivation, prefix + "/relu",
                     /*params_per_channel=*/0);
  }

  LayerId pool(LayerId in, int k, int stride, const std::string& name) {
    const LayerSpec& src = model_.layer(in);
    LayerSpec l;
    l.name = name;
    l.kind = LayerKind::kPool;
    l.inputs = {in};
    l.in_channels = l.out_channels = src.out_channels;
    l.kernel = k;
    l.stride = stride;
    l.out_height = conv_out(src.out_height, stride);
    l.out_width = conv_out(src.out_width, stride);
    l.output_bytes =
        activation_bytes(src.out_channels, l.out_height, l.out_width);
    l.flops = static_cast<double>(k) * k * src.out_channels *
              l.out_height * l.out_width;
    return model_.add_layer(std::move(l));
  }

  /// Global average pool collapsing spatial dims to 1x1.
  LayerId global_pool(LayerId in, const std::string& name) {
    const LayerSpec& src = model_.layer(in);
    LayerSpec l;
    l.name = name;
    l.kind = LayerKind::kPool;
    l.inputs = {in};
    l.in_channels = l.out_channels = src.out_channels;
    l.kernel = src.out_height;
    l.stride = 1;
    l.out_height = l.out_width = 1;
    l.output_bytes = activation_bytes(src.out_channels, 1, 1);
    l.flops = static_cast<double>(src.out_height) * src.out_width *
              src.out_channels;
    return model_.add_layer(std::move(l));
  }

  LayerId fc(LayerId in, int out, const std::string& name) {
    const LayerSpec& src = model_.layer(in);
    const Bytes in_features = static_cast<Bytes>(src.out_channels) *
                              src.out_height * src.out_width;
    LayerSpec l;
    l.name = name;
    l.kind = LayerKind::kFullyConnected;
    l.inputs = {in};
    l.in_channels = static_cast<int>(in_features);
    l.out_channels = out;
    l.out_height = l.out_width = 1;
    l.weight_bytes = (in_features * out + out) * kFloatBytes;
    l.output_bytes = static_cast<Bytes>(out) * kFloatBytes;
    l.flops = 2.0 * static_cast<double>(in_features) * out;
    return model_.add_layer(std::move(l));
  }

  LayerId softmax(LayerId in, const std::string& name) {
    const LayerSpec& src = model_.layer(in);
    LayerSpec l;
    l.name = name;
    l.kind = LayerKind::kSoftmax;
    l.inputs = {in};
    l.in_channels = l.out_channels = src.out_channels;
    l.out_height = src.out_height;
    l.out_width = src.out_width;
    l.output_bytes = src.output_bytes;
    l.flops = 5.0 * src.out_channels;
    return model_.add_layer(std::move(l));
  }

  LayerId concat(const std::vector<LayerId>& ins, const std::string& name) {
    PERDNN_CHECK(!ins.empty());
    const LayerSpec& first = model_.layer(ins[0]);
    int channels = 0;
    Bytes bytes = 0;
    for (LayerId in : ins) {
      const LayerSpec& src = model_.layer(in);
      PERDNN_CHECK_MSG(src.out_height == first.out_height &&
                           src.out_width == first.out_width,
                       "concat branch spatial mismatch at " << name);
      channels += src.out_channels;
      bytes += src.output_bytes;
    }
    LayerSpec l;
    l.name = name;
    l.kind = LayerKind::kConcat;
    l.inputs = ins;
    l.in_channels = l.out_channels = channels;
    l.out_height = first.out_height;
    l.out_width = first.out_width;
    l.output_bytes = bytes;
    l.flops = 0;
    return model_.add_layer(std::move(l));
  }

  LayerId add(LayerId a, LayerId b, const std::string& name) {
    const LayerSpec& sa = model_.layer(a);
    const LayerSpec& sb = model_.layer(b);
    PERDNN_CHECK_MSG(sa.output_bytes == sb.output_bytes,
                     "eltwise add shape mismatch at " << name);
    LayerSpec l;
    l.name = name;
    l.kind = LayerKind::kEltwiseAdd;
    l.inputs = {a, b};
    l.in_channels = l.out_channels = sa.out_channels;
    l.out_height = sa.out_height;
    l.out_width = sa.out_width;
    l.output_bytes = sa.output_bytes;
    l.flops = static_cast<double>(sa.out_channels) * sa.out_height *
              sa.out_width;
    return model_.add_layer(std::move(l));
  }

  const DnnModel& model() const { return model_; }
  DnnModel take() {
    model_.validate();
    return std::move(model_);
  }

 private:
  static int conv_out(int in, int stride) {
    // 'same' padding: ceil(in / stride).
    return (in + stride - 1) / stride;
  }

  static Bytes activation_bytes(int c, int h, int w) {
    return static_cast<Bytes>(c) * h * w * kFloatBytes;
  }

  LayerId pointwise(LayerId in, LayerKind kind, const std::string& name,
                    int params_per_channel) {
    const LayerSpec& src = model_.layer(in);
    LayerSpec l;
    l.name = name;
    l.kind = kind;
    l.inputs = {in};
    l.in_channels = l.out_channels = src.out_channels;
    l.out_height = src.out_height;
    l.out_width = src.out_width;
    l.weight_bytes =
        static_cast<Bytes>(params_per_channel) * src.out_channels * kFloatBytes;
    l.output_bytes = src.output_bytes;
    l.flops = 2.0 * static_cast<double>(src.out_channels) * src.out_height *
              src.out_width;
    return model_.add_layer(std::move(l));
  }

  DnnModel model_;
  LayerId input_id_ = kNoLayer;
};

}  // namespace

const char* model_name_str(ModelName name) {
  switch (name) {
    case ModelName::kMobileNet: return "MobileNet";
    case ModelName::kInception: return "Inception";
    case ModelName::kResNet: return "ResNet";
  }
  return "unknown";
}

std::optional<ModelName> model_from_flag(std::string_view flag) {
  if (flag == "mobilenet") return ModelName::kMobileNet;
  if (flag == "inception") return ModelName::kInception;
  if (flag == "resnet") return ModelName::kResNet;
  return std::nullopt;
}

DnnModel build_mobilenet_v1() {
  ModelBuilder b("MobileNet", 224, 3);
  LayerId x = b.conv_bn_relu(b.input_id(), 32, 3, 2, "conv1");

  // (out_channels of the pointwise conv, stride of the depthwise conv)
  const std::vector<std::pair<int, int>> blocks = {
      {64, 1},  {128, 2}, {128, 1}, {256, 2},  {256, 1},  {512, 2}, {512, 1},
      {512, 1}, {512, 1}, {512, 1}, {512, 1},  {1024, 2}, {1024, 1}};
  int idx = 2;
  for (auto [out_c, stride] : blocks) {
    const std::string p = "conv" + std::to_string(idx++);
    x = b.dwconv_bn_relu(x, 3, stride, p + "_dw");
    x = b.conv_bn_relu(x, out_c, 1, 1, p + "_pw");
  }
  x = b.global_pool(x, "avg_pool");
  x = b.fc(x, 1000, "fc7");
  b.softmax(x, "prob");
  return b.take();
}

DnnModel build_resnet50() {
  ModelBuilder b("ResNet", 224, 3);
  LayerId x = b.conv_bn_relu(b.input_id(), 64, 7, 2, "conv1");
  x = b.pool(x, 3, 2, "pool1");

  struct Stage {
    int blocks;
    int mid;
    int out;
  };
  const std::vector<Stage> stages = {{3, 64, 256},
                                     {4, 128, 512},
                                     {6, 256, 1024},
                                     {3, 512, 2048}};
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const auto& st = stages[s];
    for (int blk = 0; blk < st.blocks; ++blk) {
      const std::string p =
          "res" + std::to_string(s + 2) + static_cast<char>('a' + blk);
      // Spatial downsampling happens at the first block of stages 3..5.
      const int stride = (blk == 0 && s > 0) ? 2 : 1;
      LayerId shortcut = x;
      if (blk == 0) shortcut = b.conv_bn(x, st.out, 1, stride, p + "_proj");
      LayerId y = b.conv_bn_relu(x, st.mid, 1, 1, p + "_a");
      y = b.conv_bn_relu(y, st.mid, 3, stride, p + "_b");
      y = b.conv_bn(y, st.out, 1, 1, p + "_c");
      y = b.add(y, shortcut, p + "_add");
      x = b.relu(y, p);
    }
  }
  x = b.global_pool(x, "avg_pool");
  x = b.fc(x, 1000, "fc1000");
  b.softmax(x, "prob");
  return b.take();
}

namespace {

/// Channel configuration of one Inception-BN module. A zero branch width
/// means the branch is absent (stride-2 "reduction" modules drop the 1x1
/// branch and replace the pool projection with a pass-through pool).
struct InceptionModule {
  const char* name;
  int b1;               // 1x1 branch
  int b2_reduce, b2;    // 3x3 branch
  int b3_reduce, b3;    // double-3x3 branch (two 3x3 convs of width b3)
  int proj;             // pool projection; 0 -> pass-through pool
  int stride;           // 1 or 2 (applied to the 3x3 convs and the pool)
};

LayerId inception_module(ModelBuilder& b, LayerId in,
                         const InceptionModule& m) {
  std::vector<LayerId> branches;
  const std::string p = std::string("inc_") + m.name;
  if (m.b1 > 0) {
    PERDNN_CHECK(m.stride == 1);
    branches.push_back(b.conv_bn_relu(in, m.b1, 1, 1, p + "/b1"));
  }
  LayerId y = b.conv_bn_relu(in, m.b2_reduce, 1, 1, p + "/b2_reduce");
  branches.push_back(b.conv_bn_relu(y, m.b2, 3, m.stride, p + "/b2"));
  y = b.conv_bn_relu(in, m.b3_reduce, 1, 1, p + "/b3_reduce");
  y = b.conv_bn_relu(y, m.b3, 3, 1, p + "/b3a");
  branches.push_back(b.conv_bn_relu(y, m.b3, 3, m.stride, p + "/b3b"));
  LayerId pooled = b.pool(in, 3, m.stride, p + "/pool");
  if (m.proj > 0) pooled = b.conv_bn_relu(pooled, m.proj, 1, 1, p + "/proj");
  branches.push_back(pooled);
  return b.concat(branches, p + "/concat");
}

}  // namespace

DnnModel build_inception21k() {
  ModelBuilder b("Inception", 224, 3);
  LayerId x = b.conv_bn_relu(b.input_id(), 64, 7, 2, "conv1");
  x = b.pool(x, 3, 2, "pool1");
  x = b.conv_bn_relu(x, 64, 1, 1, "conv2_reduce");
  x = b.conv_bn_relu(x, 192, 3, 1, "conv2");
  x = b.pool(x, 3, 2, "pool2");

  const std::vector<InceptionModule> modules = {
      {"3a", 64, 64, 64, 64, 96, 32, 1},
      {"3b", 64, 64, 96, 64, 96, 64, 1},
      {"3c", 0, 128, 160, 64, 96, 0, 2},
      {"4a", 224, 64, 96, 96, 128, 128, 1},
      {"4b", 192, 96, 128, 96, 128, 128, 1},
      {"4c", 160, 128, 160, 128, 160, 96, 1},
      {"4d", 96, 128, 192, 160, 192, 96, 1},
      {"4e", 0, 128, 192, 192, 256, 0, 2},
      {"5a", 352, 192, 320, 160, 224, 128, 1},
      {"5b", 352, 192, 320, 192, 224, 128, 1},
  };
  for (const auto& m : modules) x = inception_module(b, x, m);

  x = b.global_pool(x, "global_pool");
  x = b.fc(x, 21841, "fc21k");
  b.softmax(x, "prob");
  return b.take();
}

DnnModel build_alexnet() {
  ModelBuilder b("AlexNet", 227, 3);
  // Caffe AlexNet: five conv blocks (no BN; LRN omitted as a no-weight
  // pointwise detail), three pooled stages, then the famous 4096-wide FCs.
  LayerId x = b.conv(b.input_id(), 96, 11, 4, "conv1");
  x = b.relu(x, "conv1");
  x = b.pool(x, 3, 2, "pool1");
  x = b.conv(x, 256, 5, 1, "conv2");
  x = b.relu(x, "conv2");
  x = b.pool(x, 3, 2, "pool2");
  x = b.conv(x, 384, 3, 1, "conv3");
  x = b.relu(x, "conv3");
  x = b.conv(x, 384, 3, 1, "conv4");
  x = b.relu(x, "conv4");
  x = b.conv(x, 256, 3, 1, "conv5");
  x = b.relu(x, "conv5");
  x = b.pool(x, 3, 2, "pool5");
  x = b.fc(x, 4096, "fc6");  // consumes the flattened pool5 volume
  x = b.relu(x, "fc6");
  x = b.fc(x, 4096, "fc7");
  x = b.relu(x, "fc7");
  x = b.fc(x, 1000, "fc8");
  b.softmax(x, "prob");
  return b.take();
}

DnnModel build_vgg16() {
  ModelBuilder b("VGG16", 224, 3);
  LayerId x = b.input_id();
  const int stage_channels[5] = {64, 128, 256, 512, 512};
  const int stage_convs[5] = {2, 2, 3, 3, 3};
  for (int stage = 0; stage < 5; ++stage) {
    for (int c = 0; c < stage_convs[stage]; ++c) {
      const std::string p = "conv" + std::to_string(stage + 1) + "_" +
                            std::to_string(c + 1);
      x = b.conv(x, stage_channels[stage], 3, 1, p);
      x = b.relu(x, p);
    }
    x = b.pool(x, 2, 2, "pool" + std::to_string(stage + 1));
  }
  x = b.fc(x, 4096, "fc6");  // the classic 7x7x512 -> 4096 flatten
  x = b.relu(x, "fc6");
  x = b.fc(x, 4096, "fc7");
  x = b.relu(x, "fc7");
  x = b.fc(x, 1000, "fc8");
  b.softmax(x, "prob");
  return b.take();
}

DnnModel build_model(ModelName name) {
  switch (name) {
    case ModelName::kMobileNet: return build_mobilenet_v1();
    case ModelName::kInception: return build_inception21k();
    case ModelName::kResNet: return build_resnet50();
  }
  PERDNN_CHECK_MSG(false, "unknown model");
}

DnnModel build_toy_model(int num_blocks) {
  PERDNN_CHECK(num_blocks >= 1);
  ModelBuilder b("Toy", 32, 3);
  LayerId x = b.input_id();
  for (int i = 0; i < num_blocks; ++i) {
    const std::string p = "block" + std::to_string(i);
    x = b.conv_bn_relu(x, 16 << std::min(i, 3), 3, i == 0 ? 1 : 2, p);
  }
  x = b.global_pool(x, "avg_pool");
  x = b.fc(x, 10, "fc");
  b.softmax(x, "prob");
  return b.take();
}

}  // namespace perdnn
