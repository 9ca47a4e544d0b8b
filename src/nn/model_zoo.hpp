// Builders for the three evaluation models of the paper (Table I):
//
//   MobileNet  — MobileNet v1, ~110 layers, ~16 MB
//   Inception  — Inception-BN with a 21k-class head, ~312 layers, ~128 MB
//   ResNet     — ResNet-50, ~245 layers, ~98 MB
//
// The structures are reconstructed from the published architectures with
// caffe-style layer granularity (conv / bn / scale / relu counted
// separately, as the paper's layer counts imply). Weight bytes, activation
// sizes, and FLOPs are computed from the hyperparameters at fp32, which
// lands the total model sizes on the paper's numbers (upload time at
// 35 Mbps then matches Table II: 3.7 / 29.3 / 22.4 s).
//
// Inception's distinguishing property — compute-dense conv layers up front
// and a huge but cheap 21k-way FC at the end — emerges naturally from the
// structure and drives the paper's fractional-migration result.
#pragma once

#include <optional>
#include <string_view>

#include "nn/model.hpp"

namespace perdnn {

enum class ModelName { kMobileNet, kInception, kResNet };

const char* model_name_str(ModelName name);
/// The model a lowercase command-line flag names: `mobilenet`, `inception`
/// or `resnet`. Any other name gives nullopt.
std::optional<ModelName> model_from_flag(std::string_view flag);

DnnModel build_mobilenet_v1();
DnnModel build_inception21k();
DnnModel build_resnet50();
DnnModel build_model(ModelName name);

/// Beyond the paper's Table I: the classic offloading-literature models
/// (IONN evaluates AlexNet; VGG is the canonical "fat FC tail" stressor).
DnnModel build_alexnet();   // ~350 MB at our 'same'-padding geometry; FC-dominated
DnnModel build_vgg16();     // ~528 MB, heavy everywhere

/// Small linear conv stack (input + n blocks of conv/bn/relu + fc + softmax)
/// for unit tests that need a model but not a realistic one.
DnnModel build_toy_model(int num_blocks);

}  // namespace perdnn
