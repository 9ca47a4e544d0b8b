#include "estimation/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perdnn {

namespace {

constexpr Seconds kMinEstimate = 1e-7;

Seconds clamp_estimate(double value) { return std::max(kMinEstimate, value); }

// Reusable per-thread feature buffer: estimate() is const-thread-safe and
// runs under par::parallel_for, so the scratch must be thread-local. After
// the first call on a thread the resize is a no-op and the estimate path
// performs no heap allocation for feature assembly.
Vector& feature_scratch() {
  thread_local Vector scratch;
  return scratch;
}

// Shared batched estimate_model for the forest-backed estimators: one
// feature-matrix assembly for the whole model, then each layer-kind group
// packed contiguously and pushed through its flat ensemble's batch kernel.
// Layer kinds without a compiled forest fall back to the global ridge, as
// the scalar path does; the output is positionally bit-identical to the
// per-layer estimate() loop because predict_batch_into is bit-identical to
// predict() per row.
void forest_estimate_model_into(
    const std::map<LayerKind, ml::FlatForest>& forests,
    const ml::RidgeRegression& global, const DnnModel& model,
    const GpuStats& stats, Seconds* out) {
  const auto n = static_cast<std::size_t>(model.num_layers());
  if (n == 0) return;
  const std::size_t stride = combined_feature_count();
  // All scratch is thread-local: this runs on the serial control plane but
  // also under estimate_model() calls issued from parallel regions.
  thread_local std::vector<double> rows;
  thread_local std::vector<double> packed;
  thread_local std::vector<double> predictions;
  thread_local std::vector<std::int32_t> group;
  thread_local std::vector<char> covered;
  rows.resize(n * stride);
  combined_features_rows(model, stats, rows.data(), stride);
  covered.assign(n, 0);
  for (const auto& [kind, forest] : forests) {
    group.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (model.layer(static_cast<LayerId>(i)).kind == kind)
        group.push_back(static_cast<std::int32_t>(i));
    }
    if (group.empty()) continue;
    packed.resize(group.size() * stride);
    for (std::size_t j = 0; j < group.size(); ++j) {
      std::copy_n(rows.data() + static_cast<std::size_t>(group[j]) * stride,
                  stride, packed.data() + j * stride);
    }
    predictions.resize(group.size());
    forest.predict_batch_into(packed.data(), stride, group.size(),
                              predictions.data());
    for (std::size_t j = 0; j < group.size(); ++j) {
      out[group[j]] = clamp_estimate(predictions[j]);
      covered[static_cast<std::size_t>(group[j])] = 1;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (covered[i]) continue;
    Vector& feats = feature_scratch();
    feats.assign(rows.data() + i * stride, rows.data() + i * stride + stride);
    out[i] = clamp_estimate(global.predict(feats));
  }
}

}  // namespace

void LayerTimeEstimator::estimate_model_into(const DnnModel& model,
                                             const GpuStats& stats,
                                             Seconds* out) const {
  const auto n = static_cast<std::size_t>(model.num_layers());
  par::parallel_for(n, [&](std::size_t i) {
    const auto id = static_cast<LayerId>(i);
    out[i] = estimate(model.layer(id), model.input_bytes(id), stats);
  });
}

std::vector<Seconds> LayerTimeEstimator::estimate_model(
    const DnnModel& model, const GpuStats& stats) const {
  std::vector<Seconds> times(static_cast<std::size_t>(model.num_layers()));
  estimate_model_into(model, stats, times.data());
  return times;
}

// ---------------------------------------------------------------- LL

void NeurosurgeonEstimator::train(const std::vector<ProfileRecord>& records,
                                  Rng& /*rng*/) {
  PERDNN_CHECK(!records.empty());
  models_.clear();
  kind_fallback_.clear();
  count_index_.clear();

  std::map<std::pair<LayerKind, int>, ml::Dataset> buckets;
  std::map<LayerKind, ml::Dataset> kind_buckets;
  for (const auto& rec : records) {
    const Vector feats = layer_features(rec.layer, rec.input_bytes);
    buckets[{rec.layer.kind, rec.stats.num_clients}].add(feats, rec.time);
    kind_buckets[rec.layer.kind].add(feats, rec.time);
  }
  const ml::RidgeConfig config{.ridge = 1e-4, .log_features = true};
  for (auto& [key, data] : buckets) {
    if (data.size() < 4) continue;  // too few samples for a stable solve
    ml::RidgeRegression model(config);
    model.fit(data);
    models_.emplace(key, std::move(model));
  }
  for (auto& [kind, data] : kind_buckets) {
    if (data.size() < 4) continue;
    ml::RidgeRegression model(config);
    model.fit(data);
    kind_fallback_.emplace(kind, std::move(model));
  }
  PERDNN_CHECK_MSG(!models_.empty() || !kind_fallback_.empty(),
                   "no bucket had enough samples to train");
  // models_ iterates in (kind, count) order, so per-kind vectors come out
  // already sorted by client count — ready for binary search in estimate().
  for (const auto& [key, model] : models_)
    count_index_[key.first].emplace_back(key.second, &model);
}

Seconds NeurosurgeonEstimator::estimate(const LayerSpec& layer,
                                        Bytes input_bytes,
                                        const GpuStats& stats) const {
  Vector& feats = feature_scratch();
  layer_features_into(layer, input_bytes, feats);
  // Exact (kind, clients) bucket if we have it...
  const ml::RidgeRegression* model = nullptr;
  const auto it = models_.find({layer.kind, stats.num_clients});
  if (it != models_.end()) {
    model = &it->second;
  } else if (const auto idx = count_index_.find(layer.kind);
             idx != count_index_.end()) {
    // ... else the nearest trained client count for this kind; ties go to
    // the lower count, matching the original ascending scan.
    const auto& counts = idx->second;
    const auto hi = std::lower_bound(
        counts.begin(), counts.end(), stats.num_clients,
        [](const auto& entry, int value) { return entry.first < value; });
    if (hi == counts.begin()) {
      model = hi->second;
    } else if (hi == counts.end()) {
      model = std::prev(hi)->second;
    } else {
      const auto lo = std::prev(hi);
      const int delta_lo = stats.num_clients - lo->first;
      const int delta_hi = hi->first - stats.num_clients;
      model = delta_lo <= delta_hi ? lo->second : hi->second;
    }
  }
  if (model != nullptr) return clamp_estimate(model->predict(feats));
  const auto fb = kind_fallback_.find(layer.kind);
  if (fb != kind_fallback_.end())
    return clamp_estimate(fb->second.predict(feats));
  return kMinEstimate;  // never-profiled kind: treat as negligible
}

// ---------------------------------------------------------------- LL+load

void LoadAwareLinearEstimator::train(const std::vector<ProfileRecord>& records,
                                     Rng& /*rng*/) {
  PERDNN_CHECK(!records.empty());
  models_.clear();

  std::map<LayerKind, ml::Dataset> buckets;
  ml::Dataset all;
  for (const auto& rec : records) {
    const Vector feats =
        combined_features(rec.layer, rec.input_bytes, rec.stats);
    buckets[rec.layer.kind].add(feats, rec.time);
    all.add(feats, rec.time);
  }
  const ml::RidgeConfig config{.ridge = 1e-4, .log_features = true};
  for (auto& [kind, data] : buckets) {
    if (data.size() < 8) continue;
    ml::RidgeRegression model(config);
    model.fit(data);
    models_.emplace(kind, std::move(model));
  }
  global_ = std::make_unique<ml::RidgeRegression>(config);
  global_->fit(all);
}

Seconds LoadAwareLinearEstimator::estimate(const LayerSpec& layer,
                                           Bytes input_bytes,
                                           const GpuStats& stats) const {
  PERDNN_CHECK_MSG(global_ != nullptr, "estimate() before train()");
  Vector& feats = feature_scratch();
  combined_features_into(layer, input_bytes, stats, feats);
  const auto it = models_.find(layer.kind);
  if (it != models_.end()) return clamp_estimate(it->second.predict(feats));
  return clamp_estimate(global_->predict(feats));
}

// ---------------------------------------------------------------- RF+load

RandomForestEstimator::RandomForestEstimator(
    RandomForestEstimatorConfig config)
    : config_(config) {}

void RandomForestEstimator::train(const std::vector<ProfileRecord>& records,
                                  Rng& rng) {
  PERDNN_SPAN("estimator.train");
  obs::count("estimator.train_records", static_cast<double>(records.size()));
  PERDNN_CHECK(!records.empty());
  flat_.clear();
  importance_.clear();

  std::map<LayerKind, ml::Dataset> buckets;
  ml::Dataset all;
  for (const auto& rec : records) {
    const Vector feats =
        combined_features(rec.layer, rec.input_bytes, rec.stats);
    buckets[rec.layer.kind].add(feats, rec.time);
    all.add(feats, rec.time);
  }
  for (auto& [kind, data] : buckets) {
    if (data.size() < 16) continue;
    ml::RandomForest forest(config_.forest);
    forest.fit(data, rng);
    flat_.emplace(kind, ml::FlatForest::compile(forest));
    importance_.emplace(kind, forest.feature_importance());
  }
  const ml::RidgeConfig linear_config{.ridge = 1e-4, .log_features = true};
  global_ = std::make_unique<ml::RidgeRegression>(linear_config);
  global_->fit(all);
}

Seconds RandomForestEstimator::estimate(const LayerSpec& layer,
                                        Bytes input_bytes,
                                        const GpuStats& stats) const {
  obs::count("estimator.estimates");
  PERDNN_CHECK_MSG(global_ != nullptr, "estimate() before train()");
  Vector& feats = feature_scratch();
  combined_features_into(layer, input_bytes, stats, feats);
  const auto it = flat_.find(layer.kind);
  if (it != flat_.end()) return clamp_estimate(it->second.predict(feats));
  return clamp_estimate(global_->predict(feats));
}

void RandomForestEstimator::estimate_model_into(const DnnModel& model,
                                                const GpuStats& stats,
                                                Seconds* out) const {
  PERDNN_CHECK_MSG(global_ != nullptr, "estimate_model() before train()");
  // One count per layer, matching the per-call counter in estimate().
  obs::count("estimator.estimates", static_cast<double>(model.num_layers()));
  forest_estimate_model_into(flat_, *global_, model, stats, out);
}

Vector RandomForestEstimator::feature_importance(LayerKind kind) const {
  const auto it = importance_.find(kind);
  if (it == importance_.end()) return {};
  return it->second;
}

// ---------------------------------------------------------------- GBT+load

GradientBoostedEstimator::GradientBoostedEstimator(ml::GbtConfig config)
    : config_(config) {}

void GradientBoostedEstimator::train(const std::vector<ProfileRecord>& records,
                                     Rng& rng) {
  PERDNN_CHECK(!records.empty());
  flat_.clear();

  std::map<LayerKind, ml::Dataset> buckets;
  ml::Dataset all;
  for (const auto& rec : records) {
    const Vector feats =
        combined_features(rec.layer, rec.input_bytes, rec.stats);
    buckets[rec.layer.kind].add(feats, rec.time);
    all.add(feats, rec.time);
  }
  for (auto& [kind, data] : buckets) {
    if (data.size() < 16) continue;
    ml::GradientBoostedTrees model(config_);
    model.fit(data, rng);
    flat_.emplace(kind, ml::FlatForest::compile(model));
  }
  const ml::RidgeConfig linear_config{.ridge = 1e-4, .log_features = true};
  global_ = std::make_unique<ml::RidgeRegression>(linear_config);
  global_->fit(all);
}

Seconds GradientBoostedEstimator::estimate(const LayerSpec& layer,
                                           Bytes input_bytes,
                                           const GpuStats& stats) const {
  PERDNN_CHECK_MSG(global_ != nullptr, "estimate() before train()");
  Vector& feats = feature_scratch();
  combined_features_into(layer, input_bytes, stats, feats);
  const auto it = flat_.find(layer.kind);
  if (it != flat_.end()) return clamp_estimate(it->second.predict(feats));
  return clamp_estimate(global_->predict(feats));
}

void GradientBoostedEstimator::estimate_model_into(const DnnModel& model,
                                                   const GpuStats& stats,
                                                   Seconds* out) const {
  PERDNN_CHECK_MSG(global_ != nullptr, "estimate_model() before train()");
  forest_estimate_model_into(flat_, *global_, model, stats, out);
}

// ---------------------------------------------------------------- eval

double estimator_mae(const LayerTimeEstimator& estimator,
                     const std::vector<ProfileRecord>& records,
                     int num_clients, LayerKind kind) {
  std::vector<double> predicted;
  std::vector<double> actual;
  predicted.reserve(records.size());
  actual.reserve(records.size());
  for (const auto& rec : records) {
    if (num_clients >= 0 && rec.stats.num_clients != num_clients) continue;
    if (kind != LayerKind::kInput && rec.layer.kind != kind) continue;
    predicted.push_back(
        estimator.estimate(rec.layer, rec.input_bytes, rec.stats));
    actual.push_back(rec.time);
  }
  return mean_absolute_error(predicted, actual);
}

}  // namespace perdnn
