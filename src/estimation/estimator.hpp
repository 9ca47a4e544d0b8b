// Layer execution-time estimators (Section 3.C.1).
//
// Three families, mirroring Fig 4:
//   * NeurosurgeonEstimator ("LL")          — linear/log regression on layer
//     hyperparameters only, one model per (layer type, nominal client count);
//   * LoadAwareLinearEstimator ("LL+load")  — the same regression family but
//     with the GPU statistics appended to the features;
//   * RandomForestEstimator ("RF+load")     — the paper's estimator: one
//     random forest per layer type over hyperparameters + GPU statistics.
//
// All estimators train on ProfileRecords produced by the ConcurrencyProfiler
// and expose the same estimate() used by the DNN partitioner.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "device/profiler.hpp"
#include "estimation/features.hpp"
#include "ml/flat_forest.hpp"
#include "ml/gbt.hpp"
#include "ml/linear_model.hpp"
#include "ml/random_forest.hpp"

namespace perdnn {

class LayerTimeEstimator {
 public:
  virtual ~LayerTimeEstimator() = default;

  /// Trains from profiling records. Must be called before estimate().
  virtual void train(const std::vector<ProfileRecord>& records, Rng& rng) = 0;

  /// Estimated server-side execution time of one layer under the observed
  /// GPU state. Never negative.
  virtual Seconds estimate(const LayerSpec& layer, Bytes input_bytes,
                           const GpuStats& stats) const = 0;

  /// Batch estimate for every layer of a model under one GPU state — the
  /// shape every plan-building call site needs. Layers are independent, so
  /// the loop fans out across the parallel runtime; results are positional
  /// and bit-identical to calling estimate() serially. estimate() must be
  /// const-thread-safe (all built-in estimators are: trained models are
  /// immutable after train()).
  std::vector<Seconds> estimate_model(const DnnModel& model,
                                      const GpuStats& stats) const;

  /// In-place form of estimate_model(): writes exactly model.num_layers()
  /// entries to `out`. The base implementation fans the per-layer
  /// estimate() loop across the parallel runtime; the forest-backed
  /// estimators override it with a batched kernel that assembles one
  /// feature matrix and pushes each layer-kind group through
  /// FlatForest::predict_batch_into. Results are positionally bit-identical
  /// either way.
  virtual void estimate_model_into(const DnnModel& model,
                                   const GpuStats& stats, Seconds* out) const;

  virtual std::string name() const = 0;
};

/// NeuroSurgeon-style baseline: per (layer kind, #clients) linear/log model
/// on hyperparameters only. Unseen client counts clamp to the nearest
/// trained level; unseen layer kinds fall back to a global model.
class NeurosurgeonEstimator : public LayerTimeEstimator {
 public:
  void train(const std::vector<ProfileRecord>& records, Rng& rng) override;
  Seconds estimate(const LayerSpec& layer, Bytes input_bytes,
                   const GpuStats& stats) const override;
  std::string name() const override { return "LL"; }

 private:
  std::map<std::pair<LayerKind, int>, ml::RidgeRegression> models_;
  std::map<LayerKind, ml::RidgeRegression> kind_fallback_;
  /// Train-time index for the nearest-client-count fallback: per kind, the
  /// trained client counts with their models, sorted by count (map nodes are
  /// stable, so the pointers survive). Replaces a linear scan of `models_`
  /// on every estimate() whose exact (kind, count) bucket is missing.
  std::map<LayerKind, std::vector<std::pair<int, const ml::RidgeRegression*>>>
      count_index_;
};

/// LL augmented with GPU load features (the paper's "LL w/ server load
/// info" ablation).
class LoadAwareLinearEstimator : public LayerTimeEstimator {
 public:
  void train(const std::vector<ProfileRecord>& records, Rng& rng) override;
  Seconds estimate(const LayerSpec& layer, Bytes input_bytes,
                   const GpuStats& stats) const override;
  std::string name() const override { return "LL+load"; }

 private:
  std::map<LayerKind, ml::RidgeRegression> models_;
  std::unique_ptr<ml::RidgeRegression> global_;
};

struct RandomForestEstimatorConfig {
  ml::ForestConfig forest;
};

/// The paper's estimator: per layer kind random forests over hyperparameters
/// and GPU statistics; exposes impurity feature importances (Fig 4, right).
class RandomForestEstimator : public LayerTimeEstimator {
 public:
  explicit RandomForestEstimator(RandomForestEstimatorConfig config = {});

  void train(const std::vector<ProfileRecord>& records, Rng& rng) override;
  Seconds estimate(const LayerSpec& layer, Bytes input_bytes,
                   const GpuStats& stats) const override;
  void estimate_model_into(const DnnModel& model, const GpuStats& stats,
                           Seconds* out) const override;
  std::string name() const override { return "RF+load"; }

  /// Normalised importances for the given kind, aligned with
  /// combined_feature_names(); empty if that kind was never trained.
  Vector feature_importance(LayerKind kind) const;

 private:
  RandomForestEstimatorConfig config_;
  /// Per-kind forests compiled to the SoA layout at train time (predictions
  /// bit-identical to the source forests, which are not kept).
  std::map<LayerKind, ml::FlatForest> flat_;
  /// Impurity importances of each source forest, captured before it is
  /// discarded.
  std::map<LayerKind, Vector> importance_;
  std::unique_ptr<ml::RidgeRegression> global_;
};

/// Extension beyond the paper: per-kind gradient-boosted trees over the same
/// combined features. Compared against the random forest in the benches.
class GradientBoostedEstimator : public LayerTimeEstimator {
 public:
  explicit GradientBoostedEstimator(ml::GbtConfig config = {});

  void train(const std::vector<ProfileRecord>& records, Rng& rng) override;
  Seconds estimate(const LayerSpec& layer, Bytes input_bytes,
                   const GpuStats& stats) const override;
  void estimate_model_into(const DnnModel& model, const GpuStats& stats,
                           Seconds* out) const override;
  std::string name() const override { return "GBT+load"; }

 private:
  ml::GbtConfig config_;
  std::map<LayerKind, ml::FlatForest> flat_;  // compiled per-kind ensembles
  std::unique_ptr<ml::RidgeRegression> global_;
};

/// MAE of an estimator over records (optionally restricted to one nominal
/// client count and/or one layer kind; pass -1 / nullopt-like defaults).
double estimator_mae(const LayerTimeEstimator& estimator,
                     const std::vector<ProfileRecord>& records,
                     int num_clients = -1,
                     LayerKind kind = LayerKind::kInput);

}  // namespace perdnn
