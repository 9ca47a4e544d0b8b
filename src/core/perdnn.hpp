// PerDNN public API.
//
// Downstream users interact with two entry points:
//
//   * OffloadingSession — single client vs a single edge server: builds the
//     model, profiles the client device, trains the server's GPU-aware
//     execution-time estimator, and exposes partitioning, upload planning
//     and query replay. Behind Fig 1 / Fig 7 / Table II and the quickstart.
//
//   * build_world() / run_simulation() (sim/simulator.hpp) — the pervasive
//     edge-server simulation with mobility prediction and proactive
//     migration. Behind Fig 9 / Fig 10 / Section 4.B.4. The engines play
//     the paper's master server (Fig 3) themselves: they plan partitions,
//     pick servers and order migrations inline from per-load tables.
//
// Everything else (nn, ml, partition, mobility, ...) is usable directly as
// well; this header pulls the common pieces together.
#pragma once

#include <memory>

#include "device/device_profile.hpp"
#include "device/gpu_model.hpp"
#include "device/profiler.hpp"
#include "edge/replay.hpp"
#include "estimation/estimator.hpp"
#include "net/network.hpp"
#include "nn/model_zoo.hpp"
#include "partition/energy.hpp"
#include "partition/mincut.hpp"
#include "partition/partition.hpp"
#include "partition/upload_order.hpp"
#include "serialize/serialize.hpp"

namespace perdnn {

/// Single client <-> single edge server session.
class OffloadingSession {
 public:
  struct Options {
    ModelName model = ModelName::kInception;
    NetworkCondition net;  // defaults to lab Wi-Fi numbers
    /// Concurrent clients sharing the server GPU (>= 1).
    int server_load = 1;
    DeviceProfile client_device;  // defaults to ODROID XU4
    DeviceProfile server_device;  // defaults to Titan Xp
    ProfilerConfig profiling;     // estimator training sweep
    std::uint64_t seed = 7;

    Options();
  };

  explicit OffloadingSession(const Options& options);

  const DnnModel& model() const { return model_; }
  const DnnProfile& client_profile() const { return client_profile_; }
  const GpuContentionModel& gpu() const { return *gpu_; }
  const RandomForestEstimator& estimator() const { return *estimator_; }
  const GpuStats& server_stats() const { return stats_; }

  /// Partitioning context. Estimated server times (what the master server
  /// plans with) or ground-truth expected times (what execution measures).
  PartitionContext context(bool use_true_times = false) const;

  /// Optimal partitioning plan under the estimated times.
  PartitionPlan best_plan() const;

  /// Efficiency-ordered upload schedule for a plan.
  UploadSchedule upload_schedule(
      const PartitionPlan& plan,
      UploadEnumeration enumeration = UploadEnumeration::kExact) const;

  /// Replays queries with ground-truth times while `schedule` uploads;
  /// `initial_bytes` of it are already at the server (proactive migration).
  ReplayResult replay(const UploadSchedule& schedule, Bytes initial_bytes,
                      const ReplayConfig& config) const;

  /// Full on-device latency (no offloading).
  Seconds local_latency() const;

 private:
  Options options_;
  DnnModel model_;
  DnnProfile client_profile_;
  std::shared_ptr<GpuContentionModel> gpu_;
  std::shared_ptr<RandomForestEstimator> estimator_;
  GpuStats stats_;
  std::vector<Seconds> estimated_times_;
  std::vector<Seconds> true_times_;
};

}  // namespace perdnn
