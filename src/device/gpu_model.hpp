// Ground-truth GPU contention model and synthetic nvml statistics.
//
// The paper profiles a real Titan Xp under concurrent inference streams
// (TensorRT perf_client) and records nvml statistics with each request. We
// substitute a contention model with the same causal structure:
//
//   * every layer's latency is inflated by a slowdown factor that is a
//     *non-linear* function of the instantaneous GPU load;
//   * the instantaneous load fluctuates around the nominal number of
//     concurrent clients, with amplitude growing with the client count
//     (scheduling jitter — the reason hyperparameter-only estimators degrade
//     at high concurrency, Fig 4);
//   * nvml-like statistics (kernel/memory utilisation, temperature, memory
//     usage) are noisy observations of that instantaneous load, which is why
//     estimators that consume them beat estimators that do not.
#pragma once

#include "common/rng.hpp"
#include "common/types.hpp"
#include "device/device_profile.hpp"
#include "nn/layer.hpp"

namespace perdnn {

/// nvml-style snapshot an edge server reports to the master server.
struct GpuStats {
  int num_clients = 0;        ///< concurrent offloading clients (server knows this)
  double kernel_util = 0.0;   ///< % time kernels executing over sample period
  double mem_util = 0.0;      ///< % time memory ops active
  double mem_usage_mb = 0.0;  ///< allocated device memory
  double temperature_c = 0.0; ///< GPU core temperature
  /// Statistics intervals since this snapshot was taken. 0 = fresh (the
  /// normal case); a positive age marks a snapshot the control plane kept
  /// because newer telemetry never arrived (fault: telemetry dropout).
  /// Both engines mark the statistics behind their telemetry-dropout plans
  /// (built with the load-free fallback estimator) with age 1; the
  /// estimators themselves never read it as a feature.
  int age_intervals = 0;
};

struct GpuContentionConfig {
  /// Linear contention coefficient per extra client.
  double linear_slowdown = 0.45;
  /// Super-linear exponent modelling cache/memory-bus interference.
  double slowdown_exponent = 1.25;
  /// Relative load fluctuation at 1 client ...
  double base_jitter = 0.03;
  /// ... plus this much per additional client.
  double jitter_per_client = 0.035;
  /// Multiplicative measurement noise on layer latency.
  double latency_noise = 0.04;
  /// Observation noise on utilisation statistics (percentage points).
  double stats_noise = 2.0;
};

class GpuContentionModel {
 public:
  GpuContentionModel(DeviceProfile server, GpuContentionConfig config = {});

  /// Deterministic slowdown for a given *effective* (instantaneous) load.
  /// effective_load = 1 means an uncontended GPU.
  double slowdown(double effective_load) const;

  /// Draws the instantaneous load around a nominal client count.
  double sample_effective_load(int num_clients, Rng& rng) const;

  /// nvml statistics consistent with an effective load.
  GpuStats stats_for_load(int num_clients, double effective_load,
                          Rng& rng) const;

  /// Ground-truth layer latency under the given effective load, with
  /// measurement noise. `layer_input_bytes` as in layer_time_on().
  Seconds layer_time(const LayerSpec& layer, Bytes layer_input_bytes,
                     double effective_load, Rng& rng) const;

  /// Expected (noise-free) layer latency at the *nominal* load; the
  /// simulator uses this as the true service time contribution.
  Seconds expected_layer_time(const LayerSpec& layer, Bytes layer_input_bytes,
                              double effective_load) const;

  const DeviceProfile& server() const { return server_; }
  const GpuContentionConfig& config() const { return config_; }

 private:
  DeviceProfile server_;
  GpuContentionConfig config_;
};

}  // namespace perdnn
