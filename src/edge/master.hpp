// The master server (Fig 3): the control-plane component that owns client
// registrations (DNN profile + trajectory), derives current and future
// partitioning plans from live edge-server GPU statistics, performs
// GPU-aware server selection, and issues proactive-migration orders.
//
// The large-scale simulator inlines this logic for speed; MasterServer is
// the library-grade embodiment for downstream users driving real (or mock)
// edge fleets. GPU statistics are supplied through a callback so the caller
// decides how servers are polled ("the master server pings an edge server to
// obtain the current server workload", Section 3.C.1).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "estimation/estimator.hpp"
#include "geo/server_map.hpp"
#include "mobility/predictor.hpp"
#include "partition/upload_order.hpp"

namespace perdnn {

class MasterServer {
 public:
  struct Config {
    double migration_radius_m = 50.0;  ///< r around the predicted location
    NetworkCondition wireless{};       ///< client <-> edge access link
    UploadEnumeration upload_enumeration = UploadEnumeration::kAnchored;
    /// Degraded-mode estimation: GpuStats older than this many statistics
    /// intervals (GpuStats::age_intervals) are considered stale. When a
    /// fallback estimator is installed (set_fallback_estimator), stale or
    /// missing telemetry routes planning through it — the load-free baseline
    /// — instead of feeding the load-aware model fiction; each degraded plan
    /// bumps the `estimation.degraded` counter. Without a fallback the
    /// primary estimator is used regardless (back-compat).
    int max_stats_age_intervals = 0;
  };

  /// Callback answering "what does server s report right now" (nvml ping).
  using StatsProvider = std::function<GpuStats(ServerId)>;

  MasterServer(std::shared_ptr<const ServerMap> servers,
               std::shared_ptr<const LayerTimeEstimator> estimator,
               std::shared_ptr<const MobilityPredictor> predictor,
               Config config);
  /// Default-configured master server.
  MasterServer(std::shared_ptr<const ServerMap> servers,
               std::shared_ptr<const LayerTimeEstimator> estimator,
               std::shared_ptr<const MobilityPredictor> predictor);

  /// Client registration: uploads the DNN profile (layer metadata and
  /// client-side execution times — never weights). Returns the client's id.
  ClientId register_client(DnnModel model, DnnProfile profile);

  int num_clients() const { return static_cast<int>(clients_.size()); }
  const DnnModel& client_model(ClientId client) const;

  /// Periodic location report; the master keeps the full recent trajectory.
  void report_location(ClientId client, Point p);
  std::span<const Point> trajectory(ClientId client) const;

  /// Current partitioning plan for the client offloading to a server whose
  /// live statistics are `stats` (Section 3.B.1).
  PartitionPlan current_plan(ClientId client, const GpuStats& stats) const;

  /// Efficiency-ordered upload schedule for a plan.
  UploadSchedule upload_schedule(ClientId client, const PartitionPlan& plan,
                                 const GpuStats& stats) const;

  struct ServerChoice {
    ServerId server = kNoServer;
    PartitionPlan plan;
  };

  /// GPU-aware server selection: evaluates the partitioning algorithm
  /// against every candidate and returns the one promising the lowest
  /// latency (Section 3.C.2 — crowded servers quote longer times, so load
  /// balances automatically). nullopt if `candidates` is empty.
  std::optional<ServerChoice> select_server(
      ClientId client, std::span<const ServerId> candidates,
      const StatsProvider& stats_of) const;

  struct MigrationOrder {
    ServerId target = kNoServer;
    PartitionPlan future_plan;
    /// Layers to ship, in efficiency order, already filtered to what the
    /// source actually holds (`source_available`).
    std::vector<LayerId> layers;
    Bytes bytes = 0;
  };

  /// Predicts the client's next location and builds one migration order per
  /// edge server within the configured radius (Section 3.B.2). Empty when
  /// the trajectory is still shorter than the predictor needs, or when the
  /// prediction stays under the current server only.
  std::vector<MigrationOrder> plan_migrations(
      ClientId client, ServerId current_server,
      const std::vector<bool>& source_available,
      const StatsProvider& stats_of,
      std::optional<Bytes> byte_budget = std::nullopt) const;

  /// Installs the load-free estimator used when a server's GPU telemetry is
  /// stale or missing (see Config::max_stats_age_intervals). Pass nullptr to
  /// remove it.
  void set_fallback_estimator(
      std::shared_ptr<const LayerTimeEstimator> fallback);

  /// Number of plans built in degraded mode (stale telemetry routed to the
  /// fallback estimator) since construction.
  std::uint64_t degraded_estimates() const { return degraded_estimates_; }

 private:
  struct ClientRecord {
    DnnModel model;
    DnnProfile profile;
    std::vector<Point> trajectory;
  };

  const ClientRecord& record(ClientId client) const;
  PartitionContext context_for(const ClientRecord& rec,
                               const GpuStats& stats) const;

  std::shared_ptr<const ServerMap> servers_;
  std::shared_ptr<const LayerTimeEstimator> estimator_;
  std::shared_ptr<const LayerTimeEstimator> fallback_estimator_;
  std::shared_ptr<const MobilityPredictor> predictor_;
  Config config_;
  mutable std::uint64_t degraded_estimates_ = 0;
  std::vector<ClientRecord> clients_;
};

}  // namespace perdnn
