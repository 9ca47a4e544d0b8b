#include "edge/master.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perdnn {

MasterServer::MasterServer(std::shared_ptr<const ServerMap> servers,
                           std::shared_ptr<const LayerTimeEstimator> estimator,
                           std::shared_ptr<const MobilityPredictor> predictor,
                           Config config)
    : servers_(std::move(servers)),
      estimator_(std::move(estimator)),
      predictor_(std::move(predictor)),
      config_(config) {
  PERDNN_CHECK(servers_ != nullptr);
  PERDNN_CHECK(estimator_ != nullptr);
  PERDNN_CHECK(predictor_ != nullptr);
  PERDNN_CHECK(config_.migration_radius_m >= 0.0);
}

MasterServer::MasterServer(std::shared_ptr<const ServerMap> servers,
                           std::shared_ptr<const LayerTimeEstimator> estimator,
                           std::shared_ptr<const MobilityPredictor> predictor)
    : MasterServer(std::move(servers), std::move(estimator),
                   std::move(predictor), Config{}) {}

ClientId MasterServer::register_client(DnnModel model, DnnProfile profile) {
  model.validate();
  PERDNN_CHECK_MSG(profile.client_time.size() ==
                       static_cast<std::size_t>(model.num_layers()),
                   "profile layer count does not match the model");
  const auto id = static_cast<ClientId>(clients_.size());
  clients_.push_back({std::move(model), std::move(profile), {}});
  return id;
}

void MasterServer::set_fallback_estimator(
    std::shared_ptr<const LayerTimeEstimator> fallback) {
  fallback_estimator_ = std::move(fallback);
}

const MasterServer::ClientRecord& MasterServer::record(
    ClientId client) const {
  PERDNN_CHECK_MSG(client >= 0 && client < num_clients(),
                   "unknown client " << client);
  return clients_[static_cast<std::size_t>(client)];
}

const DnnModel& MasterServer::client_model(ClientId client) const {
  return record(client).model;
}

void MasterServer::report_location(ClientId client, Point p) {
  PERDNN_CHECK(client >= 0 && client < num_clients());
  clients_[static_cast<std::size_t>(client)].trajectory.push_back(p);
}

std::span<const Point> MasterServer::trajectory(ClientId client) const {
  return record(client).trajectory;
}

PartitionContext MasterServer::context_for(const ClientRecord& rec,
                                           const GpuStats& stats) const {
  // Degraded-mode estimation: stale telemetry means the load-aware features
  // describe a GPU state that no longer exists, so route the plan through
  // the load-free fallback instead of trusting them.
  const bool stale = stats.age_intervals > config_.max_stats_age_intervals;
  const LayerTimeEstimator* estimator = estimator_.get();
  if (stale && fallback_estimator_ != nullptr) {
    estimator = fallback_estimator_.get();
    ++degraded_estimates_;
    obs::count("estimation.degraded");
  }
  PartitionContext context;
  context.model = &rec.model;
  context.client_profile = &rec.profile;
  context.net = config_.wireless;
  context.server_time = estimator->estimate_model(rec.model, stats);
  return context;
}

PartitionPlan MasterServer::current_plan(ClientId client,
                                         const GpuStats& stats) const {
  return compute_best_plan(context_for(record(client), stats));
}

UploadSchedule MasterServer::upload_schedule(ClientId client,
                                             const PartitionPlan& plan,
                                             const GpuStats& stats) const {
  return plan_upload_order(context_for(record(client), stats), plan,
                           {.enumeration = config_.upload_enumeration});
}

std::optional<MasterServer::ServerChoice> MasterServer::select_server(
    ClientId client, std::span<const ServerId> candidates,
    const StatsProvider& stats_of) const {
  PERDNN_SPAN("master.select_server");
  obs::count("master.server_selections");
  PERDNN_CHECK(stats_of != nullptr);
  const ClientRecord& rec = record(client);
  std::optional<ServerChoice> best;
  for (ServerId candidate : candidates) {
    PartitionPlan plan =
        compute_best_plan(context_for(rec, stats_of(candidate)));
    if (!best || plan.latency < best->plan.latency)
      best = ServerChoice{candidate, std::move(plan)};
  }
  return best;
}

std::vector<MasterServer::MigrationOrder> MasterServer::plan_migrations(
    ClientId client, ServerId current_server,
    const std::vector<bool>& source_available, const StatsProvider& stats_of,
    std::optional<Bytes> byte_budget) const {
  PERDNN_SPAN("master.plan_migrations");
  PERDNN_CHECK(stats_of != nullptr);
  const ClientRecord& rec = record(client);
  PERDNN_CHECK(source_available.size() ==
               static_cast<std::size_t>(rec.model.num_layers()));

  const auto n = static_cast<std::size_t>(predictor_->trajectory_length());
  if (rec.trajectory.size() < n) return {};
  const Point predicted = predictor_->predict(rec.trajectory);

  std::vector<MigrationOrder> orders;
  for (ServerId target :
       servers_->servers_within(predicted, config_.migration_radius_m)) {
    if (target == current_server) continue;

    MigrationOrder order;
    order.target = target;
    const GpuStats stats = stats_of(target);
    const PartitionContext context = context_for(rec, stats);
    order.future_plan = compute_best_plan(context);

    // Efficiency-ordered schedule of the future plan, restricted to layers
    // the source actually has ("it sends layers as many as possible").
    const UploadSchedule schedule = plan_upload_order(
        context, order.future_plan, {.enumeration = config_.upload_enumeration});
    for (LayerId id : schedule.order) {
      if (!source_available[static_cast<std::size_t>(id)]) continue;
      const Bytes weight = rec.model.layer(id).weight_bytes;
      if (byte_budget && order.bytes + weight > *byte_budget) break;
      order.layers.push_back(id);
      order.bytes += weight;
    }
    orders.push_back(std::move(order));
  }
  if (obs::enabled() && !orders.empty()) {
    Bytes bytes = 0;
    for (const MigrationOrder& order : orders) bytes += order.bytes;
    obs::count("master.migration_orders", static_cast<double>(orders.size()));
    obs::count("master.migration_bytes", static_cast<double>(bytes));
  }
  return orders;
}

}  // namespace perdnn
