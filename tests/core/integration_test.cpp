// End-to-end integration through the library calls both engines make, wired
// by hand (no simulator): the mobility predictor places the client's next
// position from its recent points, every edge server within the migration
// radius is seeded with the server-side layers of the plan it would run at
// its own GPU statistics, and when the client arrives its cold start is a
// hit.
#include <gtest/gtest.h>

#include "core/perdnn.hpp"
#include "edge/layer_cache.hpp"
#include "geo/server_map.hpp"
#include "mobility/predictor.hpp"

namespace perdnn {
namespace {

TEST(Integration, ProactiveMigrationTurnsColdStartIntoHit) {
  // --- infrastructure: a corridor of edge servers every 100 m ---
  ServerMap servers(50.0);
  for (double x = 0.0; x <= 1000.0; x += 100.0) servers.allocate_at({x, 0.0});

  const GpuContentionModel gpu(titan_xp_profile());
  const DnnModel model = build_toy_model(4);
  const DnnModel* models[] = {&model};
  ConcurrencyProfiler profiler(&gpu, Rng(1));
  ProfilerConfig prof_config;
  prof_config.max_clients = 4;
  prof_config.samples_per_level = 4;
  RandomForestEstimator estimator;
  Rng train_rng(2);
  estimator.train(profiler.profile_models(models, prof_config), train_rng);

  // Mobility predictor trained on east-bound corridor walks.
  std::vector<Trajectory> history;
  Rng traj_rng(3);
  for (int u = 0; u < 15; ++u) {
    Trajectory traj;
    traj.interval = 20.0;
    Point pos{traj_rng.uniform(0.0, 200.0), 0.0};
    const double speed = traj_rng.uniform(25.0, 35.0);
    for (int t = 0; t < 15; ++t) {
      traj.points.push_back(pos);
      pos.x += speed;
    }
    history.push_back(std::move(traj));
  }
  SvrPredictor predictor(3);
  Rng fit_rng(4);
  predictor.fit(history, fit_rng);

  // What a server reports when polled, and the partitioning context the
  // engines plan with at those statistics.
  const auto stats_of = [&](ServerId) {
    Rng rng(7);
    return gpu.stats_for_load(1, 1.0, rng);
  };
  const DnnProfile profile = profile_on_client(model, odroid_xu4_profile());
  const auto planning_context = [&](const GpuStats& stats) {
    PartitionContext context;
    context.model = &model;
    context.client_profile = &profile;
    context.server_time = estimator.estimate_model(model, stats);
    return context;
  };

  // --- the client walks east; predict its next position ---
  std::vector<Point> recent;
  for (int t = 0; t < 4; ++t) recent.push_back({300.0 + 30.0 * t, 0.0});
  const ServerId current = servers.server_at(recent.back());
  ASSERT_NE(current, kNoServer);
  const Point predicted = predictor.predict(recent);

  // --- seed every server around the prediction with the layers of the
  //     plan it would run ---
  constexpr double kMigrationRadiusM = 120.0;
  const ClientId client = 0;
  std::vector<LayerCache> caches(
      static_cast<std::size_t>(servers.num_servers()), LayerCache(5));
  std::vector<ServerId> seeded;
  for (ServerId target : servers.servers_within(predicted, kMigrationRadiusM)) {
    if (target == current) continue;
    const PartitionPlan future_plan =
        compute_best_plan(planning_context(stats_of(target)));
    caches[static_cast<std::size_t>(target)].store(
        client, future_plan.server_layers(), /*now_interval=*/0);
    seeded.push_back(target);
  }
  ASSERT_FALSE(seeded.empty());

  // --- the client arrives at one of the seeded servers ahead: the plan's
  //     layers are already there ---
  const ServerId next = seeded.front();
  const PartitionContext arrival = planning_context(stats_of(next));
  const PartitionPlan plan = compute_best_plan(arrival);
  const LayerCache& cache = caches[static_cast<std::size_t>(next)];
  const auto mask = cache.mask(client, model);
  for (LayerId id : plan.server_layers())
    EXPECT_TRUE(mask[static_cast<std::size_t>(id)]) << "layer " << id;

  // --- and the first query is a warm-start query, not a cold one ---
  const UploadSchedule schedule = plan_upload_order(
      arrival, plan, {.enumeration = UploadEnumeration::kAnchored});
  PartitionContext truth = arrival;  // execution runs on ground-truth times
  truth.server_time.clear();
  for (LayerId id = 0; id < model.num_layers(); ++id)
    truth.server_time.push_back(gpu.expected_layer_time(
        model.layer(id), model.input_bytes(id), 1.0));

  ReplayConfig replay_config;
  replay_config.max_queries = 3;
  const ReplayResult warm = replay_queries(
      truth, schedule, cache.cached_bytes(client, model), replay_config);
  const ReplayResult cold = replay_queries(truth, schedule, 0, replay_config);
  EXPECT_LT(warm.queries.front().latency, cold.queries.front().latency);
  EXPECT_NEAR(warm.queries.front().latency, plan.latency,
              plan.latency * 0.5);  // same ballpark as the planned latency
}

}  // namespace
}  // namespace perdnn
