// Smart-city deployment study: a fleet of mobile users offloading a DNN to
// pervasive edge servers, driven end-to-end through the public simulation
// API. Builds the world (trains the GPU-aware estimator and the SVR mobility
// predictor), runs the IONN baseline, PerDNN, and the oracle, and prints a
// small capacity-planning report.
//
// Usage: smart_city_sim [mobilenet|inception|resnet] [campus|urban]
#include <cstdio>
#include <cstring>

#include "mobility/trace_gen.hpp"
#include "sim/simulator.hpp"

using namespace perdnn;

int main(int argc, char** argv) {
  // Any name but mobilenet or resnet runs Inception.
  const ModelName model =
      model_from_flag(argc > 1 ? argv[1] : "").value_or(ModelName::kInception);
  const bool urban = argc > 2 && std::strcmp(argv[2], "urban") == 0;

  // Trace cohorts: one to train the mobility predictor, one to replay.
  std::vector<Trajectory> train;
  std::vector<Trajectory> test;
  if (urban) {
    UrbanTraceConfig config;
    config.num_users = 60;
    config.duration = 3600.0;
    config.sample_interval = 20.0;
    config.seed = 11;
    train = generate_urban_traces(config);
    config.seed = 22;
    test = generate_urban_traces(config);
  } else {
    CampusTraceConfig config;
    config.num_users = 25;
    config.duration = 2.0 * 3600.0;
    config.sample_interval = 20.0;
    config.seed = 11;
    train = generate_campus_traces(config);
    config.seed = 22;
    test = generate_campus_traces(config);
  }

  SimulationConfig config;
  config.model = model;
  config.migration_radius_m = 100.0;
  config.seed = 33;
  std::printf("building world: %s, %s traces, %zu replayed users...\n",
              model_name_str(model), urban ? "urban" : "campus", test.size());
  const SimulationWorld world = build_world(config, train, test);
  std::printf("%d edge servers allocated; model %.1f MB; interval %.0f s\n\n",
              world.servers.num_servers(),
              bytes_to_mb(world.model.total_weight_bytes()), world.interval);

  struct Row {
    const char* label;
    MigrationPolicy policy;
  };
  for (const Row row : {Row{"IONN baseline", MigrationPolicy::kNone},
                        Row{"PerDNN", MigrationPolicy::kProactive},
                        Row{"Optimal oracle", MigrationPolicy::kOptimal}}) {
    SimulationConfig run = config;
    run.policy = row.policy;
    const SimulationMetrics metrics = run_simulation(run, world);
    std::printf("%-16s cold-window queries: %-8lld hit ratio: %5.1f%%  "
                "migrated: %.0f MB  peak backhaul: %.0f Mbps\n",
                row.label, metrics.cold_window_queries,
                metrics.hit_ratio() * 100.0,
                bytes_to_mb(metrics.total_migrated_bytes),
                metrics.peak_uplink_mbps);
  }

  std::printf("\ncapacity planning: a deployment needs wired backhaul only "
              "at servers whose peak\nexceeds wireless capacity — see "
              "bench_backhaul and bench_fig10_fractional for the\nfull "
              "study, including fractional migration for the crowded "
              "ones.\n");
  return 0;
}
