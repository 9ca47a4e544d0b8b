// Chaos sweep: graceful degradation under scripted fault schedules.
//
// Builds one KAIST-like world, then replays the PerDNN policy under seeded
// random fault plans of increasing intensity (crashes, backhaul outages,
// telemetry dropouts, client churn — all four classes scaled together) and
// reports how availability, the offloaded-query share, query latency and
// the deferred-migration backlog degrade. Intensity 0 is the fault-free
// baseline and must match a plain run exactly.
//
//   bench_chaos [--model mobilenet|inception|resnet] [--seed N]
//               [--plan FILE] [--journal-out FILE] [--json] [--threads N]
//   bench_chaos --sharded [--clients N] [--tiles-x N] [--tiles-y N]
//               [--intervals N] [--shards N] [--json-out FILE] [--threads N]
//
// --plan replaces the sweep with a single run of the scripted JSON plan.
// --journal-out (requires --plan) streams that run's event journal to FILE
// as JSONL so tools/perdnn_obs can reconstruct any client's causal chain
// through the scripted faults (`perdnn_obs convert` makes the binary
// form). --json emits
// machine-readable rows instead of the text table. Unknown flags are hard
// errors (exit 2).
//
// --sharded switches to the city-scale SoA engine and runs the fixed
// chaos-at-scale scenario set (zero-fault, mid/high random fault schedules,
// and an admission-controlled flash crowd), emitting the BENCH_chaos_scale
// artifact that tools/check_bench_regression.sh gates.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/arg_parse.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "datasets.hpp"
#include "faults/fault_plan.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "sim/shard_sim.hpp"
#include "sim/shard_world.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace perdnn;
using namespace perdnn::bench;

struct Args {
  ModelName model = ModelName::kMobileNet;
  std::uint64_t seed = 97;
  std::string plan_file;
  std::string journal_out;
  bool json = false;
  // --sharded mode.
  bool sharded = false;
  int clients = 1'000'000;
  int tiles_x = 100;
  int tiles_y = 100;
  int intervals = 20;
  int shards = 16;
  std::string json_out;
};

int usage() {
  std::fprintf(stderr,
               "usage: bench_chaos [--model mobilenet|inception|resnet] "
               "[--seed N] [--plan FILE] [--journal-out FILE] [--json] "
               "[--threads N]\n"
               "       bench_chaos --sharded [--clients N] [--tiles-x N] "
               "[--tiles-y N] [--intervals N] [--shards N] [--json-out FILE] "
               "[--threads N]\n");
  return 2;
}

bool int_flag(int argc, char** argv, int& i, int* out) {
  int v = 0;
  if (i + 1 >= argc || !parse_int(argv[++i], &v) || v <= 0) return false;
  *out = v;
  return true;
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string name = argv[i];
    const auto next_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (name == "--json") {
      args->json = true;
    } else if (name == "--model") {
      const char* value = next_value();
      if (value == nullptr) {
        std::fprintf(stderr, "error: --model needs a value\n");
        return false;
      }
      if (std::strcmp(value, "mobilenet") == 0)
        args->model = ModelName::kMobileNet;
      else if (std::strcmp(value, "inception") == 0)
        args->model = ModelName::kInception;
      else if (std::strcmp(value, "resnet") == 0)
        args->model = ModelName::kResNet;
      else {
        std::fprintf(stderr, "error: unknown model '%s'\n", value);
        return false;
      }
    } else if (name == "--seed") {
      const char* value = next_value();
      if (value == nullptr || !parse_int(value, &args->seed)) {
        std::fprintf(stderr, "error: --seed needs an integer\n");
        return false;
      }
    } else if (name == "--plan") {
      const char* value = next_value();
      if (value == nullptr) {
        std::fprintf(stderr, "error: --plan needs a file\n");
        return false;
      }
      args->plan_file = value;
    } else if (name == "--journal-out") {
      const char* value = next_value();
      if (value == nullptr) {
        std::fprintf(stderr, "error: --journal-out needs a file\n");
        return false;
      }
      args->journal_out = value;
    } else if (name == "--sharded") {
      args->sharded = true;
    } else if (name == "--clients") {
      if (!int_flag(argc, argv, i, &args->clients)) return false;
    } else if (name == "--tiles-x") {
      if (!int_flag(argc, argv, i, &args->tiles_x)) return false;
    } else if (name == "--tiles-y") {
      if (!int_flag(argc, argv, i, &args->tiles_y)) return false;
    } else if (name == "--intervals") {
      if (!int_flag(argc, argv, i, &args->intervals)) return false;
    } else if (name == "--shards") {
      if (!int_flag(argc, argv, i, &args->shards)) return false;
    } else if (name == "--json-out") {
      const char* value = next_value();
      if (value == nullptr) {
        std::fprintf(stderr, "error: --json-out needs a file\n");
        return false;
      }
      args->json_out = value;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", name.c_str());
      return false;
    }
  }
  return true;
}

struct ScenarioResult {
  std::string label;
  std::size_t events = 0;
  SimulationMetrics metrics;
  double p50_latency_s = 0.0;
  double p99_latency_s = 0.0;
};

ScenarioResult run_scenario(const std::string& label,
                            const SimulationConfig& base,
                            const SimulationWorld& world,
                            const FaultPlan& plan,
                            const std::string& journal_path = {}) {
  SimulationConfig config = base;
  config.fault_plan = plan;
  obs::Registry::global().reset();
  obs::set_enabled(true);
  ScenarioResult result;
  result.label = label;
  result.events = plan.size();
  SimulationRunOptions options;
  options.journal_path = journal_path;
  result.metrics = run_simulation(config, world, nullptr, options);
  obs::Histogram& latency =
      obs::Registry::global().histogram("sim.cold_window.query_latency_s");
  if (latency.count() > 0) {
    // quantile() is NaN on an empty histogram (a total-outage scenario can
    // serve zero edge queries); keep the JSON emittable with 0.0.
    result.p50_latency_s = latency.quantile(0.50);
    result.p99_latency_s = latency.quantile(0.99);
  }
  obs::set_enabled(false);
  return result;
}

obs::JsonValue to_json(const ScenarioResult& r) {
  using obs::JsonValue;
  std::vector<std::pair<std::string, JsonValue>> m;
  m.emplace_back("scenario", JsonValue::make_string(r.label));
  m.emplace_back("events",
                 JsonValue::make_number(static_cast<double>(r.events)));
  m.emplace_back("availability",
                 JsonValue::make_number(r.metrics.availability()));
  m.emplace_back("offload_ratio",
                 JsonValue::make_number(r.metrics.offload_ratio()));
  m.emplace_back("p50_query_latency_s",
                 JsonValue::make_number(r.p50_latency_s));
  m.emplace_back("p99_query_latency_s",
                 JsonValue::make_number(r.p99_latency_s));
  m.emplace_back("cold_window_queries",
                 JsonValue::make_number(
                     static_cast<double>(r.metrics.cold_window_queries)));
  m.emplace_back("local_fallback_queries",
                 JsonValue::make_number(
                     static_cast<double>(r.metrics.local_fallback_queries)));
  m.emplace_back("server_failures",
                 JsonValue::make_number(r.metrics.server_failures));
  m.emplace_back("client_disconnects",
                 JsonValue::make_number(r.metrics.client_disconnect_events));
  m.emplace_back("degraded_attaches",
                 JsonValue::make_number(r.metrics.degraded_attaches));
  m.emplace_back("migrations_deferred",
                 JsonValue::make_number(r.metrics.migrations_deferred));
  m.emplace_back(
      "deferred_migration_bytes",
      JsonValue::make_number(
          static_cast<double>(r.metrics.deferred_migration_bytes)));
  m.emplace_back(
      "peak_deferred_backlog_bytes",
      JsonValue::make_number(
          static_cast<double>(r.metrics.peak_deferred_backlog_bytes)));
  m.emplace_back("migrations_abandoned",
                 JsonValue::make_number(r.metrics.migrations_abandoned));
  return JsonValue::make_object(std::move(m));
}

void print_table(const std::vector<ScenarioResult>& results) {
  TextTable table({"scenario", "events", "avail %", "offload %", "p50 ms",
                   "p99 ms", "local queries", "deferred MB", "peak backlog MB",
                   "abandoned"});
  for (const ScenarioResult& r : results) {
    table.add_row(
        {r.label, TextTable::num(static_cast<long long>(r.events)),
         TextTable::num(r.metrics.availability() * 100.0, 2),
         TextTable::num(r.metrics.offload_ratio() * 100.0, 2),
         TextTable::num(r.p50_latency_s * 1e3, 1),
         TextTable::num(r.p99_latency_s * 1e3, 1),
         TextTable::num(
             static_cast<long long>(r.metrics.local_fallback_queries)),
         TextTable::num(bytes_to_mb(r.metrics.deferred_migration_bytes), 1),
         TextTable::num(bytes_to_mb(r.metrics.peak_deferred_backlog_bytes),
                        1),
         TextTable::num(
             static_cast<long long>(r.metrics.migrations_abandoned))});
  }
  std::printf("%s", table.to_string().c_str());
}

// ---------------------------------------------------------------------------
// --sharded: chaos at city scale through the SoA engine.

struct ShardScenarioResult {
  std::string label;
  SimulationMetrics metrics;
  double run_wall_s = 0.0;
  double clients_per_sec = 0.0;
  int num_intervals = 0;
  double interval_s = 0.0;
};

/// Offloaded queries served per simulated second — the goodput the
/// admission-control scenario trades shed attaches for.
double goodput_qps(const ShardScenarioResult& r) {
  const double sim_s = static_cast<double>(r.num_intervals) * r.interval_s;
  return sim_s > 0
             ? static_cast<double>(r.metrics.cold_window_queries) / sim_s
             : 0.0;
}

/// Share of attach attempts refused by admission control.
double shed_rate(const ShardScenarioResult& r) {
  const double total = static_cast<double>(r.metrics.server_changes) +
                       static_cast<double>(r.metrics.attaches_shed);
  return total > 0 ? static_cast<double>(r.metrics.attaches_shed) / total
                   : 0.0;
}

ShardScenarioResult run_shard_scenario(const std::string& label,
                                       const ShardWorldConfig& config,
                                       int shards) {
  std::printf("[%s] building world (%d clients, %d servers)...\n",
              label.c_str(), config.num_clients, config.num_servers());
  const ShardWorld world = build_shard_world(config);
  ShardRunOptions options;
  options.num_shards = shards;
  const auto start = std::chrono::steady_clock::now();
  ShardScenarioResult result;
  result.label = label;
  result.metrics = run_sharded_simulation(world, options);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  result.run_wall_s = wall.count();
  result.clients_per_sec =
      wall.count() > 0 ? static_cast<double>(config.num_clients) *
                             config.num_intervals / wall.count()
                       : 0.0;
  result.num_intervals = config.num_intervals;
  result.interval_s = config.interval_s;
  std::printf("[%s] %.2fs, availability %.4f, offload %.4f, %d shed, "
              "%d deferred, %d abandoned\n",
              label.c_str(), result.run_wall_s,
              result.metrics.availability(), result.metrics.offload_ratio(),
              result.metrics.attaches_shed, result.metrics.migrations_deferred,
              result.metrics.migrations_abandoned);
  return result;
}

std::string shard_scenario_json(const ShardScenarioResult& r) {
  char buf[1024];
  const SimulationMetrics& m = r.metrics;
  std::snprintf(
      buf, sizeof buf,
      "{\"scenario\":\"%s\",\"availability\":%.6g,\"offload_ratio\":%.6g,"
      "\"goodput_qps\":%.6g,\"shed_rate\":%.6g,\"attaches_shed\":%d,"
      "\"migrations_deferred\":%d,\"migration_retries\":%d,"
      "\"migrations_abandoned\":%d,\"peak_deferred_backlog_bytes\":%lld,"
      "\"server_failures\":%d,\"local_fallback_queries\":%lld,"
      "\"cold_window_queries\":%lld,\"clients_per_sec\":%.6g,"
      "\"run_wall_s\":%.6g}",
      r.label.c_str(), m.availability(), m.offload_ratio(), goodput_qps(r),
      shed_rate(r), m.attaches_shed, m.migrations_deferred,
      m.migration_retries, m.migrations_abandoned,
      static_cast<long long>(m.peak_deferred_backlog_bytes),
      m.server_failures, static_cast<long long>(m.local_fallback_queries),
      m.cold_window_queries, r.clients_per_sec, r.run_wall_s);
  return buf;
}

int run_sharded(const Args& args) {
  ShardWorldConfig base;
  base.model = args.model;
  base.tiles_x = args.tiles_x;
  base.tiles_y = args.tiles_y;
  base.num_clients = args.clients;
  base.num_intervals = args.intervals;
  base.offline_probability = 0.02;
  base.seed = args.seed;
  base.migration_retry = {.max_attempts = 6,
                          .initial_backoff_intervals = 1,
                          .max_backoff_intervals = 8};

  RandomFaultConfig faults;
  faults.seed = args.seed + 1;
  faults.num_servers = base.num_servers();
  faults.num_clients = base.num_clients;
  faults.num_intervals = base.num_intervals;
  faults.crash_downtime_intervals = 4;
  faults.backhaul_outage_intervals = 3;

  std::vector<ShardScenarioResult> results;
  results.push_back(run_shard_scenario("zero-fault", base, args.shards));

  for (const auto& [label, intensity] :
       {std::pair<const char*, double>{"mid-faults", 0.01},
        std::pair<const char*, double>{"high-faults", 0.03}}) {
    faults.server_crash_rate = intensity;
    faults.backhaul_degrade_rate = intensity;
    faults.telemetry_dropout_rate = intensity;
    faults.client_disconnect_rate = intensity / 5.0;
    ShardWorldConfig config = base;
    config.fault_plan = FaultPlan::random_schedule(faults);
    results.push_back(run_shard_scenario(label, config, args.shards));
  }

  {
    ShardWorldConfig config = base;
    config.flash_crowd_tiles = std::max(1, base.num_servers() / 100);
    config.flash_crowd_multiplier = 25.0;
    config.admission_max_attached =
        std::max(8, 2 * base.num_clients / base.num_servers());
    results.push_back(run_shard_scenario("flash-crowd", config, args.shards));
  }

  const std::uint64_t peak_rss = obs::peak_rss_bytes();
  std::string json = "{\"bench\":\"chaos_scale\",";
  {
    char head[256];
    std::snprintf(head, sizeof head,
                  "\"clients\":%d,\"servers\":%d,\"intervals\":%d,"
                  "\"shards\":%d,\"threads\":%d,\"scenarios\":[",
                  base.num_clients, base.num_servers(), base.num_intervals,
                  args.shards, par::num_threads());
    json += head;
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i > 0) json += ',';
    json += shard_scenario_json(results[i]);
  }
  {
    char tail[64];
    std::snprintf(tail, sizeof tail, "],\"peak_rss_bytes\":%llu}",
                  static_cast<unsigned long long>(peak_rss));
    json += tail;
  }
  if (!args.json_out.empty()) {
    std::FILE* out = std::fopen(args.json_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot open %s\n", args.json_out.c_str());
      return 1;
    }
    std::fprintf(out, "%s\n", json.c_str());
    std::fclose(out);
    std::printf("wrote %s\n", args.json_out.c_str());
  } else {
    std::printf("%s\n", json.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  argc = par::init_threads_from_cli(argc, argv);
  Args args;
  if (!parse_args(argc, argv, &args)) return usage();
  if (args.sharded) return run_sharded(args);
  if (!args.journal_out.empty() && args.plan_file.empty()) {
    std::fprintf(stderr, "error: --journal-out requires --plan\n");
    return 2;
  }

  if (!args.json)
    std::printf("=== Chaos sweep: fault intensity vs graceful degradation "
                "===\n");
  const DatasetPair data = kaist_like(20.0, 1.5 * 3600.0);

  SimulationConfig config;
  config.model = args.model;
  config.policy = MigrationPolicy::kProactive;
  config.migration_radius_m = 100.0;
  config.seed = args.seed;
  config.migration_retry = {.max_attempts = 6,
                            .initial_backoff_intervals = 1,
                            .max_backoff_intervals = 8};
  const SimulationWorld world = build_world(config, data.train, data.test);

  int num_intervals = 0;
  for (const Trajectory& t : data.test)
    num_intervals = std::max(num_intervals, static_cast<int>(t.size()));

  std::vector<ScenarioResult> results;
  if (!args.plan_file.empty()) {
    std::ifstream in(args.plan_file);
    if (!in) {
      std::fprintf(stderr, "error: cannot open %s\n", args.plan_file.c_str());
      return 1;
    }
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const FaultPlan plan = FaultPlan::from_json(text);
    try {
      results.push_back(run_scenario(args.plan_file, config, world, plan,
                                     args.journal_out));
    } catch (const std::runtime_error& e) {  // e.g. an unwritable journal
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    if (!args.journal_out.empty() && !args.json)
      std::printf("journal: %s\n", args.journal_out.c_str());
  } else {
    for (const double intensity : {0.0, 0.002, 0.01, 0.03}) {
      RandomFaultConfig faults;
      faults.seed = args.seed + 1;  // plan stream independent of the sim seed
      faults.num_servers = world.servers.num_servers();
      faults.num_clients = static_cast<int>(data.test.size());
      faults.num_intervals = num_intervals;
      faults.server_crash_rate = intensity;
      faults.crash_downtime_intervals = 4;
      faults.backhaul_degrade_rate = intensity;
      faults.backhaul_outage_intervals = 3;
      faults.telemetry_dropout_rate = intensity;
      faults.client_disconnect_rate = intensity;
      char label[32];
      std::snprintf(label, sizeof label, "intensity %.3f", intensity);
      results.push_back(run_scenario(
          label, config, world, FaultPlan::random_schedule(faults)));
    }
  }

  if (args.json) {
    std::vector<obs::JsonValue> rows;
    rows.reserve(results.size());
    for (const ScenarioResult& r : results) rows.push_back(to_json(r));
    std::printf("%s\n",
                obs::JsonValue::make_array(std::move(rows)).serialize().c_str());
    return 0;
  }
  print_table(results);
  std::printf(
      "(availability counts client-intervals attached to a live server; the "
      "offloaded share\n falls as clients ride out outages on the local "
      "fallback; deferred migrations drain\n through retry-with-backoff once "
      "links heal — 'abandoned' is what outlived the budget)\n");
  return 0;
}
