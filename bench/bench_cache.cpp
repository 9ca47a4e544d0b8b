// Cache-pressure sweep: what a per-server memory budget costs and saves.
//
// Builds sharded city worlds at increasing client density, then replays the
// proactive policy under a falling per-server cache byte budget — from
// unbudgeted down to less than one full canonical prefix per tile — and
// reports the trade the budget makes: proactive backhaul bytes (admission
// throttles pushes, so traffic falls with the budget), cold-start query
// latency and hit ratio (which pay for the saved memory), and the
// query-loss share (queries pushed to the on-device fallback).
//
//   bench_cache [--clients N] [--tiles-x N] [--tiles-y N] [--intervals N]
//               [--shards N] [--seed N] [--json-out FILE] [--threads N]
//
// Unknown flags are hard errors (exit 2). The default sweep emits the
// BENCH_cache artifact that tools/check_bench_regression.sh gates.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/arg_parse.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "obs/resource.hpp"
#include "sim/shard_sim.hpp"
#include "sim/shard_world.hpp"

namespace {

using namespace perdnn;

struct Args {
  int clients = 20'000;
  int tiles_x = 20;
  int tiles_y = 20;
  int intervals = 16;
  int shards = 8;
  std::uint64_t seed = 61;
  std::string json_out;
};

int usage() {
  std::fprintf(stderr,
               "usage: bench_cache [--clients N] [--tiles-x N] [--tiles-y N] "
               "[--intervals N] [--shards N] [--seed N] [--json-out FILE] "
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
    if (name == "--clients") {
      if (!int_flag(argc, argv, i, &args->clients)) return false;
    } else if (name == "--tiles-x") {
      if (!int_flag(argc, argv, i, &args->tiles_x)) return false;
    } else if (name == "--tiles-y") {
      if (!int_flag(argc, argv, i, &args->tiles_y)) return false;
    } else if (name == "--intervals") {
      if (!int_flag(argc, argv, i, &args->intervals)) return false;
    } else if (name == "--shards") {
      if (!int_flag(argc, argv, i, &args->shards)) return false;
    } else if (name == "--seed") {
      if (i + 1 >= argc || !parse_int(argv[++i], &args->seed)) {
        std::fprintf(stderr, "error: --seed needs an integer\n");
        return false;
      }
    } else if (name == "--json-out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --json-out needs a file\n");
        return false;
      }
      args->json_out = argv[++i];
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", name.c_str());
      return false;
    }
  }
  return true;
}

struct ScenarioResult {
  std::string label;
  double density = 1.0;
  Bytes budget_bytes = 0;  // 0 = unbudgeted
  SimulationMetrics metrics;
  double mean_cold_latency_ms = 0.0;
  double query_loss = 0.0;  // share of queries pushed to the local fallback
  double run_wall_s = 0.0;
};

/// Sums `cold_window_queries` and `cold_latency_sum_s` out of a streamed
/// timeseries CSV (the shard engine's only cold-latency export).
void sum_cold_columns(const std::string& path, long long* queries,
                      double* latency_s) {
  *queries = 0;
  *latency_s = 0.0;
  std::ifstream in(path);
  std::string line;
  int q_col = -1, l_col = -1;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string field;
    if (q_col < 0) {  // header line
      for (int i = 0; std::getline(fields, field, ','); ++i) {
        if (field == "cold_window_queries") q_col = i;
        if (field == "cold_latency_sum_s") l_col = i;
      }
      continue;
    }
    for (int i = 0; std::getline(fields, field, ','); ++i) {
      if (i == q_col) *queries += std::strtoll(field.c_str(), nullptr, 10);
      if (i == l_col) *latency_s += std::strtod(field.c_str(), nullptr);
    }
  }
}

ScenarioResult run_scenario(const std::string& label, const ShardWorld& base,
                            double density, Bytes budget, int shards) {
  // The planning tables are budget-independent, so one world per density is
  // reused across the budget column (equivalent to rebuilding each time).
  ShardWorld world = base;
  world.config.cache_budget_bytes = budget;

  const std::string ts_path = "bench_cache_ts.tmp.csv";
  ShardRunOptions options;
  options.num_shards = shards;
  options.timeseries_path = ts_path;

  const auto start = std::chrono::steady_clock::now();
  ScenarioResult result;
  result.label = label;
  result.density = density;
  result.budget_bytes = budget;
  result.metrics = run_sharded_simulation(world, options);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  result.run_wall_s = wall.count();

  long long cold_queries = 0;
  double cold_latency_s = 0.0;
  sum_cold_columns(ts_path, &cold_queries, &cold_latency_s);
  std::remove(ts_path.c_str());
  if (cold_queries > 0)
    result.mean_cold_latency_ms =
        cold_latency_s / static_cast<double>(cold_queries) * 1e3;
  result.query_loss = 1.0 - result.metrics.offload_ratio();

  std::printf("[%s] %.2fs, backhaul %.1f MB, cold p_mean %.1f ms, "
              "loss %.4f, evictions %lld, partial stores %lld\n",
              label.c_str(), result.run_wall_s,
              bytes_to_mb(result.metrics.total_migrated_bytes),
              result.mean_cold_latency_ms, result.query_loss,
              result.metrics.cache_evictions,
              result.metrics.cache_partial_stores);
  return result;
}

std::string scenario_json(const ScenarioResult& r) {
  char buf[1024];
  const SimulationMetrics& m = r.metrics;
  std::snprintf(
      buf, sizeof buf,
      "{\"scenario\":\"%s\",\"density\":%.6g,\"budget_bytes\":%lld,"
      "\"clients\":%d,\"backhaul_bytes\":%lld,\"peak_uplink_mbps\":%.6g,"
      "\"mean_cold_latency_ms\":%.6g,\"query_loss\":%.6g,"
      "\"offload_ratio\":%.6g,\"availability\":%.6g,\"hit_ratio\":%.6g,"
      "\"cold_window_queries\":%lld,\"local_fallback_queries\":%lld,"
      "\"cache_evictions\":%lld,\"cache_partial_stores\":%lld,"
      "\"peak_cache_bytes\":%lld,\"run_wall_s\":%.6g}",
      r.label.c_str(), r.density, static_cast<long long>(r.budget_bytes),
      m.num_clients, static_cast<long long>(m.total_migrated_bytes),
      m.peak_uplink_mbps, r.mean_cold_latency_ms, r.query_loss,
      m.offload_ratio(), m.availability(), m.hit_ratio(),
      m.cold_window_queries, static_cast<long long>(m.local_fallback_queries),
      m.cache_evictions, m.cache_partial_stores,
      static_cast<long long>(m.peak_cache_bytes), r.run_wall_s);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  argc = par::init_threads_from_cli(argc, argv);
  Args args;
  if (!parse_args(argc, argv, &args)) return usage();

  std::printf("=== Cache-pressure sweep: per-server byte budget vs backhaul "
              "and cold starts ===\n");

  // Budget column, in full canonical prefixes per tile: unbudgeted, roomy,
  // tight, starved. Density rows scale the client count.
  const std::pair<const char*, double> budgets[] = {
      {"unbudgeted", 0.0}, {"4-prefix", 4.0}, {"2-prefix", 2.0},
      {"1-prefix", 1.0},   {"half-prefix", 0.5},
  };
  const double densities[] = {1.0, 3.0};

  std::vector<ScenarioResult> results;
  for (const double density : densities) {
    ShardWorldConfig config;
    config.model = ModelName::kMobileNet;
    config.tiles_x = args.tiles_x;
    config.tiles_y = args.tiles_y;
    config.num_clients =
        static_cast<int>(static_cast<double>(args.clients) * density);
    config.num_intervals = args.intervals;
    config.offline_probability = 0.02;
    config.seed = args.seed;
    std::printf("building world (density %.0fx: %d clients, %d servers)...\n",
                density, config.num_clients, config.num_servers());
    const ShardWorld world = build_shard_world(config);
    const Bytes full_prefix = world.prefix_bytes.back();

    for (const auto& [name, prefixes] : budgets) {
      const auto budget =
          static_cast<Bytes>(prefixes * static_cast<double>(full_prefix));
      char label[64];
      std::snprintf(label, sizeof label, "%.0fx/%s", density, name);
      results.push_back(
          run_scenario(label, world, density, budget, args.shards));
    }
  }

  TextTable table({"scenario", "budget MB", "backhaul MB", "cold ms",
                   "loss %", "hit %", "evictions", "partial", "peak MB"});
  for (const ScenarioResult& r : results) {
    table.add_row(
        {r.label,
         r.budget_bytes > 0 ? TextTable::num(bytes_to_mb(r.budget_bytes), 1)
                            : std::string("inf"),
         TextTable::num(bytes_to_mb(r.metrics.total_migrated_bytes), 1),
         TextTable::num(r.mean_cold_latency_ms, 1),
         TextTable::num(r.query_loss * 100.0, 2),
         TextTable::num(r.metrics.hit_ratio() * 100.0, 1),
         TextTable::num(r.metrics.cache_evictions),
         TextTable::num(r.metrics.cache_partial_stores),
         TextTable::num(bytes_to_mb(r.metrics.peak_cache_bytes), 1)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "(a tighter budget caps resident layers, which throttles proactive "
      "pushes: backhaul\n bytes collapse as the budget falls, but attaches "
      "stop finding full prefixes cached,\n so the hit ratio and cold-start "
      "latency pay for the saved memory and bandwidth)\n");

  const std::uint64_t peak_rss = obs::peak_rss_bytes();
  std::string json = "{\"bench\":\"cache_budget\",";
  {
    char head[256];
    std::snprintf(head, sizeof head,
                  "\"clients\":%d,\"servers\":%d,\"intervals\":%d,"
                  "\"shards\":%d,\"threads\":%d,\"scenarios\":[",
                  args.clients, args.tiles_x * args.tiles_y, args.intervals,
                  args.shards, par::num_threads());
    json += head;
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i > 0) json += ',';
    json += scenario_json(results[i]);
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
