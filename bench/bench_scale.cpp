// City-scale throughput bench for the sharded engine (the BENCH_scale.json
// artifact): one machine, a 1M-client x 10k-server x 50-interval run with
// the timeseries streamed to disk — nothing O(clients x intervals) resident.
//
//   bench_scale [--clients N] [--tiles-x N] [--tiles-y N] [--intervals N]
//               [--shards N] [--threads N[,N...]] [--model name]
//               [--timeseries path] [--json path]
//
// A --threads list is a sweep: the world is built once and run at each
// count in turn, and the runs must report the same metrics. Reported per
// run: clients/sec (clients x intervals / total wall) and the per-interval
// wall-time distribution (mean/p99/max); peak RSS (VmHWM) is the process
// peak over the whole sweep. The JSON's top-level fields are the first
// count's run, followed by a `sweep` array with every run and a `hardware`
// block. tools/check_bench_regression.sh gates the JSON against the
// committed baseline: a clients/sec floor per thread count and a peak-RSS
// ceiling.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/arg_parse.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "common/stats.hpp"
#include "obs/resource.hpp"
#include "sim/shard_sim.hpp"
#include "sim/shard_world.hpp"

namespace {

using namespace perdnn;

struct Args {
  int clients = 1'000'000;
  int tiles_x = 100;
  int tiles_y = 100;
  int intervals = 50;
  int shards = 16;
  std::string model = "inception";
  std::string timeseries = "BENCH_scale_timeseries.csv";
  std::string json;
  std::vector<int> threads;  // empty: one run at the automatic count
};

[[noreturn]] void usage_error(const char* what) {
  std::fprintf(stderr,
               "bench_scale: %s\n"
               "usage: bench_scale [--clients N] [--tiles-x N] [--tiles-y N]\n"
               "                   [--intervals N] [--shards N]\n"
               "                   [--threads N[,N...]]\n"
               "                   [--model mobilenet|inception|resnet]\n"
               "                   [--timeseries path] [--json path]\n",
               what);
  std::exit(2);
}

int int_flag(int argc, char** argv, int& i, const char* name) {
  int v = 0;
  if (i + 1 >= argc || !parse_int(argv[++i], &v) || v <= 0) usage_error(name);
  return v;
}

/// One thread count or a comma list of them, each a whole int >= 1.
std::vector<int> thread_list(std::string_view text) {
  std::vector<int> counts;
  for (;;) {
    const std::size_t comma = text.find(',');
    int n = 0;
    if (!parse_int(std::string(text.substr(0, comma)), &n) || n < 1)
      usage_error("--threads expects integers >= 1, comma-separated");
    counts.push_back(n);
    if (comma == std::string_view::npos) return counts;
    text.remove_prefix(comma + 1);
  }
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--clients") == 0) {
      args.clients = int_flag(argc, argv, i, a);
    } else if (std::strcmp(a, "--tiles-x") == 0) {
      args.tiles_x = int_flag(argc, argv, i, a);
    } else if (std::strcmp(a, "--tiles-y") == 0) {
      args.tiles_y = int_flag(argc, argv, i, a);
    } else if (std::strcmp(a, "--intervals") == 0) {
      args.intervals = int_flag(argc, argv, i, a);
    } else if (std::strcmp(a, "--shards") == 0) {
      args.shards = int_flag(argc, argv, i, a);
    } else if (std::strcmp(a, "--threads") == 0) {
      if (i + 1 >= argc) usage_error(a);
      args.threads = thread_list(argv[++i]);
    } else if (std::strncmp(a, "--threads=", 10) == 0) {
      args.threads = thread_list(a + 10);
    } else if (std::strcmp(a, "--model") == 0 && i + 1 < argc) {
      args.model = argv[++i];
    } else if (std::strcmp(a, "--timeseries") == 0 && i + 1 < argc) {
      args.timeseries = argv[++i];
    } else if (std::strcmp(a, "--json") == 0 && i + 1 < argc) {
      args.json = argv[++i];
    } else {
      usage_error(a);
    }
  }
  return args;
}

ModelName model_from_name(const std::string& name) {
  if (name == "mobilenet") return ModelName::kMobileNet;
  if (name == "inception") return ModelName::kInception;
  if (name == "resnet") return ModelName::kResNet;
  usage_error("unknown --model");
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// One run of the sweep.
struct Pass {
  int threads = 0;
  double run_wall_s = 0.0;
  double clients_per_sec = 0.0;
  double interval_mean_s = 0.0;
  double interval_p99_s = 0.0;
  double interval_max_s = 0.0;
  SimulationMetrics metrics;
};

}  // namespace

int main(int argc, char** argv) {
  // bench_scale reads --threads itself, since it takes a list; the pool
  // count is set per run below.
  const Args args = parse_args(argc, argv);
  const std::vector<int> counts =
      args.threads.empty() ? std::vector<int>{0} : args.threads;
  par::set_num_threads(counts.front());  // 0: automatic

  ShardWorldConfig config;
  config.model = model_from_name(args.model);
  config.tiles_x = args.tiles_x;
  config.tiles_y = args.tiles_y;
  config.num_clients = args.clients;
  config.num_intervals = args.intervals;
  config.offline_probability = 0.02;
  config.seed = 42;

  std::printf("building world: %d clients, %d servers (%dx%d tiles), "
              "%d intervals, %d shards\n",
              config.num_clients, config.num_servers(), config.tiles_x,
              config.tiles_y, config.num_intervals, args.shards);
  const auto build_start = std::chrono::steady_clock::now();
  const ShardWorld world = build_shard_world(config);
  const std::chrono::duration<double> build_wall =
      std::chrono::steady_clock::now() - build_start;
  std::printf("world built in %.2fs (canonical order: %zu layers)\n",
              build_wall.count(), world.canonical_order.size());

  std::vector<Pass> passes;
  for (const int count : counts) {
    par::set_num_threads(count);
    Pass pass;
    pass.threads = par::num_threads();
    std::vector<double> interval_wall_s;
    ShardRunOptions options;
    options.num_shards = args.shards;
    options.timeseries_path = args.timeseries;
    options.interval_wall_s = &interval_wall_s;

    const auto run_start = std::chrono::steady_clock::now();
    pass.metrics = run_sharded_simulation(world, options);
    const std::chrono::duration<double> run_wall =
        std::chrono::steady_clock::now() - run_start;

    const double client_intervals =
        static_cast<double>(config.num_clients) * config.num_intervals;
    pass.run_wall_s = run_wall.count();
    pass.clients_per_sec =
        pass.run_wall_s > 0 ? client_intervals / pass.run_wall_s : 0.0;
    pass.interval_p99_s = percentile(interval_wall_s, 99.0);
    pass.interval_max_s = max_value(interval_wall_s);
    pass.interval_mean_s =
        interval_wall_s.empty()
            ? 0.0
            : pass.run_wall_s / static_cast<double>(interval_wall_s.size());

    std::printf("run at %d threads: %.2fs total, %.3g client-intervals/sec\n",
                pass.threads, pass.run_wall_s, pass.clients_per_sec);
    std::printf("interval wall: mean %.3fs  p99 %.3fs  max %.3fs\n",
                pass.interval_mean_s, pass.interval_p99_s,
                pass.interval_max_s);
    const SimulationMetrics& m = pass.metrics;
    const SimulationMetrics& first =
        passes.empty() ? m : passes.front().metrics;
    if (m.server_changes != first.server_changes ||
        m.cold_window_queries != first.cold_window_queries ||
        m.total_migrated_bytes != first.total_migrated_bytes) {
      std::fprintf(stderr,
                   "bench_scale: the run at %d threads reports other metrics "
                   "than the run at %d\n",
                   pass.threads, passes.front().threads);
      return 1;
    }
    passes.push_back(std::move(pass));
#if defined(__GLIBC__)
    // The run's engine is gone; hand its freed heap back to the OS, so the
    // process peak is the largest run's rather than the runs' sum of
    // whatever the allocator keeps.
    malloc_trim(0);
#endif
  }
  const std::uint64_t peak_rss = obs::peak_rss_bytes();
  const Pass& head = passes.front();
  const SimulationMetrics& metrics = head.metrics;

  std::printf("peak RSS: %.1f MiB\n",
              static_cast<double>(peak_rss) / (1024.0 * 1024.0));
  std::printf("metrics: %d server changes, %lld cold queries, hit ratio "
              "%.3f, %lld migrated bytes\n",
              metrics.server_changes, metrics.cold_window_queries,
              metrics.hit_ratio(),
              static_cast<long long>(metrics.total_migrated_bytes));

  if (!args.json.empty()) {
    std::FILE* out = std::fopen(args.json.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", args.json.c_str());
      return 1;
    }
    // The top-level fields come first: the regression gate reads the first
    // match of a key in the line, and the sweep repeats some keys.
    std::fprintf(
        out,
        "{\"clients\":%d,\"servers\":%d,\"intervals\":%d,\"shards\":%d,"
        "\"threads\":%d,\"model\":\"%s\","
        "\"build_wall_s\":%.6g,\"run_wall_s\":%.6g,"
        "\"clients_per_sec\":%.6g,\"peak_rss_bytes\":%llu,"
        "\"interval_mean_s\":%.6g,\"interval_p99_s\":%.6g,"
        "\"interval_max_s\":%.6g,"
        "\"server_changes\":%d,\"cold_window_queries\":%lld,"
        "\"total_migrated_bytes\":%lld,\"sweep\":[",
        config.num_clients, config.num_servers(), config.num_intervals,
        args.shards, head.threads, args.model.c_str(), build_wall.count(),
        head.run_wall_s, head.clients_per_sec,
        static_cast<unsigned long long>(peak_rss), head.interval_mean_s,
        head.interval_p99_s, head.interval_max_s, metrics.server_changes,
        metrics.cold_window_queries,
        static_cast<long long>(metrics.total_migrated_bytes));
    for (std::size_t i = 0; i < passes.size(); ++i)
      std::fprintf(out,
                   "%s{\"threads\":%d,\"run_wall_s\":%.6g,"
                   "\"clients_per_sec\":%.6g,\"interval_p99_s\":%.6g}",
                   i > 0 ? "," : "", passes[i].threads, passes[i].run_wall_s,
                   passes[i].clients_per_sec, passes[i].interval_p99_s);
    std::fprintf(out,
                 "],\"hardware\":{\"hardware_concurrency\":%d,"
                 "\"simd_kernel\":\"%s\",\"compiler\":\"%s\","
                 "\"build_type\":\"%s\"}}\n",
                 par::hardware_threads(), simd::active_kernel(), compiler(),
                 PERDNN_BUILD_TYPE);
    std::fclose(out);
    std::printf("wrote %s\n", args.json.c_str());
  }
  return 0;
}
