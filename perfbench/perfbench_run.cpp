// One benchmark run of one workload, in a process of its own.
//
//   perfbench_run --workload city_steady|city_pressure|urban_replay
//                 --seed N --tmp DIR [--size full|tiny] [--run-id ID]
//                 [--traced --trace-out FILE]
//
// Untraced (the end-to-end run): builds the workload's inputs and world from
// the seed (timed as set-up), runs the simulation once at kThreads threads
// with its output streams in DIR (timed as the run), checks the outputs and
// prints one JSON object on the last line of stdout: set-up and run wall,
// per-interval walls, peak RSS, the simulated outcomes, a digest of the
// outputs and the list of failed checks.
//
// Traced (the per-layer run): the same set-up and run, then the extra
// passes the per-layer metrics need — a 1-thread pass, a pass with the
// streams off, a stop-and-resume split, snapshot codec timings, and a pass
// with the obs::Tracer and metric registry switched on. Every pass must
// reproduce the untraced run's digest. Spans recorded here around the
// library calls, plus the library's own spans, go to FILE as chrome-trace
// JSON, and a per-layer self-time table goes to stdout.
//
// Exit status: 0 when every check passed, 3 when a check failed (the JSON
// line lists which), 2 on bad arguments, 1 when the run itself failed.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "datasets.hpp"
#include "faults/fault_plan.hpp"
#include "mobility/trace_gen.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/shard_sim.hpp"
#include "sim/shard_world.hpp"
#include "sim/simulator.hpp"
#include "snapshot/snapshot.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perdnn;
using obs::JsonValue;
using Clock = std::chrono::steady_clock;
using Members = std::vector<std::pair<std::string, JsonValue>>;

constexpr int kThreads = 2;  // half of the 4-core reference box
constexpr int kShards = 16;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = kMiB * 1024.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

JsonValue num(double v) {
  return JsonValue::make_number(std::isfinite(v) ? v : 0.0);
}

// ---------------------------------------------------------------------------
// Workloads. Each is a fixed configuration; only the seed varies its inputs.

enum class Engine { kSharded, kClassic };

struct Workload {
  std::string name;
  Engine engine = Engine::kSharded;
  // Sharded engine.
  ShardWorldConfig city;
  double fault_intensity = 0.0;  // mid-fault random plan when > 0
  double budget_prefixes = 0.0;  // per-server cache budget, in full prefixes
  bool journal = false;  // streamed journal (sharded engine only)
  int checkpoint_every = 0;
  // Classic engine: Geolife-like urban traces (bench/datasets.hpp shape),
  // generated at 5 s and resampled to the 20 s interval.
  UrbanTraceConfig traces;
  SimulationConfig classic;
};

MigrationRetryConfig chaos_retry() {
  return {.max_attempts = 6,
          .initial_backoff_intervals = 1,
          .max_backoff_intervals = 8};
}

/// bench_chaos's mid-fault plan: every fault class at intensity 0.01.
FaultPlan mid_fault_plan(std::uint64_t seed, double intensity, int servers,
                         int clients, int intervals) {
  RandomFaultConfig faults;
  faults.seed = seed + 1;  // plan stream independent of the sim seed
  faults.num_servers = servers;
  faults.num_clients = clients;
  faults.num_intervals = intervals;
  faults.server_crash_rate = intensity;
  faults.crash_downtime_intervals = 4;
  faults.backhaul_degrade_rate = intensity;
  faults.backhaul_outage_intervals = 3;
  faults.telemetry_dropout_rate = intensity;
  faults.client_disconnect_rate = intensity / 5.0;
  return FaultPlan::random_schedule(faults);
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  Workload w;
  w.name = name;
  ShardWorldConfig& c = w.city;
  c.model = ModelName::kInception;
  c.offline_probability = 0.02;
  c.seed = seed;
  if (name == "city_steady") {
    // A quarter of bench_scale; no faults, no budget, timeseries only.
    c.tiles_x = tiny ? 8 : 50;
    c.tiles_y = tiny ? 8 : 50;
    c.num_clients = tiny ? 4000 : 250'000;
    c.num_intervals = tiny ? 6 : 24;
  } else if (name == "city_pressure") {
    // bench_cache's dense city under a one-prefix budget, plus bench_chaos's
    // mid-fault plan, a flash crowd with an admission cap, the journal and
    // periodic checkpoints: the serial control plane at full load.
    c.tiles_x = tiny ? 8 : 20;
    c.tiles_y = tiny ? 8 : 20;
    c.num_clients = tiny ? 3000 : 30'000;
    c.num_intervals = tiny ? 8 : 24;
    c.migration_retry = chaos_retry();
    c.flash_crowd_tiles = std::max(1, c.num_servers() / 100);
    c.flash_crowd_multiplier = 25.0;
    c.admission_max_attached =
        std::max(8, 2 * c.num_clients / c.num_servers());
    w.fault_intensity = 0.01;
    w.budget_prefixes = 1.0;
    w.journal = true;
    w.checkpoint_every = tiny ? 3 : 6;
  } else if (name == "urban_replay") {
    w.engine = Engine::kClassic;
    w.traces.num_users = tiny ? 12 : 138;
    w.traces.duration = (tiny ? 20.0 : 60.0) * 60.0;
    SimulationConfig& s = w.classic;
    s.model = ModelName::kInception;
    s.policy = MigrationPolicy::kProactive;
    s.predictor = PredictorKind::kSvr;
    s.migration_radius_m = 100.0;  // as in `perdnn simulate`
    s.migration_retry = chaos_retry();
    s.seed = seed;
    w.fault_intensity = 0.01;
    w.budget_prefixes = 2.0;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

/// Everything set-up produces; the passes only read it (the classic config
/// gains its fault plan and budget once the world's server count is known).
struct Setup {
  std::optional<ShardWorld> city;
  SimulationConfig classic;
  std::optional<SimulationWorld> world;
  int num_servers = 0;
  int num_intervals = 0;
  long long active_client_intervals = 0;
  std::size_t plan_events = 0;
  Bytes budget = 0;
};

Setup build_setup(const Workload& w, std::uint64_t seed) {
  Setup s;
  if (w.engine == Engine::kSharded) {
    ShardWorldConfig config = w.city;
    if (w.fault_intensity > 0) {
      PERDNN_SPAN("faults/random_schedule");
      config.fault_plan =
          mid_fault_plan(seed, w.fault_intensity, config.num_servers(),
                         config.num_clients, config.num_intervals);
    }
    {
      PERDNN_SPAN("sim/build_shard_world");
      s.city = build_shard_world(config);
    }
    // Planning tables do not depend on the budget (bench_cache does the
    // same), so it is set on the built world.
    s.budget = static_cast<Bytes>(
        w.budget_prefixes * static_cast<double>(s.city->prefix_bytes.back()));
    s.city->config.cache_budget_bytes = s.budget;
    s.num_servers = config.num_servers();
    s.num_intervals = config.num_intervals;
    s.active_client_intervals =
        static_cast<long long>(config.num_clients) * config.num_intervals;
    s.plan_events = config.fault_plan.size();
    return s;
  }

  std::vector<Trajectory> train, test;
  {
    PERDNN_SPAN("mobility/generate_urban_traces");
    UrbanTraceConfig tc = w.traces;
    tc.seed = 2 * seed + 1;
    train = bench::resample_all(generate_urban_traces(tc), 4);
    tc.seed = 2 * seed + 2;
    test = bench::resample_all(generate_urban_traces(tc), 4);
  }
  s.classic = w.classic;
  {
    PERDNN_SPAN("sim/build_world");
    s.world = build_world(s.classic, train, test);
  }
  s.num_servers = s.world->servers.num_servers();
  for (const Trajectory& t : test)
    s.num_intervals = std::max(s.num_intervals, static_cast<int>(t.size()));
  for (const Trajectory& t : test)
    s.active_client_intervals += static_cast<long long>(t.size());
  {
    PERDNN_SPAN("faults/random_schedule");
    s.classic.fault_plan =
        mid_fault_plan(seed, w.fault_intensity, s.num_servers,
                       static_cast<int>(test.size()), s.num_intervals);
  }
  s.plan_events = s.classic.fault_plan.size();
  s.budget = static_cast<Bytes>(
      w.budget_prefixes *
      static_cast<double>(s.world->canonical_schedule.total_bytes()));
  s.classic.cache_budget_bytes = s.budget;
  return s;
}

// ---------------------------------------------------------------------------
// Output scanning: digest plus the totals the checks reconcile.

/// Order-sensitive 64-bit digest (FNV-1a over 8-byte words, then the tail
/// bytes). Only compared for equality between runs of the same build.
struct Digest {
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = 1469598103934665603ull;
  void add(const char* p, std::size_t n) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, p + i, 8);
      h = (h ^ word) * kPrime;
      h ^= h >> 32;
    }
    for (; i < n; ++i) h = (h ^ static_cast<unsigned char>(p[i])) * kPrime;
  }
  void add(const std::string& s) { add(s.data(), s.size()); }
};

struct StreamTotals {
  std::uint64_t timeseries_bytes = 0;
  long long rows = 0;
  long long cold_queries = 0;
  double cold_latency_s = 0.0;
  long long migration_orders = 0;
  std::uint64_t journal_bytes = 0;
  long long journal_events = 0;
  long long cache_stores = 0;
  long long cache_partials = 0;
};

/// Feeds a file through the digest in fixed 1 MiB blocks and hands every
/// line (without its newline) to on_line, so a large stream never sits in
/// memory (peak RSS is an end-to-end metric). Returns the byte count.
template <typename OnLine>
std::uint64_t scan_file(const std::string& path, Digest& digest,
                        OnLine&& on_line) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!file) throw std::runtime_error("missing output " + path);
  std::vector<char> block(1 << 20);
  std::string carry;
  std::uint64_t bytes = 0;
  std::size_t n = 0;
  while ((n = std::fread(block.data(), 1, block.size(), file.get())) > 0) {
    digest.add(block.data(), n);
    bytes += n;
    const char* p = block.data();
    const char* const end = p + n;
    while (p < end) {
      const auto* nl = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
      if (nl == nullptr) {
        carry.append(p, end);
        break;
      }
      if (carry.empty()) {
        on_line(std::string_view(p, static_cast<std::size_t>(nl - p)));
      } else {
        carry.append(p, nl);
        on_line(std::string_view(carry));
        carry.clear();
      }
      p = nl + 1;
    }
  }
  if (!carry.empty()) on_line(std::string_view(carry));
  return bytes;
}

void scan_timeseries(const std::string& path, Digest& digest,
                     StreamTotals& t) {
  int q_col = -1, l_col = -1, o_col = -1;
  bool header = true;
  t.timeseries_bytes = scan_file(path, digest, [&](std::string_view line) {
    if (line.empty() || line[0] == '#') return;
    if (header) {
      int col = 0;
      for (std::size_t start = 0; start <= line.size(); ++col) {
        std::size_t end = line.find(',', start);
        if (end == std::string_view::npos) end = line.size();
        const std::string_view field = line.substr(start, end - start);
        if (field == "cold_window_queries") q_col = col;
        if (field == "cold_latency_sum_s") l_col = col;
        if (field == "migration_orders") o_col = col;
        start = end + 1;
      }
      if (q_col < 0 || l_col < 0 || o_col < 0)
        throw std::runtime_error("timeseries header lacks a column");
      header = false;
      return;
    }
    ++t.rows;
    // Every column read here is followed by a ',', which ends the number.
    const char* p = line.data();
    const char* const end = p + line.size();
    for (int col = 0; p < end; ++col) {
      if (col == q_col) t.cold_queries += std::strtoll(p, nullptr, 10);
      if (col == l_col) t.cold_latency_s += std::strtod(p, nullptr);
      if (col == o_col) t.migration_orders += std::strtoll(p, nullptr, 10);
      const auto* comma = static_cast<const char*>(
          std::memchr(p, ',', static_cast<std::size_t>(end - p)));
      if (comma == nullptr) break;
      p = comma + 1;
    }
  });
}

void scan_journal(const std::string& path, Digest& digest, StreamTotals& t) {
  constexpr std::string_view kKind = "\"kind\":\"";
  t.journal_bytes = scan_file(path, digest, [&](std::string_view line) {
    if (line.empty() || line[0] == '#') return;
    ++t.journal_events;
    const std::size_t at = line.find(kKind);
    if (at == std::string_view::npos) return;
    const std::string_view kind = line.substr(at + kKind.size());
    if (kind.starts_with("cache_store\"")) ++t.cache_stores;
    if (kind.starts_with("cache_partial\"")) ++t.cache_partials;
  });
}

// ---------------------------------------------------------------------------
// Passes.

/// Redirects fd 2 into a file for its lifetime, so the sharded engine's
/// PERDNN_PHASE_TIMING line can be read back.
class StderrToFile {
 public:
  explicit StderrToFile(const std::string& path) {
    const int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) throw std::runtime_error("cannot write " + path);
    std::fflush(stderr);
    saved_ = dup(2);
    dup2(fd, 2);
    close(fd);
  }
  ~StderrToFile() {
    std::fflush(stderr);
    dup2(saved_, 2);
    close(saved_);
  }
  StderrToFile(const StderrToFile&) = delete;
  StderrToFile& operator=(const StderrToFile&) = delete;

 private:
  int saved_ = -1;
};

struct PassOptions {
  int threads = kThreads;
  bool streams = true;
  int stop_after = -1;
  const snapshot::SimSnapshot* resume = nullptr;
  snapshot::SimSnapshot* capture = nullptr;
};

struct PassResult {
  double wall_s = 0.0;      // simulation call plus (classic) CSV export
  double sim_wall_s = 0.0;  // the simulation call alone
  std::vector<double> interval_wall_s;
  SimulationMetrics metrics;
  std::string metrics_json;
  std::uint64_t digest = 0;
  StreamTotals streams;
  /// Sharded stage totals in seconds: bucketing, Phase A, Phase B, finish.
  std::vector<double> stages;
};

std::vector<double> parse_phase_timing(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    double b = 0, a = 0, p = 0, f = 0;
    if (std::sscanf(line.c_str(),
                    "phase timing: bucket=%lfs phase_a=%lfs apply=%lfs "
                    "finish=%lfs",
                    &b, &a, &p, &f) == 4)
      return {b, a, p, f};
  }
  return {};
}

/// Durations (seconds) of the Tracer's events named `name`, in start order.
std::vector<double> span_durations(const std::vector<obs::TraceEvent>& events,
                                   const std::string& name) {
  std::vector<const obs::TraceEvent*> hits;
  for (const obs::TraceEvent& e : events)
    if (e.name == name) hits.push_back(&e);
  std::sort(hits.begin(), hits.end(),
            [](const auto* a, const auto* b) { return a->ts_us < b->ts_us; });
  std::vector<double> out;
  out.reserve(hits.size());
  for (const auto* e : hits) out.push_back(e->dur_us / 1e6);
  return out;
}

PassResult run_pass(const Workload& w, const Setup& s, const std::string& dir,
                    const PassOptions& opt) {
  par::set_num_threads(opt.threads);
  PassResult r;
  const std::string ts_path = dir + "/timeseries.csv";
  const std::string jr_path = dir + "/journal.jsonl";
  const bool partial = opt.stop_after >= 0;

  if (w.engine == Engine::kSharded) {
    ShardRunOptions o;
    o.num_shards = kShards;
    if (opt.streams) {
      o.timeseries_path = ts_path;
      if (w.journal) o.journal_path = jr_path;
      if (w.checkpoint_every > 0) {
        o.checkpoint_every = w.checkpoint_every;
        o.checkpoint_path = dir + "/checkpoint.snap";
      }
    }
    o.resume_from = opt.resume;
    o.stop_after_interval = opt.stop_after;
    o.capture_out = opt.capture;
    o.interval_wall_s = &r.interval_wall_s;
    const std::string err_path = dir + "/stderr.txt";
    {
      StderrToFile capture(err_path);
      const auto t0 = Clock::now();
      r.metrics = run_sharded_simulation(*s.city, o);
      r.sim_wall_s = seconds_since(t0);
    }
    r.wall_s = r.sim_wall_s;
    r.stages = parse_phase_timing(err_path);
  } else {
    // The classic engine has no per-interval wall hook; its `sim.interval`
    // span is read from the Tracer. Only spans are collected (the metric
    // registry stays off), unless the caller already opened a traced window.
    // A traced window starts right before its pass, so every event the
    // Tracer holds here belongs to this pass.
    obs::Tracer& tracer = obs::Tracer::global();
    const bool own_tracer = !tracer.active();
    if (own_tracer) tracer.start();
    obs::SimTimeseries timeseries;
    SimulationRunOptions o;
    o.resume_from = opt.resume;
    o.stop_after_interval = opt.stop_after;
    o.capture_out = opt.capture;
    const auto t0 = Clock::now();
    r.metrics = run_simulation(s.classic, *s.world,
                               opt.streams ? &timeseries : nullptr, o);
    r.sim_wall_s = seconds_since(t0);
    if (opt.streams && !partial) {
      std::ofstream out(ts_path, std::ios::binary | std::ios::trunc);
      timeseries.write_csv(out);
      if (!out) throw std::runtime_error("cannot write " + ts_path);
    }
    r.wall_s = seconds_since(t0);
    r.interval_wall_s = span_durations(tracer.events(), "sim.interval");
    if (own_tracer) {
      tracer.stop();
      tracer.clear();
    }
  }
  if (partial) return r;

  PERDNN_SPAN("obs/scan_outputs");
  r.metrics_json = snapshot::metrics_to_json(r.metrics);
  Digest digest;
  digest.add(r.metrics_json);
  if (opt.streams) {
    scan_timeseries(ts_path, digest, r.streams);
    if (w.journal) scan_journal(jr_path, digest, r.streams);
  }
  r.digest = digest.h;
  return r;
}

// ---------------------------------------------------------------------------
// Checks and results.

std::string format(const char* fmt, long long a, long long b) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

/// Conservation laws and bounds every full streams-on pass must satisfy.
std::vector<std::string> check_outputs(const Setup& s, const PassResult& r) {
  std::vector<std::string> failed;
  const SimulationMetrics& m = r.metrics;
  const long long occupancy = m.attached_client_intervals +
                              m.unreachable_client_intervals +
                              m.offline_client_intervals;
  if (occupancy != s.active_client_intervals)
    failed.push_back(
        format("attached+unreachable+offline %lld != active client-intervals "
               "%lld",
               occupancy, s.active_client_intervals));
  if (s.budget > 0 && m.peak_cache_bytes > s.budget * s.num_servers)
    failed.push_back(format("peak cache bytes %lld > budget x servers %lld",
                            static_cast<long long>(m.peak_cache_bytes),
                            static_cast<long long>(s.budget * s.num_servers)));
  if (m.migrations_deferred < m.migrations_abandoned)
    failed.push_back(format("deferred %lld < abandoned %lld",
                            m.migrations_deferred, m.migrations_abandoned));
  const std::pair<const char*, double> ratios[] = {
      {"availability", m.availability()},
      {"offload_ratio", m.offload_ratio()},
      {"hit_ratio", m.hit_ratio()}};
  for (const auto& [name, v] : ratios)
    if (!(v >= 0.0 && v <= 1.0))
      failed.push_back(std::string(name) + " outside [0,1]");
  const long long rows =
      static_cast<long long>(s.num_intervals) * s.num_servers;
  if (r.streams.rows != rows)
    failed.push_back(format("timeseries rows %lld != intervals x servers %lld",
                            r.streams.rows, rows));
  if (r.streams.cold_queries != m.cold_window_queries)
    failed.push_back(format("timeseries cold_window_queries %lld != metrics "
                            "%lld",
                            r.streams.cold_queries, m.cold_window_queries));
  if (r.streams.cold_queries <= 0)
    failed.push_back("no cold-window queries were simulated");
  return failed;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

JsonValue env_block(const Workload& w, std::uint64_t seed) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  Members m;
  m.emplace_back("nproc", num(std::thread::hardware_concurrency()));
  m.emplace_back("simd", JsonValue::make_string(simd::active_kernel()));
  m.emplace_back("compiler", JsonValue::make_string(compiler));
  m.emplace_back("build_type", JsonValue::make_string(PERFBENCH_BUILD_TYPE));
  m.emplace_back("threads", num(kThreads));
  m.emplace_back("shards",
                 num(w.engine == Engine::kSharded ? kShards : 0));
  m.emplace_back("seed", num(static_cast<double>(seed)));
  return JsonValue::make_object(std::move(m));
}

/// The simulated outcomes: what the modelled deployment achieves.
JsonValue outcome_json(const PassResult& r) {
  const SimulationMetrics& m = r.metrics;
  const double cold_latency_ms =
      r.streams.cold_queries > 0
          ? r.streams.cold_latency_s /
                static_cast<double>(r.streams.cold_queries) * 1e3
          : 0.0;
  Members o;
  o.emplace_back("cold_latency_ms", num(cold_latency_ms));
  o.emplace_back("cold_window_queries",
                 num(static_cast<double>(m.cold_window_queries)));
  o.emplace_back("hit_ratio", num(m.hit_ratio()));
  o.emplace_back("availability", num(m.availability()));
  o.emplace_back("offload_ratio", num(m.offload_ratio()));
  o.emplace_back("backhaul_gib",
                 num(static_cast<double>(m.total_migrated_bytes) / kGiB));
  return JsonValue::make_object(std::move(o));
}

JsonValue numbers(const std::vector<double>& xs) {
  std::vector<JsonValue> items;
  items.reserve(xs.size());
  for (double x : xs) items.push_back(num(x));
  return JsonValue::make_array(std::move(items));
}

JsonValue strings(const std::vector<std::string>& xs) {
  std::vector<JsonValue> items;
  for (const std::string& x : xs) items.push_back(JsonValue::make_string(x));
  return JsonValue::make_array(std::move(items));
}

/// The common head of both result kinds.
Members run_result(const Workload& w, std::uint64_t seed, double setup_s,
                   const Setup& s, const PassResult& r) {
  Members m;
  m.emplace_back("workload", JsonValue::make_string(w.name));
  m.emplace_back("env", env_block(w, seed));
  m.emplace_back("setup_s", num(setup_s));
  m.emplace_back("run_wall_s", num(r.wall_s));
  m.emplace_back("client_intervals",
                 num(static_cast<double>(s.active_client_intervals)));
  m.emplace_back("interval_wall_s", numbers(r.interval_wall_s));
  m.emplace_back("peak_rss_bytes",
                 num(static_cast<double>(obs::peak_rss_bytes())));
  m.emplace_back("sim", outcome_json(r));
  m.emplace_back("digest", JsonValue::make_string(hex(r.digest)));
  return m;
}

// ---------------------------------------------------------------------------
// Traced run: span log, self-time table and per-layer metrics.

struct LoggedSpan {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int tid = 0;
  int parent = -1;
};

/// Collects Tracer events over several traced windows onto one clock (the
/// Tracer restarts its origin and drops events on every start()).
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}
  void begin() {
    offset_us_ = std::chrono::duration<double, std::micro>(Clock::now() -
                                                           origin_)
                     .count();
    obs::Tracer::global().start();
  }
  void end() {
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.stop();
    for (const obs::TraceEvent& e : tracer.events())
      spans_.push_back({e.name, offset_us_ + e.ts_us,
                        offset_us_ + e.ts_us + e.dur_us, e.tid, -1});
    tracer.clear();
  }
  /// Parents by containment within each thread.
  std::vector<LoggedSpan> finish() {
    std::vector<std::size_t> order(spans_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const LoggedSpan& x = spans_[a];
      const LoggedSpan& y = spans_[b];
      if (x.tid != y.tid) return x.tid < y.tid;
      if (x.start_us != y.start_us) return x.start_us < y.start_us;
      return x.end_us > y.end_us;
    });
    std::vector<LoggedSpan> out;
    out.reserve(spans_.size());
    std::vector<int> stack;
    for (std::size_t i : order) {
      LoggedSpan span = spans_[i];
      while (!stack.empty() &&
             (out[static_cast<std::size_t>(stack.back())].tid != span.tid ||
              out[static_cast<std::size_t>(stack.back())].end_us <=
                  span.start_us))
        stack.pop_back();
      span.parent = stack.empty() ? -1 : stack.back();
      stack.push_back(static_cast<int>(out.size()));
      out.push_back(std::move(span));
    }
    return out;
  }

 private:
  Clock::time_point origin_;
  double offset_us_ = 0.0;
  std::vector<LoggedSpan> spans_;
};

/// Layer (this repo's module) a span belongs to: the prefix before the
/// first '.' or '/', with the library's span prefixes mapped to modules.
std::string layer_of(const std::string& name) {
  const std::string head = name.substr(0, name.find_first_of("./"));
  static const std::map<std::string, std::string> kModule = {
      {"master", "edge"}, {"replay", "edge"}, {"estimator", "estimation"}};
  const auto it = kModule.find(head);
  return it == kModule.end() ? head : it->second;
}

double span_total_ms(const std::vector<LoggedSpan>& spans,
                     const std::string& name) {
  double total = 0.0;
  for (const LoggedSpan& s : spans)
    if (s.name == name) total += s.end_us - s.start_us;
  return total / 1e3;
}

long long span_count(const std::vector<LoggedSpan>& spans,
                     const std::string& name) {
  return std::count_if(spans.begin(), spans.end(),
                       [&](const LoggedSpan& s) { return s.name == name; });
}

void print_self_time(const std::vector<LoggedSpan>& spans) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (const LoggedSpan& s : spans)
    if (s.parent >= 0)
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  struct Row {
    long long spans = 0;
    double total_us = 0.0, self_us = 0.0;
  };
  std::map<std::string, Row> rows;
  double all_self = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = spans[i].end_us - spans[i].start_us;
    Row& row = rows[layer_of(spans[i].name)];
    ++row.spans;
    row.total_us += dur;
    row.self_us += dur - child_us[i];
    all_self += dur - child_us[i];
  }
  TextTable table({"layer", "spans", "total ms", "self ms", "self share"});
  for (const auto& [layer, row] : rows)
    table.add_row({layer, TextTable::num(row.spans),
                   TextTable::num(row.total_us / 1e3, 1),
                   TextTable::num(row.self_us / 1e3, 1),
                   TextTable::num(all_self > 0 ? row.self_us / all_self : 0.0,
                                  3)});
  std::printf("per-layer self time (traced windows: set-up and the traced "
              "pass)\n%s",
              table.to_string().c_str());
}

void write_chrome_trace(const std::vector<LoggedSpan>& spans,
                        const std::string& path, const std::string& workload,
                        const std::string& run_id) {
  std::vector<JsonValue> events;
  events.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const LoggedSpan& s = spans[i];
    Members args;
    args.emplace_back("id", num(static_cast<double>(i)));
    args.emplace_back("parent", num(s.parent));
    args.emplace_back("end_us", num(s.end_us));
    args.emplace_back("workload", JsonValue::make_string(workload));
    args.emplace_back("run_id", JsonValue::make_string(run_id));
    Members e;
    e.emplace_back("name", JsonValue::make_string(s.name));
    e.emplace_back("cat", JsonValue::make_string(layer_of(s.name)));
    e.emplace_back("ph", JsonValue::make_string("X"));
    e.emplace_back("ts", num(s.start_us));
    e.emplace_back("dur", num(s.end_us - s.start_us));
    e.emplace_back("pid", num(0));
    e.emplace_back("tid", num(s.tid));
    e.emplace_back("args", JsonValue::make_object(std::move(args)));
    events.push_back(JsonValue::make_object(std::move(e)));
  }
  Members doc;
  doc.emplace_back("traceEvents", JsonValue::make_array(std::move(events)));
  doc.emplace_back("displayTimeUnit", JsonValue::make_string("ms"));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << JsonValue::make_object(std::move(doc)).serialize() << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

double median_ms_of(int reps, const std::function<void()>& op) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    op();
    ms.push_back(seconds_since(t0) * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

double sum(const std::vector<double>& xs) {
  double total = 0.0;
  for (double x : xs) total += x;
  return total;
}

double counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

int run_traced(const Workload& w, std::uint64_t seed, const std::string& dir,
               const std::string& trace_out, const std::string& run_id) {
  const bool sharded = w.engine == Engine::kSharded;
  std::vector<std::string> failed;
  std::map<std::string, std::string> unavailable;
  SpanLog log;
  obs::Registry::global().reset();

  // Window 1 (traced): set-up.
  obs::set_enabled(true);
  log.begin();
  const auto setup_start = Clock::now();
  Setup s;
  {
    PERDNN_SPAN("perfbench/setup");
    s = build_setup(w, seed);
  }
  const double setup_s = seconds_since(setup_start);
  log.end();
  obs::set_enabled(false);

  // Untraced passes. b is the end-to-end configuration.
  const PassResult b = run_pass(w, s, dir, {});
  for (const std::string& f : check_outputs(s, b)) failed.push_back(f);
  const PassResult one = run_pass(w, s, dir, {.threads = 1});
  if (one.digest != b.digest)
    failed.push_back("1-thread digest " + hex(one.digest) + " != " +
                     hex(b.digest));
  const PassResult off = run_pass(w, s, dir, {.streams = false});
  if (off.metrics_json != b.metrics_json)
    failed.push_back("metrics differ with the output streams off");
  snapshot::SimSnapshot snap;
  const int mid = s.num_intervals / 2 - 1;
  run_pass(w, s, dir, {.stop_after = mid, .capture = &snap});
  const PassResult resumed = run_pass(w, s, dir, {.resume = &snap});
  if (resumed.digest != b.digest)
    failed.push_back("resumed digest " + hex(resumed.digest) + " != " +
                     hex(b.digest));

  // Window 2 (traced): the traced pass and the snapshot codec.
  obs::set_enabled(true);
  log.begin();
  PassResult traced;
  {
    PERDNN_SPAN(sharded ? "sim/run_sharded_simulation" : "sim/run_simulation");
    traced = run_pass(w, s, dir, {});
  }
  if (traced.digest != b.digest)
    failed.push_back("traced digest " + hex(traced.digest) + " != " +
                     hex(b.digest));
  std::string encoded;
  const std::string snap_path = dir + "/codec.snap";
  double encode_ms = 0, decode_ms = 0, save_ms = 0, load_ms = 0;
  {
    PERDNN_SPAN("snapshot/encode");
    encode_ms = median_ms_of(3, [&] { encoded = snapshot::encode(snap); });
  }
  snapshot::SimSnapshot decoded;
  {
    PERDNN_SPAN("snapshot/decode");
    decode_ms = median_ms_of(3, [&] { decoded = snapshot::decode(encoded); });
  }
  if (snapshot::encode(decoded) != encoded)
    failed.push_back("snapshot decode/encode round trip differs");
  {
    PERDNN_SPAN("snapshot/save");
    save_ms = median_ms_of(3, [&] { snapshot::save(snap, snap_path); });
  }
  {
    PERDNN_SPAN("snapshot/load");
    load_ms = median_ms_of(3, [&] { snapshot::load(snap_path); });
  }
  log.end();
  obs::set_enabled(false);
  const std::vector<LoggedSpan> spans = log.finish();

  // Per-layer metrics.
  const SimulationMetrics& m = b.metrics;
  const double intervals = static_cast<double>(s.num_intervals);
  std::vector<std::pair<std::string, double>> layers;
  const auto put = [&layers](const std::string& name, double v) {
    layers.emplace_back(name, v);
  };
  const auto na = [&](const std::string& name, const std::string& why) {
    put(name, 0.0);
    unavailable[name] = why;
  };
  put("sim.thread_speedup", one.wall_s / b.wall_s);
  put("sim.server_changes", m.server_changes);
  put("sim.attaches_shed", m.attaches_shed);
  put("sim.local_fallback_queries",
      static_cast<double>(m.local_fallback_queries));
  put("sim.degraded_attaches", m.degraded_attaches);
  put("sim.hit_ratio", m.hit_ratio());
  if (sharded) {
    na("sim.interval_self_ms", "sharded engine has no sim.interval span");
    na("sim.migrate_ms", "sharded engine has no sim.migrate span");
  } else {
    const double interval_ms = span_total_ms(spans, "sim.interval");
    const double migrate_ms = span_total_ms(spans, "sim.migrate");
    put("sim.interval_self_ms", (interval_ms - migrate_ms) / intervals);
    put("sim.migrate_ms", migrate_ms / intervals);
  }
  const char* kStages[] = {"sim.stage.bucket_ms", "sim.stage.phase_a_ms",
                           "sim.stage.phase_b_ms", "sim.stage.finish_ms"};
  if (b.stages.size() == 4) {
    for (int i = 0; i < 4; ++i) put(kStages[i], b.stages[i] * 1e3 / intervals);
    const double staged = sum(b.stages);
    put("sim.stage.phase_b_share", staged > 0 ? b.stages[2] / staged : 0.0);
  } else {
    const std::string why = sharded ? "PERDNN_PHASE_TIMING line not found"
                                    : "classic engine has no stage timers";
    for (const char* name : kStages) na(name, why);
    na("sim.stage.phase_b_share", why);
  }
  put("sim.resume_s", resumed.sim_wall_s - sum(resumed.interval_wall_s));

  put("edge.cache.evictions", static_cast<double>(m.cache_evictions));
  put("edge.cache.partial_stores", static_cast<double>(m.cache_partial_stores));
  put("edge.cache.peak_mib", static_cast<double>(m.peak_cache_bytes) / kMiB);
  if (w.journal) {
    put("edge.cache.partial_share",
        b.streams.cache_stores > 0
            ? static_cast<double>(b.streams.cache_partials) /
                  static_cast<double>(b.streams.cache_stores)
            : 0.0);
  } else {
    na("edge.cache.partial_share", "journal off on this workload");
  }
  put("edge.retry.deferred", m.migrations_deferred);
  put("edge.retry.retries", m.migration_retries);
  put("edge.retry.abandoned", m.migrations_abandoned);
  put("edge.retry.abandon_share",
      m.migrations_deferred > 0 ? static_cast<double>(m.migrations_abandoned) /
                                      m.migrations_deferred
                                : 0.0);
  put("edge.retry.peak_backlog_mib",
      static_cast<double>(m.peak_deferred_backlog_bytes) / kMiB);
  put("edge.migration.orders", static_cast<double>(b.streams.migration_orders));
  for (const auto& [metric, span] :
       {std::pair<const char*, const char*>{"edge.master.plan_migrations_ms",
                                            "master.plan_migrations"},
        {"edge.master.select_server_ms", "master.select_server"}}) {
    if (span_count(spans, span) > 0)
      put(metric, span_total_ms(spans, span));
    else
      na(metric, std::string("no ") + span + " span: the engine plans inline");
  }

  const double hits = counter("estimate_cache.hits");
  const double lookups = hits + counter("estimate_cache.misses");
  if (lookups > 0)
    put("estimation.cache_hit_ratio", hits / lookups);
  else
    na("estimation.cache_hit_ratio", "no EstimateCache lookups");
  put("estimation.estimates", counter("estimator.estimates"));
  put("estimation.train_s", span_total_ms(spans, "estimator.train") / 1e3);
  put("partition.plans", counter("partition.plans"));
  put("partition.plan_latency_calls", counter("partition.plan_latency_calls"));
  put("partition.upload_order_candidates", counter("upload_order.candidates"));
  put("partition.shortest_path_ms",
      span_total_ms(spans, "partition.shortest_path"));
  put("faults.plan_events", static_cast<double>(s.plan_events));
  put("faults.server_failures", m.server_failures);
  put("par.tasks", counter("par.tasks"));
  put("par.task_ms",
      obs::Registry::global().histogram("par.task_latency_s").sum() * 1e3);

  put("obs.timeseries_mib", static_cast<double>(b.streams.timeseries_bytes) /
                                kMiB);
  put("obs.journal_mib", static_cast<double>(b.streams.journal_bytes) / kMiB);
  put("obs.journal_events", static_cast<double>(b.streams.journal_events));
  put("obs.output_s", b.wall_s - off.wall_s);

  put("snapshot.mib", static_cast<double>(encoded.size()) / kMiB);
  put("snapshot.encode_ms", encode_ms);
  put("snapshot.decode_ms", decode_ms);
  put("snapshot.save_ms", save_ms);
  put("snapshot.load_ms", load_ms);
  put("snapshot.checkpoint_s", b.sim_wall_s - sum(b.interval_wall_s));
  put("trace.overhead_share", traced.wall_s / b.wall_s - 1.0);

  print_self_time(spans);
  if (!trace_out.empty()) write_chrome_trace(spans, trace_out, w.name, run_id);

  Members result = run_result(w, seed, setup_s, s, b);
  Members layer_json;
  for (const auto& [name, v] : layers) layer_json.emplace_back(name, num(v));
  result.emplace_back("layers", JsonValue::make_object(std::move(layer_json)));
  Members na_json;
  for (const auto& [name, why] : unavailable)
    na_json.emplace_back(name, JsonValue::make_string(why));
  result.emplace_back("unavailable",
                      JsonValue::make_object(std::move(na_json)));
  result.emplace_back("failures", strings(failed));
  std::printf("%s\n",
              JsonValue::make_object(std::move(result)).serialize().c_str());
  return failed.empty() ? 0 : 3;
}

int run_untraced(const Workload& w, std::uint64_t seed,
                 const std::string& dir) {
  const auto setup_start = Clock::now();
  const Setup s = build_setup(w, seed);
  const double setup_s = seconds_since(setup_start);
  const PassResult r = run_pass(w, s, dir, {});
  const std::vector<std::string> failed = check_outputs(s, r);
  Members result = run_result(w, seed, setup_s, s, r);
  result.emplace_back("failures", strings(failed));
  std::printf("%s\n",
              JsonValue::make_object(std::move(result)).serialize().c_str());
  return failed.empty() ? 0 : 3;
}

int usage(const char* what) {
  std::fprintf(stderr,
               "perfbench_run: %s\n"
               "usage: perfbench_run --workload NAME --seed N --tmp DIR "
               "[--size full|tiny] [--run-id ID] [--traced --trace-out FILE]\n",
               what);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, dir, size = "full", trace_out, run_id = "run";
  std::optional<std::uint64_t> seed;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--traced") {
      traced = true;
    } else if (!has_value) {
      return usage(("missing value for " + flag).c_str());
    } else if (flag == "--workload") {
      workload = argv[++i];
    } else if (flag == "--seed") {
      char* end = nullptr;
      const char* value = argv[++i];
      seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage("--seed needs an integer");
    } else if (flag == "--tmp") {
      dir = argv[++i];
    } else if (flag == "--size") {
      size = argv[++i];
    } else if (flag == "--trace-out") {
      trace_out = argv[++i];
    } else if (flag == "--run-id") {
      run_id = argv[++i];
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload.empty() || dir.empty() || !seed)
    return usage("--workload, --seed and --tmp are required");
  if (size != "full" && size != "tiny") return usage("--size is full or tiny");

  try {
    const Workload w = make_workload(workload, *seed, size == "tiny");
    par::set_num_threads(kThreads);  // set-up runs at the workload's count too
    // Read back from stderr by run_pass; the accumulators run either way.
    setenv("PERDNN_PHASE_TIMING", "1", 1);
    return traced ? run_traced(w, *seed, dir, trace_out, run_id)
                  : run_untraced(w, *seed, dir);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 1;
  }
}
