// Google-benchmark microbenchmarks for the hot algorithmic paths: the
// partitioning DP (runs per query in the simulator), upload-order planning
// (runs per server change), min-cut, and the mobility predictors.
//
// `bench_micro --json <path>` switches to the comparison harness instead:
// it times the simulator, random-forest training, and the profiler sweep
// once serially (--threads 1) and once with the configured pool
// ("benches", the BENCH_parallel.json shape), then times the single-query
// fast path against its baselines ("fastpath", the BENCH_fastpath.json
// artifact): batched estimate_model vs a per-layer estimate() loop,
// incremental upload-order scoring vs the full-replan oracle
// plan_upload_order_reference, and the AVX2 forest kernel vs scalar.
// `--threads N` / PERDNN_THREADS pick the pool size for the parallel leg;
// the fast-path legs always run serially so the numbers isolate the
// algorithmic change. The harness finishes with an
// allocation audit ("allocations"): a global operator-new counter times two
// simulator runs at different horizons, and the difference per extra
// interval is the steady-state heap-allocation rate — the number the
// scratch-buffer reuse in the migration-order loop is meant to keep flat.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <string>

#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "core/perdnn.hpp"
#include "datasets.hpp"
#include "ml/flat_forest.hpp"
#include "mobility/predictor.hpp"
#include "mobility/trace_gen.hpp"
#include "sim/simulator.hpp"

// ------------------------------------------------ allocation counter
// Replaces the global allocator for this binary only: every operator new
// bumps a relaxed atomic, so the --json harness can difference counts
// around simulator runs. free() handles both malloc and aligned_alloc
// pointers on this platform, so one delete family suffices.

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};

void* counted_alloc(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc wants size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded == 0 ? align : rounded);
}
}  // namespace

// GCC pairs each free() below with the replaced operator new it inlined and
// reports -Wmismatched-new-delete, though every new here is malloc or
// aligned_alloc. Silenced for the replacements only, so a real mismatch
// elsewhere still warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p =
          counted_aligned_alloc(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, std::size_t) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop

namespace {

using namespace perdnn;

struct PartitionFixture {
  DnnModel model;
  DnnProfile client;
  PartitionContext context;
  PartitionPlan plan;

  explicit PartitionFixture(ModelName name) : model(build_model(name)) {
    client = profile_on_client(model, odroid_xu4_profile());
    const DnnProfile server = profile_on_client(model, titan_xp_profile());
    context.model = &model;
    context.client_profile = &client;
    context.server_time = server.client_time;
    plan = compute_best_plan(context);
  }
};

PartitionFixture& fixture(ModelName name) {
  static PartitionFixture mobilenet(ModelName::kMobileNet);
  static PartitionFixture inception(ModelName::kInception);
  static PartitionFixture resnet(ModelName::kResNet);
  switch (name) {
    case ModelName::kMobileNet: return mobilenet;
    case ModelName::kInception: return inception;
    default: return resnet;
  }
}

void BM_ShortestPathPlan(benchmark::State& state) {
  PartitionFixture& f = fixture(static_cast<ModelName>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(compute_best_plan(f.context));
  state.SetLabel(f.model.name());
}
BENCHMARK(BM_ShortestPathPlan)->Arg(0)->Arg(1)->Arg(2);

void BM_PlanLatencyMasked(benchmark::State& state) {
  PartitionFixture& f = fixture(static_cast<ModelName>(state.range(0)));
  std::vector<bool> mask(static_cast<std::size_t>(f.model.num_layers()));
  for (std::size_t i = 0; i < mask.size(); ++i) mask[i] = i % 2 == 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(plan_latency(f.context, mask));
  state.SetLabel(f.model.name());
}
BENCHMARK(BM_PlanLatencyMasked)->Arg(0)->Arg(1)->Arg(2);

void BM_MinCutPlan(benchmark::State& state) {
  PartitionFixture& f = fixture(static_cast<ModelName>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(compute_mincut_plan(f.context));
  state.SetLabel(f.model.name());
}
BENCHMARK(BM_MinCutPlan)->Arg(0)->Arg(1)->Arg(2);

void BM_UploadOrder(benchmark::State& state) {
  PartitionFixture& f = fixture(ModelName::kInception);
  const UploadPlannerConfig config{
      state.range(0) == 0 ? UploadEnumeration::kExact
                          : UploadEnumeration::kAnchored};
  for (auto _ : state)
    benchmark::DoNotOptimize(plan_upload_order(f.context, f.plan, config));
  state.SetLabel(state.range(0) == 0 ? "exact" : "anchored");
}
BENCHMARK(BM_UploadOrder)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SvrPredict(benchmark::State& state) {
  CampusTraceConfig config;
  config.num_users = 10;
  config.duration = 3600.0;
  const auto traces = generate_campus_traces(config);
  SvrPredictor predictor(5);
  Rng rng(3);
  predictor.fit(traces, rng);
  const auto& points = traces.front().points;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        predictor.predict(std::span<const Point>(points.data(), 10)));
}
BENCHMARK(BM_SvrPredict);

void BM_LiveCutBytes(benchmark::State& state) {
  PartitionFixture& f = fixture(ModelName::kInception);
  for (auto _ : state) benchmark::DoNotOptimize(live_cut_bytes(f.model));
}
BENCHMARK(BM_LiveCutBytes);

// ------------------------------------------- parallel-runtime comparison

double wall_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

int run_parallel_bench(const char* json_path, int threads) {
  struct Workload {
    const char* name;
    std::function<void()> run;
  };
  const bench::DatasetPair data = bench::kaist_like(20.0, 3600.0);
  const GpuContentionModel gpu(titan_xp_profile());
  const DnnModel inception = build_inception21k();
  const DnnModel* models[] = {&inception};
  ProfilerConfig prof_config;
  prof_config.max_clients = 8;
  prof_config.samples_per_level = 4;
  ConcurrencyProfiler record_profiler(&gpu, Rng(5));
  const auto records = record_profiler.profile_models(models, prof_config);

  const Workload workloads[] = {
      {"simulator",
       [&] {
         SimulationConfig config;
         config.model = ModelName::kMobileNet;
         config.seed = 97;
         const SimulationWorld world =
             build_world(config, data.train, data.test);
         run_simulation(config, world, nullptr);
       }},
      {"forest_train",
       [&] {
         Rng rng(7);
         RandomForestEstimator forest;
         forest.train(records, rng);
       }},
      {"profiler_sweep", [&] {
         ConcurrencyProfiler profiler(&gpu, Rng(5));
         profiler.profile_models(models, prof_config);
       }}};

  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path);
    return 1;
  }
  // `simd` records which kernel produced the fastpath numbers, so the
  // regression gate only applies vector-speedup floors where the vector
  // kernel actually ran.
  std::fprintf(out,
               "{\"hardware_threads\":%d,\"threads\":%d,\"simd\":\"%s\","
               "\"benches\":[",
               par::hardware_threads(), threads, simd::active_kernel());
  bool first = true;
  for (const Workload& w : workloads) {
    par::set_num_threads(1);
    const double serial_s = wall_seconds(w.run);
    par::set_num_threads(threads);
    const double parallel_s = wall_seconds(w.run);
    const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"serial_s\":%.6f,\"parallel_s\":%.6f,"
                 "\"speedup\":%.3f}",
                 first ? "" : ",", w.name, serial_s, parallel_s, speedup);
    std::printf("%-16s serial %.3fs  %d threads %.3fs  speedup %.2fx\n",
                w.name, serial_s, threads, parallel_s, speedup);
    first = false;
  }

  // --------------------------------- single-query fast-path comparison
  // Baseline legs run the slower formulation each fast path replaced
  // (per-layer estimate() calls, a full replan per upload candidate); fast
  // legs run what production calls (batched estimate_model, incremental DP
  // scoring). Both serial, so the ratio is the algorithmic speedup alone
  // (docs: "Single-query fast path" in DESIGN.md).
  par::set_num_threads(1);

  RandomForestEstimator estimator;
  {
    Rng rng(7);
    estimator.train(records, rng);
  }
  DnnProfile client = profile_on_client(inception, odroid_xu4_profile());
  const DnnProfile server = profile_on_client(inception, titan_xp_profile());
  PartitionContext context;
  context.model = &inception;
  context.client_profile = &client;
  context.server_time = server.client_time;
  const PartitionPlan plan = compute_best_plan(context);

  // Distinct GpuStats per repetition so no cache could short-circuit the
  // sweep. The baseline estimates one layer per call; the fast leg is the
  // batched estimate_model every plan-building call site uses.
  const auto estimate_sweep = [&](bool batched) {
    GpuStats stats;
    double sink = 0.0;
    for (int i = 0; i < 200; ++i) {
      stats.num_clients = i % 8 + 1;
      stats.kernel_util = 0.1 + 0.001 * i;
      if (batched) {
        for (const Seconds s : estimator.estimate_model(inception, stats))
          sink += s;
      } else {
        for (LayerId id = 0; id < inception.num_layers(); ++id)
          sink += estimator.estimate(inception.layer(id),
                                     inception.input_bytes(id), stats);
      }
    }
    benchmark::DoNotOptimize(sink);
  };
  using UploadPlanner = UploadSchedule (*)(
      const PartitionContext&, const PartitionPlan&, UploadPlannerConfig);
  const auto upload_sweep = [&](UploadPlanner planner,
                                UploadEnumeration enumeration) {
    for (int i = 0; i < 3; ++i)
      benchmark::DoNotOptimize(
          planner(context, plan, {.enumeration = enumeration}));
  };

  // Batched-forest kernel: the same FlatForest over the same row block,
  // scalar rows vs the width-8 AVX2 traversal. Both legs go through
  // predict_batch_into, so the ratio isolates the SIMD kernel (the JSON's
  // `simd` field says whether the fast leg actually ran vectorized).
  const bool simd_was_enabled = simd::enabled();
  ml::FlatForest batch_forest;
  {
    ml::Dataset batch_data;
    Rng gen_rng(23);
    for (int i = 0; i < 400; ++i) {
      Vector x(6);
      for (auto& v : x) v = gen_rng.uniform(-2.0, 2.0);
      double y = 0.0;
      for (std::size_t f = 0; f < x.size(); ++f)
        y += (f % 2 == 0 ? 1.0 : -0.5) * x[f] * x[f];
      batch_data.add(std::move(x), y);
    }
    ml::ForestConfig forest_config;
    forest_config.num_trees = 16;
    ml::RandomForest forest(forest_config);
    Rng fit_rng(27);
    forest.fit(batch_data, fit_rng);
    batch_forest = ml::FlatForest::compile(forest);
  }
  const std::size_t batch_rows = 8192;
  std::vector<double> batch_features(batch_rows *
                                     batch_forest.num_features());
  {
    Rng row_rng(29);
    for (double& v : batch_features) v = row_rng.uniform(-3.0, 3.0);
  }
  std::vector<double> batch_out(batch_rows);
  const auto forest_sweep = [&] {
    for (int rep = 0; rep < 24; ++rep)
      batch_forest.predict_batch_into(batch_features.data(),
                                      batch_forest.num_features(), batch_rows,
                                      batch_out.data());
    benchmark::DoNotOptimize(batch_out.data());
  };

  struct FastBench {
    const char* name;
    std::function<void()> baseline;
    std::function<void()> fast;
  };
  const FastBench fast_benches[] = {
      {"estimator_batch", [&] { estimate_sweep(false); },
       [&] { estimate_sweep(true); }},
      {"upload_order_exact",
       [&] {
         upload_sweep(plan_upload_order_reference, UploadEnumeration::kExact);
       },
       [&] { upload_sweep(plan_upload_order, UploadEnumeration::kExact); }},
      {"upload_order_anchored",
       [&] {
         upload_sweep(plan_upload_order_reference,
                      UploadEnumeration::kAnchored);
       },
       [&] { upload_sweep(plan_upload_order, UploadEnumeration::kAnchored); }},
      {"forest_batch",
       [&] {
         simd::set_enabled(false);
         forest_sweep();
       },
       [&] {
         simd::set_enabled(true);  // clamped to build/CPU availability
         forest_sweep();
       }}};

  // Best-of-3 per leg: on a shared runner any single measurement can absorb
  // a scheduler preemption or a noisy neighbour; the minimum of three runs
  // is the closest observable to the code's actual cost, and it keeps the
  // fast-path speedup ratios stable enough to gate on.
  const auto best_of = [](const std::function<void()>& fn) {
    double best = wall_seconds(fn);
    for (int rep = 0; rep < 2; ++rep) best = std::min(best, wall_seconds(fn));
    return best;
  };
  std::fprintf(out, "],\"fastpath\":[");
  first = true;
  for (const FastBench& b : fast_benches) {
    b.fast();  // warm-up: touches every code path and scratch buffer once
    const double baseline_s = best_of(b.baseline);
    const double fast_s = best_of(b.fast);
    const double speedup = fast_s > 0.0 ? baseline_s / fast_s : 0.0;
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"baseline_s\":%.6f,\"fast_s\":%.6f,"
                 "\"speedup\":%.3f}",
                 first ? "" : ",", b.name, baseline_s, fast_s, speedup);
    std::printf("%-22s baseline %.3fs  fast %.3fs  speedup %.2fx\n", b.name,
                baseline_s, fast_s, speedup);
    first = false;
  }
  simd::set_enabled(simd_was_enabled);

  // ------------------------------------- steady-state allocation audit
  // Same world shape at two horizons: differencing the operator-new counts
  // cancels the fixed startup allocations (world build happens outside the
  // counted window; initial simulator state is identical), leaving the
  // per-interval heap-allocation rate of the steady-state path.
  const auto count_run = [](const bench::DatasetPair& data_pair) {
    SimulationConfig config;
    config.model = ModelName::kMobileNet;
    config.seed = 97;
    const SimulationWorld world =
        build_world(config, data_pair.train, data_pair.test);
    int intervals = 0;
    for (const auto& t : data_pair.test)
      intervals = std::max(intervals, static_cast<int>(t.points.size()));
    const std::uint64_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    run_simulation(config, world, nullptr);
    const std::uint64_t allocs =
        g_allocation_count.load(std::memory_order_relaxed) - before;
    return std::pair<std::uint64_t, int>{allocs, intervals};
  };
  const auto [short_allocs, short_intervals] =
      count_run(bench::kaist_like(20.0, 1800.0));
  const auto [long_allocs, long_intervals] =
      count_run(bench::kaist_like(20.0, 3600.0));
  const double per_interval =
      static_cast<double>(long_allocs - short_allocs) /
      static_cast<double>(std::max(1, long_intervals - short_intervals));
  std::fprintf(out,
               "],\"allocations\":{\"short_intervals\":%d,"
               "\"short_total\":%llu,\"long_intervals\":%d,"
               "\"long_total\":%llu,\"per_interval\":%.1f}}\n",
               short_intervals,
               static_cast<unsigned long long>(short_allocs), long_intervals,
               static_cast<unsigned long long>(long_allocs), per_interval);
  std::printf("allocations: %d intervals -> %llu, %d intervals -> %llu "
              "(%.1f allocs/interval steady-state)\n",
              short_intervals,
              static_cast<unsigned long long>(short_allocs), long_intervals,
              static_cast<unsigned long long>(long_allocs), per_interval);
  std::fclose(out);
  std::printf("wrote %s\n", json_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  argc = perdnn::par::init_threads_from_cli(argc, argv);
  const char* json_path = nullptr;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (json_path != nullptr)
    return run_parallel_bench(json_path, perdnn::par::num_threads());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
