// perdnn — command-line front end for the library.
//
//   perdnn models
//       List the model zoo with sizes, FLOPs and device latencies.
//   perdnn partition <model> [load] [uplink_mbps]
//       Print the partitioning plan for a client/server pair. A load that
//       is not an int >= 1, or an uplink that is not a finite number > 0,
//       exits 2.
//   perdnn traces <campus|urban> <out.txt> [users] [minutes]
//       Generate a synthetic mobility dataset and save it. A trace file in
//       place of campus|urban is re-read and re-saved; one that fails to
//       parse or validate exits 2.
//   perdnn simulate <model> <campus|urban|traces.txt> [ionn|perdnn|optimal]
//                   [--timeseries-out FILE] [--metrics-out FILE]
//                   [--metrics-prom-out FILE] [--journal-out FILE]
//                   [--trace-out FILE] [--fault-plan FILE]
//                   [--failure-rate R] [--downtime N]
//                   [--users N] [--minutes M] [--seed S]
//                   [--snapshot-save FILE] [--snapshot-every N]
//                   [--snapshot-at K] [--snapshot-resume FILE]
//       Run the smart-city simulation and print the summary. The
//       observability flags export, respectively: the per-interval
//       per-server timeseries (CSV, or JSON when FILE ends in .json), the
//       metric registry (counters/gauges/histograms; JSON, or Prometheus
//       text format via --metrics-prom-out), the deterministic event
//       journal (JSONL, streamed to FILE as the run goes; tools/perdnn_obs
//       queries it and `perdnn_obs convert` makes the compact binary
//       form), and a span trace loadable in chrome://tracing / Perfetto
//       (JSON). Fault flags:
//       --fault-plan loads a scripted JSON fault schedule (see
//       src/faults/fault_plan.hpp); --failure-rate/--downtime drive the
//       legacy per-interval random crash model. The two are mutually
//       exclusive. A fault plan that does not parse, fails validation or
//       names an entity outside the built world exits 2. Snapshot flags:
//       --snapshot-save names the checkpoint file, written every
//       --snapshot-every intervals and/or once after interval
//       --snapshot-at (which then stops the run);
//       --snapshot-resume continues a run from a checkpoint — byte-identical
//       to the uninterrupted run. The checkpoint stores the journal's byte
//       offset, not its events: to journal a resumed run, journal the
//       checkpointed run too and pass the same --journal-out FILE to both
//       (the resume truncates FILE to the checkpoint and appends). A
//       corrupt/mismatched snapshot exits 2, and so does a journaling resume
//       from a checkpoint that streamed no journal, and a trace file that
//       fails to parse or validate.
//   perdnn profile <model> <out.txt>
//       Run the concurrency sweep and save estimator-training records.
//
// Unknown commands, flags, model names and policy names are hard errors:
// they print to stderr and exit non-zero instead of silently falling back
// to defaults.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/arg_parse.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/perdnn.hpp"
#include "generated_traces.hpp"
#include "mobility/trace_gen.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "snapshot/snapshot.hpp"

namespace {

using namespace perdnn;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  perdnn models\n"
               "  perdnn partition <mobilenet|inception|resnet|alexnet|vgg16> "
               "[load] [uplink_mbps]\n"
               "  perdnn traces <campus|urban> <out.txt> [users] [minutes]\n"
               "  perdnn simulate <mobilenet|inception|resnet> "
               "<campus|urban|traces.txt> [ionn|perdnn|optimal]\n"
               "                  [--timeseries-out FILE] [--metrics-out "
               "FILE] [--trace-out FILE]\n"
               "                  [--metrics-prom-out FILE] [--journal-out "
               "FILE]\n"
               "                  [--fault-plan FILE] [--failure-rate R] "
               "[--downtime N]\n"
               "                  [--users N] [--minutes M] [--seed S]\n"
               "                  [--snapshot-save FILE] [--snapshot-every N]"
               " [--snapshot-at K]\n"
               "                  [--snapshot-resume FILE] [--sim-metrics-out FILE]\n"
               "  perdnn profile <model> <out.txt>\n"
               "global flags: --threads N (worker pool size; 1 = serial, "
               "default PERDNN_THREADS or hardware)\n");
  return 2;
}

DnnModel model_by_name(const std::string& name) {
  if (const std::optional<ModelName> model = model_from_flag(name))
    return build_model(*model);
  if (name == "alexnet") return build_alexnet();
  if (name == "vgg16") return build_vgg16();
  throw std::runtime_error("unknown model '" + name + "'");
}

int cmd_models() {
  TextTable table({"model", "layers", "MB", "GFLOPs", "client s", "server s"});
  for (const char* name :
       {"mobilenet", "inception", "resnet", "alexnet", "vgg16"}) {
    const DnnModel model = model_by_name(name);
    table.add_row(
        {model.name(),
         TextTable::num(static_cast<long long>(model.num_layers())),
         TextTable::num(bytes_to_mb(model.total_weight_bytes()), 1),
         TextTable::num(model.total_flops() / 1e9, 2),
         TextTable::num(total_client_time(
                            profile_on_client(model, odroid_xu4_profile())),
                        3),
         TextTable::num(total_client_time(
                            profile_on_client(model, titan_xp_profile())),
                        3)});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_partition(int argc, char** argv) {
  if (argc < 1) return usage();
  const DnnModel model = model_by_name(argv[0]);
  int load = 1;
  double uplink = 35.0;
  if (argc > 1 && !(parse_int(argv[1], &load) && load >= 1)) {
    std::fprintf(stderr, "error: load must be an integer >= 1, got '%s'\n",
                 argv[1]);
    return 2;
  }
  if (argc > 2 && !(parse_double(argv[2], &uplink) && uplink > 0.0)) {
    std::fprintf(stderr,
                 "error: uplink_mbps must be a finite number > 0, got '%s'\n",
                 argv[2]);
    return 2;
  }

  const DnnProfile client = profile_on_client(model, odroid_xu4_profile());
  const GpuContentionModel gpu(titan_xp_profile());
  PartitionContext context;
  context.model = &model;
  context.client_profile = &client;
  context.net.uplink_bytes_per_sec = mbps_to_bytes_per_sec(uplink);
  context.net.downlink_bytes_per_sec =
      mbps_to_bytes_per_sec(uplink * 50.0 / 35.0);
  for (LayerId id = 0; id < model.num_layers(); ++id)
    context.server_time.push_back(gpu.expected_layer_time(
        model.layer(id), model.input_bytes(id), static_cast<double>(load)));

  const PartitionPlan plan = compute_best_plan(context);
  std::printf("%s @ %d concurrent clients, %.0f Mbps uplink\n",
              model.name().c_str(), load, uplink);
  std::printf("  local latency:   %.3f s\n", local_only_latency(context));
  std::printf("  plan latency:    %.3f s (%.1fx)\n", plan.latency,
              local_only_latency(context) / plan.latency);
  std::printf("  server layers:   %d / %d (%.1f MB to deploy)\n",
              plan.num_server_layers(), model.num_layers(),
              bytes_to_mb(plan.server_bytes(model)));
  const UploadSchedule schedule = plan_upload_order(
      context, plan, {.enumeration = UploadEnumeration::kAnchored});
  std::printf("  upload duration: %.1f s at this uplink\n",
              static_cast<double>(schedule.total_bytes()) /
                  context.net.uplink_bytes_per_sec);
  const EnergyProfile energy = odroid_energy_profile();
  std::printf("  client energy:   %.2f J/query (local %.2f J)\n",
              plan_energy_joules(context, plan, energy),
              local_only_latency(context) * energy.compute_watts);
  return 0;
}

/// Whether `minutes` of generated trace stays inside the generators'
/// points-per-trajectory bound (trace_points); prints why not.
bool minutes_ok(double minutes) {
  try {
    trace_points(minutes * 60.0, kSampleIntervalS);
    return true;
  } catch (const TraceConfigError& e) {
    std::fprintf(stderr, "error: %g minutes: %s\n", minutes, e.what());
    return false;
  }
}

std::vector<Trajectory> make_traces(const std::string& kind, int users,
                                    double minutes, std::uint64_t seed) {
  if (auto traces = generate_traces(kind, users, minutes, seed))
    return std::move(*traces);
  return load_traces_file(kind);  // treat as a file path
}

int cmd_traces(int argc, char** argv) {
  if (argc < 2) return usage();
  int users = 0;
  double minutes = 120.0;
  if (argc > 2 && !parse_int(argv[2], &users)) {
    std::fprintf(stderr, "error: users must be an integer in int's range, "
                         "got '%s'\n", argv[2]);
    return 2;
  }
  if (argc > 3 && !parse_double(argv[3], &minutes)) {
    std::fprintf(stderr, "error: minutes must be a number, got '%s'\n",
                 argv[3]);
    return 2;
  }
  if (!minutes_ok(minutes)) return 2;
  const auto traces = make_traces(argv[0], users, minutes, 1);
  save_traces_file(traces, argv[1]);
  std::printf("wrote %zu trajectories (%.1f min at %.0f s sampling, mean "
              "speed %.2f m/s) to %s\n",
              traces.size(), minutes, traces.front().interval,
              mean_speed(traces), argv[1]);
  return 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Writes `text` to `path`, throwing on I/O failure.
void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << text;
  if (!out) throw std::runtime_error("error writing " + path);
}

struct SimulateArgs {
  ModelName model = ModelName::kInception;
  std::string traces;
  MigrationPolicy policy = MigrationPolicy::kProactive;
  std::string timeseries_out;
  std::string metrics_out;
  std::string metrics_prom_out;  // Prometheus text exposition format
  std::string journal_out;       // streamed JSONL
  std::string trace_out;
  std::string fault_plan_file;
  double failure_rate = 0.0;
  int downtime = 3;
  int users = 0;          // 0 = trace-kind default
  double minutes = 120.0;
  int seed = 42;          // SimulationConfig::seed
  std::string snapshot_save;
  std::string snapshot_resume;
  int snapshot_every = 0;
  int snapshot_at = -1;
  std::string sim_metrics_out;  // deterministic SimulationMetrics JSON
};

/// Strict parser for `simulate`: positional model/traces/[policy] plus the
/// observability flags (either `--flag value` or `--flag=value`). Returns
/// nullopt after printing the offending token to stderr.
std::optional<SimulateArgs> parse_simulate_args(int argc, char** argv) {
  SimulateArgs args;
  std::vector<std::string> positional;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string name = arg;
      std::string value;
      bool have_value = false;
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        name = arg.substr(0, eq);
        value = arg.substr(eq + 1);
        have_value = true;
      } else if (i + 1 < argc) {
        value = argv[++i];
        have_value = true;
      }
      double* double_target = nullptr;
      int* int_target = nullptr;
      if (name == "--failure-rate") double_target = &args.failure_rate;
      else if (name == "--minutes") double_target = &args.minutes;
      else if (name == "--downtime") int_target = &args.downtime;
      else if (name == "--users") int_target = &args.users;
      else if (name == "--seed") int_target = &args.seed;
      else if (name == "--snapshot-every") int_target = &args.snapshot_every;
      else if (name == "--snapshot-at") int_target = &args.snapshot_at;
      if (double_target != nullptr || int_target != nullptr) {
        if (!have_value || value.empty()) {
          std::fprintf(stderr, "error: flag '%s' needs a numeric argument\n",
                       name.c_str());
          return std::nullopt;
        }
        const bool ok = double_target != nullptr
                            ? parse_double(value, double_target)
                            : parse_int(value, int_target);
        if (!ok) {
          std::fprintf(stderr,
                       "error: flag '%s' needs a number in range, got '%s'\n",
                       name.c_str(), value.c_str());
          return std::nullopt;
        }
        continue;
      }
      std::string* target = nullptr;
      if (name == "--timeseries-out") target = &args.timeseries_out;
      else if (name == "--metrics-out") target = &args.metrics_out;
      else if (name == "--metrics-prom-out") target = &args.metrics_prom_out;
      else if (name == "--journal-out") target = &args.journal_out;
      else if (name == "--trace-out") target = &args.trace_out;
      else if (name == "--fault-plan") target = &args.fault_plan_file;
      else if (name == "--snapshot-save") target = &args.snapshot_save;
      else if (name == "--snapshot-resume") target = &args.snapshot_resume;
      else if (name == "--sim-metrics-out") target = &args.sim_metrics_out;
      if (target == nullptr) {
        std::fprintf(stderr, "error: unknown flag '%s'\n", name.c_str());
        return std::nullopt;
      }
      if (!have_value || value.empty()) {
        std::fprintf(stderr, "error: flag '%s' needs a file argument\n",
                     name.c_str());
        return std::nullopt;
      }
      *target = value;
      continue;
    }
    positional.push_back(std::move(arg));
  }
  if (positional.size() < 2 || positional.size() > 3) {
    std::fprintf(stderr,
                 "error: simulate needs <model> <traces> [policy]\n");
    return std::nullopt;
  }
  const std::optional<ModelName> model = model_from_flag(positional[0]);
  if (!model) {
    std::fprintf(stderr,
                 "error: unknown model '%s' (simulate supports "
                 "mobilenet|inception|resnet)\n",
                 positional[0].c_str());
    return std::nullopt;
  }
  args.model = *model;
  args.traces = positional[1];
  if (positional.size() > 2) {
    const std::string& policy = positional[2];
    if (policy == "ionn") args.policy = MigrationPolicy::kNone;
    else if (policy == "perdnn") args.policy = MigrationPolicy::kProactive;
    else if (policy == "optimal") args.policy = MigrationPolicy::kOptimal;
    else {
      std::fprintf(stderr,
                   "error: unknown policy '%s' (expected "
                   "ionn|perdnn|optimal)\n",
                   policy.c_str());
      return std::nullopt;
    }
  }
  if (!args.fault_plan_file.empty() && args.failure_rate != 0.0) {
    std::fprintf(stderr,
                 "error: --fault-plan and --failure-rate are mutually "
                 "exclusive\n");
    return std::nullopt;
  }
  if (args.failure_rate < 0.0 || args.failure_rate > 1.0) {
    std::fprintf(stderr,
                 "error: --failure-rate must be a probability in [0, 1] "
                 "(got %g)\n",
                 args.failure_rate);
    return std::nullopt;
  }
  if (args.downtime < 1) {
    std::fprintf(stderr, "error: --downtime must be >= 1 (got %d)\n",
                 args.downtime);
    return std::nullopt;
  }
  if (!minutes_ok(args.minutes)) return std::nullopt;
  return args;
}

int cmd_simulate(int argc, char** argv) {
  const std::optional<SimulateArgs> parsed = parse_simulate_args(argc, argv);
  if (!parsed) return 2;

  if ((parsed->snapshot_every > 0 || parsed->snapshot_at >= 0) &&
      parsed->snapshot_save.empty()) {
    std::fprintf(stderr, "error: --snapshot-every/--snapshot-at require "
                         "--snapshot-save FILE\n");
    return 2;
  }

  SimulationConfig config;
  config.model = parsed->model;
  config.policy = parsed->policy;
  config.migration_radius_m = 100.0;
  config.server_failure_rate = parsed->failure_rate;
  config.server_downtime_intervals = parsed->downtime;
  config.seed = static_cast<std::uint64_t>(parsed->seed);
  if (!parsed->fault_plan_file.empty()) {
    std::ifstream in(parsed->fault_plan_file);
    if (!in)
      throw std::runtime_error("cannot open " + parsed->fault_plan_file);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    try {
      config.fault_plan = FaultPlan::from_json(text);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: bad fault plan %s: %s\n",
                   parsed->fault_plan_file.c_str(), e.what());
      return 2;
    }
    std::printf("fault plan: %zu scripted events from %s\n",
                config.fault_plan.size(), parsed->fault_plan_file.c_str());
  }

  if (!parsed->metrics_out.empty() || !parsed->metrics_prom_out.empty()) {
    obs::Registry::global().reset();
    obs::set_enabled(true);
  }
  if (!parsed->trace_out.empty()) obs::Tracer::global().start();

  // Load any resume snapshot before the (expensive) world build so a
  // corrupt file fails fast with exit 2.
  snapshot::SimSnapshot resume_snapshot;
  bool resuming = false;
  if (!parsed->snapshot_resume.empty()) {
    try {
      resume_snapshot = snapshot::load(parsed->snapshot_resume);
      resuming = true;
    } catch (const snapshot::SnapshotError& e) {
      std::fprintf(stderr, "error: bad snapshot %s: %s\n",
                   parsed->snapshot_resume.c_str(), e.what());
      return 2;
    }
    std::printf("resuming from %s at interval %d\n",
                parsed->snapshot_resume.c_str(), resume_snapshot.next_interval);
  }

  const auto test = make_traces(parsed->traces, parsed->users,
                                parsed->minutes, 22);
  const auto train = make_traces(parsed->traces, parsed->users,
                                 parsed->minutes, 11);
  const SimulationWorld world = build_world(config, train, test);
  try {
    config.fault_plan.check_bounds(world.servers.num_servers(),
                                   static_cast<int>(world.test_traces.size()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: bad fault plan %s: %s\n",
                 parsed->fault_plan_file.c_str(), e.what());
    return 2;
  }

  // Record the timeseries whenever we may write a checkpoint: the snapshot
  // carries the row prefix so a resumed run can emit the full series.
  obs::SimTimeseries timeseries;
  obs::SimTimeseries* recorder =
      parsed->timeseries_out.empty() && parsed->snapshot_save.empty()
          ? nullptr
          : &timeseries;
  if (recorder != nullptr)
    recorder->set_model(model_name_str(parsed->model));
  SimulationRunOptions run_options;
  if (resuming) run_options.resume_from = &resume_snapshot;
  run_options.checkpoint_every = parsed->snapshot_every;
  run_options.stop_after_interval = parsed->snapshot_at;
  run_options.checkpoint_path = parsed->snapshot_save;
  run_options.journal_path = parsed->journal_out;

  SimulationMetrics metrics;
  try {
    metrics = run_simulation(config, world, recorder, run_options);
  } catch (const snapshot::SnapshotError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  if (parsed->snapshot_at >= 0) {
    std::printf("checkpoint saved: %s (stopped after interval %d)\n",
                parsed->snapshot_save.c_str(), parsed->snapshot_at);
    return 0;  // partial run: outputs come from the resumed run
  }

  std::printf("%d servers, %d clients, %d intervals\n", metrics.num_servers,
              metrics.num_clients, metrics.num_intervals);
  std::printf("cold-window queries: %lld   hit ratio: %.1f%%   server "
              "changes: %d\n",
              metrics.cold_window_queries, metrics.hit_ratio() * 100.0,
              metrics.server_changes);
  std::printf("migrated: %.0f MB   peak backhaul uplink: %.0f Mbps\n",
              bytes_to_mb(metrics.total_migrated_bytes),
              metrics.peak_uplink_mbps);
  if (!config.fault_plan.empty() || config.server_failure_rate > 0.0) {
    std::printf("faults: %d crashes, %d evictions, %d disconnects   "
                "availability: %.1f%%   offloaded: %.1f%%\n",
                metrics.server_failures, metrics.failure_evictions,
                metrics.client_disconnect_events,
                metrics.availability() * 100.0,
                metrics.offload_ratio() * 100.0);
    std::printf("local fallback queries: %lld   migrations deferred: %d "
                "(%.0f MB, %d retries, %d abandoned)\n",
                metrics.local_fallback_queries, metrics.migrations_deferred,
                bytes_to_mb(metrics.deferred_migration_bytes),
                metrics.migration_retries, metrics.migrations_abandoned);
  }

  if (recorder != nullptr && !parsed->timeseries_out.empty()) {
    std::ofstream out(parsed->timeseries_out);
    if (!out)
      throw std::runtime_error("cannot open " + parsed->timeseries_out);
    if (ends_with(parsed->timeseries_out, ".json"))
      recorder->write_json(out);
    else
      recorder->write_csv(out);
    if (!out) throw std::runtime_error("error writing " +
                                       parsed->timeseries_out);
    std::printf("timeseries: %d intervals x %d servers -> %s\n",
                recorder->num_intervals(), recorder->num_servers(),
                parsed->timeseries_out.c_str());
  }
  if (!parsed->metrics_out.empty()) {
    write_file(parsed->metrics_out, obs::Registry::global().to_json());
    std::printf("metrics: %s\n", parsed->metrics_out.c_str());
  }
  if (!parsed->metrics_prom_out.empty()) {
    write_file(parsed->metrics_prom_out,
               obs::Registry::global().to_prometheus());
    std::printf("metrics (prometheus): %s\n",
                parsed->metrics_prom_out.c_str());
  }
  if (!parsed->journal_out.empty())
    std::printf("journal: %s\n", parsed->journal_out.c_str());
  if (!parsed->sim_metrics_out.empty()) {
    write_file(parsed->sim_metrics_out, snapshot::metrics_to_json(metrics));
    std::printf("sim metrics: %s\n", parsed->sim_metrics_out.c_str());
  }
  if (!parsed->trace_out.empty()) {
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.stop();
    write_file(parsed->trace_out, tracer.to_chrome_json());
    std::printf("trace: %zu spans -> %s (load in chrome://tracing)\n",
                tracer.num_events(), parsed->trace_out.c_str());
  }
  return 0;
}

int cmd_profile(int argc, char** argv) {
  if (argc < 2) return usage();
  const DnnModel model = model_by_name(argv[0]);
  const GpuContentionModel gpu(titan_xp_profile());
  ConcurrencyProfiler profiler(&gpu, Rng(1));
  const DnnModel* models[] = {&model};
  ProfilerConfig config;
  const auto records = profiler.profile_models(models, config);
  std::ofstream out(argv[1]);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 1;
  }
  save_records(records, out);
  std::printf("wrote %zu profiling records (1..%d clients) to %s\n",
              records.size(), config.max_clients, argv[1]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --threads N / --threads=N (any position) and size the pool.
  argc = par::init_threads_from_cli(argc, argv);
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "models") return cmd_models();
    if (command == "partition") return cmd_partition(argc - 2, argv + 2);
    if (command == "traces") return cmd_traces(argc - 2, argv + 2);
    if (command == "simulate") return cmd_simulate(argc - 2, argv + 2);
    if (command == "profile") return cmd_profile(argc - 2, argv + 2);
  } catch (const TraceFormatError& e) {
    std::fprintf(stderr, "error: bad trace file: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
  return usage();
}
