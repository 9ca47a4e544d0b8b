// Fig 9 — large-scale simulation: queries executed in cold-start windows
// and hit ratios, for the IONN baseline, PerDNN with migration radius
// r=50 m and r=100 m, and the all-layers-everywhere Optimal, across both
// datasets and all three models.
//
// With an output prefix argument (bench_fig9_large_scale /tmp/fig9), every
// policy run additionally dumps its per-interval per-server timeseries to
// <prefix>_<dataset>_<model>_<policy>.csv, so each bar of the figure can be
// decomposed interval by interval.
//
// `--journal-out PREFIX` streams every policy run's journal to
// <prefix>_<dataset>_<model>_<policy>.journal.jsonl (tools/perdnn_obs reads
// them). Comparing total wall-clock with and without the flag measures the
// journaling overhead on the paper's largest workload.
//
// Unknown flags, a flag missing its value and a second output prefix are
// hard errors (exit 2).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "common/parallel.hpp"
#include "common/table.hpp"
#include "datasets.hpp"
#include "obs/timeseries.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace perdnn;
using namespace perdnn::bench;

std::string sanitize(std::string s) {
  for (char& c : s)
    if (c == ' ' || c == '(' || c == ')' || c == '=') c = '-';
  return s;
}

void run_dataset(const DatasetPair& data, const char* out_prefix,
                 const char* journal_prefix) {
  std::printf("\n===== %s (%zu users) =====\n", data.name, data.test.size());
  for (ModelName model :
       {ModelName::kMobileNet, ModelName::kInception, ModelName::kResNet}) {
    SimulationConfig config;
    config.model = model;
    config.seed = 97;
    const SimulationWorld world = build_world(config, data.train, data.test);

    struct Row {
      const char* label;
      MigrationPolicy policy;
      double radius;
    };
    const Row rows[] = {
        {"IONN (baseline)", MigrationPolicy::kNone, 0.0},
        {"PerDNN r=50", MigrationPolicy::kProactive, 50.0},
        {"PerDNN r=100", MigrationPolicy::kProactive, 100.0},
        {"Optimal", MigrationPolicy::kOptimal, 0.0},
    };

    std::printf("\n--- %s on %s: %d servers ---\n", model_name_str(model),
                data.name, world.servers.num_servers());
    TextTable table({"policy", "cold-window queries", "hit ratio %",
                     "hits/partials/misses", "server changes"});
    // The four policy runs share the (read-only) world and are independent:
    // fan them out, each streaming its own journal, collect metrics plus the
    // rendered timeseries CSV, then write files and rows serially in policy
    // order so the output is stable at any thread count.
    const auto journal_file = [&](const Row& row) {
      return std::string(journal_prefix) + "_" + data.name + "_" +
             model_name_str(model) + "_" + sanitize(row.label) +
             ".journal.jsonl";
    };
    struct RowResult {
      SimulationMetrics metrics;
      std::string csv;
    };
    const auto results =
        par::parallel_map(std::size(rows), [&](std::size_t r) {
          SimulationConfig run = config;
          run.policy = rows[r].policy;
          if (rows[r].radius > 0.0) run.migration_radius_m = rows[r].radius;
          RowResult result;
          obs::SimTimeseries timeseries;
          timeseries.set_model(model_name_str(model));
          obs::SimTimeseries* recorder =
              out_prefix != nullptr ? &timeseries : nullptr;
          SimulationRunOptions options;
          if (journal_prefix != nullptr)
            options.journal_path = journal_file(rows[r]);
          result.metrics = run_simulation(run, world, recorder, options);
          if (recorder != nullptr) {
            std::ostringstream csv;
            recorder->write_csv(csv);
            result.csv = csv.str();
          }
          return result;
        });
    for (std::size_t r = 0; r < results.size(); ++r) {
      const Row& row = rows[r];
      const SimulationMetrics& metrics = results[r].metrics;
      if (out_prefix != nullptr) {
        const std::string path = std::string(out_prefix) + "_" + data.name +
                                 "_" + model_name_str(model) + "_" +
                                 sanitize(row.label) + ".csv";
        std::ofstream out(path);
        if (!out) {
          std::fprintf(stderr, "cannot open %s\n", path.c_str());
          std::exit(1);
        }
        out << results[r].csv;
        std::printf("timeseries -> %s\n", path.c_str());
      }
      if (journal_prefix != nullptr)
        std::printf("journal -> %s\n", journal_file(row).c_str());
      char hm[64];
      std::snprintf(hm, sizeof hm, "%d/%d/%d", metrics.hits, metrics.partials,
                    metrics.misses);
      table.add_row({row.label,
                     TextTable::num(static_cast<long long>(
                         metrics.cold_window_queries)),
                     TextTable::num(metrics.hit_ratio() * 100.0, 1), hm,
                     TextTable::num(static_cast<long long>(
                         metrics.server_changes))});
    }
    std::printf("%s", table.to_string().c_str());
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_fig9_large_scale [prefix] [--journal-out PREFIX] "
               "[--threads N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  argc = par::init_threads_from_cli(argc, argv);
  const char* out_prefix = nullptr;
  const char* journal_prefix = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--journal-out") == 0) {
      if (i + 1 >= argc) return usage();
      journal_prefix = argv[++i];
    } else if (std::strncmp(argv[i], "--", 2) == 0 || out_prefix != nullptr) {
      return usage();
    } else {
      out_prefix = argv[i];
    }
  }
  std::printf("=== Fig 9: executed queries and hit ratios during the "
              "large-scale simulation ===\n");
  std::printf("paper shape: IONN < PerDNN(r=50) < PerDNN(r=100) < Optimal;\n"
              "hit ratio grows with r; KAIST (slow users) hits more than "
              "Geolife (fast users);\nMobileNet gains little (tiny model), "
              "Inception/ResNet gain a lot\n");
  const auto start = std::chrono::steady_clock::now();
  try {
    run_dataset(kaist_like(), out_prefix, journal_prefix);
    run_dataset(geolife_like(), out_prefix, journal_prefix);
  } catch (const std::runtime_error& e) {  // e.g. an unwritable journal
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  std::printf("\ntotal wall-clock %.3fs (%d threads)\n", elapsed.count(),
              par::num_threads());
  return 0;
}
