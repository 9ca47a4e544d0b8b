// perdnn_runner — sharded scenario sweeps with checkpoint/resume.
//
//   perdnn_runner run <manifest.json> <out_dir> [--workers N]
//       Expand the manifest's policies x seeds x fault_intensities grid into
//       shards, fan them out across N forked worker processes (default 2),
//       and merge the per-shard outputs once every shard is done. Shards
//       whose metrics file already exists are skipped; shards with a
//       checkpoint resume from it, so re-running after a crash or kill
//       completes only the remaining work and reproduces the exact outputs
//       of an uninterrupted sweep.
//   perdnn_runner worker <manifest.json> <out_dir> <index> <count>
//       Run the shards assigned to worker `index` of `count` in-process
//       (what `run` forks internally; exposed for debugging).
//   perdnn_runner status <manifest.json> <out_dir>
//       Print per-shard progress: done / checkpointed / pending.
//   perdnn_runner merge <manifest.json> <out_dir>
//       Merge completed shard outputs into merged_metrics.json and
//       merged_timeseries.csv. Fails if any shard is incomplete.
//   perdnn_runner inspect <file.ckpt>
//       Validate and summarise a checkpoint. Corrupt, truncated or
//       version-mismatched files exit 2 (never crash).
//
// A manifest that is not valid JSON or fails a check exits 2 on every
// subcommand. `run` and `worker` parse a file-backed `trace` once, before
// any shard starts, and exit 2 if it fails to parse or validate.
//
// Per-shard files in <out_dir>:
//   shard_NNN.ckpt            checkpoint (deleted once the shard finishes)
//   shard_NNN.metrics.json    deterministic SimulationMetrics (done marker)
//   shard_NNN.timeseries.csv  per-interval per-server rows
//   shard_NNN.journal.jsonl   event journal (manifest "journal": true only)
//   shard_NNN.stats.json      peak RSS and row count, read by `status`
// All files but the journal are written atomically (tmp + rename), so a
// kill can never leave a half-written done-marker or checkpoint behind.
// The journal streams to its file as the shard runs, and the checkpoint
// stores its byte offset: a killed-and-resumed shard truncates the file
// back to the checkpoint and appends, producing a journal byte-identical
// to an uninterrupted run's.
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/arg_parse.hpp"
#include "core/perdnn.hpp"
#include "mobility/trace_gen.hpp"
#include "obs/json.hpp"
#include "obs/resource.hpp"
#include "obs/timeseries.hpp"
#include "sim/simulator.hpp"
#include "snapshot/snapshot.hpp"

namespace {

using namespace perdnn;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  perdnn_runner run <manifest.json> <out_dir> [--workers N]\n"
               "  perdnn_runner worker <manifest.json> <out_dir> <index> "
               "<count>\n"
               "  perdnn_runner status <manifest.json> <out_dir>\n"
               "  perdnn_runner merge <manifest.json> <out_dir>\n"
               "  perdnn_runner inspect <file.ckpt>\n");
  return 2;
}

// ---------------------------------------------------------------------------
// Manifest

/// Sampling period of the campus and urban traces a sweep generates.
constexpr Seconds kSampleIntervalS = 20.0;

struct Manifest {
  std::string model = "inception";
  std::string trace = "campus";
  int users = 0;  // 0 = trace-kind default
  double minutes = 120.0;
  int checkpoint_every = 4;
  int downtime = 3;
  long long cache_budget_bytes = 0;  // 0 = unbudgeted caches
  bool journal = false;  // record per-shard event journals
  std::vector<std::string> policies;
  std::vector<int> seeds;
  std::vector<double> fault_intensities;
  /// A file-backed `trace`, parsed once by load_trace_file before any fork.
  std::vector<Trajectory> trace_file;
};

/// A manifest that is not valid JSON or fails a check. Every subcommand
/// exits 2 on it; an unreadable manifest file still exits 1.
class ManifestError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Shard {
  int index = 0;
  std::string policy;
  int seed = 0;
  double fault_intensity = 0.0;

  std::string name() const {
    char buf[32];
    std::snprintf(buf, sizeof buf, "shard_%03d", index);
    return buf;
  }
};

ModelName model_by_name(const std::string& name) {
  if (name == "mobilenet") return ModelName::kMobileNet;
  if (name == "inception") return ModelName::kInception;
  if (name == "resnet") return ModelName::kResNet;
  throw std::runtime_error("unknown model '" + name + "'");
}

MigrationPolicy policy_by_name(const std::string& name) {
  if (name == "ionn") return MigrationPolicy::kNone;
  if (name == "perdnn") return MigrationPolicy::kProactive;
  if (name == "optimal") return MigrationPolicy::kOptimal;
  throw std::runtime_error("unknown policy '" + name + "'");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Atomic write: a reader either sees the complete file or no file.
void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + tmp);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    if (!out) throw std::runtime_error("error writing " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " -> " + path);
  }
}

bool file_exists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return static_cast<bool>(in);
}

void ensure_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return;
  throw std::runtime_error("cannot create directory " + path + ": " +
                           std::strerror(errno));
}

double require_number(const obs::JsonValue& doc, const std::string& key) {
  const obs::JsonValue* v = doc.find(key);
  if (v == nullptr || v->kind() != obs::JsonValue::Kind::kNumber)
    throw std::runtime_error("missing numeric field '" + key + "'");
  return v->as_number();
}

/// `v`, the number in field `key`, as an Int no less than `min`. The check
/// runs before the cast (obs::json_integer): converting an out-of-range
/// double is undefined, and a fractional one would silently truncate.
template <typename Int>
Int require_int(double v, const std::string& key, Int min) {
  const std::optional<Int> i = obs::json_integer<Int>(v);
  if (!i || *i < min) {
    std::ostringstream msg;
    msg << "'" << key << "' must be an integer in [" << min << ", "
        << std::numeric_limits<Int>::max() << "] (got " << v << ")";
    throw std::runtime_error(msg.str());
  }
  return *i;
}

/// Decodes and checks a manifest document. Each number is checked against
/// the domain the engine would otherwise reject later, mid-sweep.
Manifest decode_manifest(const std::string& text) {
  const obs::JsonValue doc = obs::parse_json(text);
  if (!doc.is_object()) throw std::runtime_error("not an object");
  Manifest m;
  if (const auto* v = doc.find("model")) m.model = v->as_string();
  if (const auto* v = doc.find("trace")) m.trace = v->as_string();
  if (doc.find("users"))
    m.users = require_int(require_number(doc, "users"), "users", 0);
  if (doc.find("minutes")) {
    m.minutes = require_number(doc, "minutes");
    try {  // the generators' points-per-trajectory bound
      trace_points(m.minutes * 60.0, kSampleIntervalS);
    } catch (const TraceConfigError& e) {
      throw std::runtime_error(std::string("'minutes': ") + e.what());
    }
  }
  if (doc.find("checkpoint_every"))
    m.checkpoint_every = require_int(require_number(doc, "checkpoint_every"),
                                     "checkpoint_every", 0);
  if (doc.find("downtime"))
    m.downtime = require_int(require_number(doc, "downtime"), "downtime", 1);
  if (doc.find("cache_budget_bytes"))
    m.cache_budget_bytes =
        require_int(require_number(doc, "cache_budget_bytes"),
                    "cache_budget_bytes", 0LL);
  if (const auto* v = doc.find("journal")) m.journal = v->as_bool();

  const obs::JsonValue* policies = doc.find("policies");
  if (policies == nullptr || !policies->is_array() || policies->items().empty())
    throw std::runtime_error("'policies' must be a non-empty array");
  for (const auto& p : policies->items()) {
    policy_by_name(p.as_string());  // validate early
    m.policies.push_back(p.as_string());
  }
  const obs::JsonValue* seeds = doc.find("seeds");
  if (seeds == nullptr || !seeds->is_array() || seeds->items().empty())
    throw std::runtime_error("'seeds' must be a non-empty array");
  for (const auto& s : seeds->items())
    m.seeds.push_back(
        require_int(s.as_number(), "seeds", std::numeric_limits<int>::min()));
  if (const obs::JsonValue* fi = doc.find("fault_intensities")) {
    if (!fi->is_array())
      throw std::runtime_error("'fault_intensities' must be an array");
    for (const auto& f : fi->items()) {
      const double intensity = f.as_number();
      if (!(intensity >= 0.0 && intensity <= 1.0))
        throw std::runtime_error("'fault_intensities' entries must be in "
                                 "[0, 1]");
      m.fault_intensities.push_back(intensity);
    }
  }
  if (m.fault_intensities.empty()) m.fault_intensities.push_back(0.0);
  model_by_name(m.model);  // validate early
  return m;
}

Manifest parse_manifest(const std::string& path) {
  const std::string text = read_file(path);
  try {
    return decode_manifest(text);
  } catch (const std::exception& e) {
    // Broken JSON, a field of the wrong JSON type or a failed check.
    throw ManifestError("bad manifest " + path + ": " + e.what());
  }
}

std::vector<Shard> expand_shards(const Manifest& m) {
  std::vector<Shard> shards;
  for (const std::string& policy : m.policies)
    for (int seed : m.seeds)
      for (double intensity : m.fault_intensities) {
        Shard s;
        s.index = static_cast<int>(shards.size());
        s.policy = policy;
        s.seed = seed;
        s.fault_intensity = intensity;
        shards.push_back(std::move(s));
      }
  return shards;
}

std::string ckpt_path(const std::string& out_dir, const Shard& s) {
  return out_dir + "/" + s.name() + ".ckpt";
}
std::string metrics_path(const std::string& out_dir, const Shard& s) {
  return out_dir + "/" + s.name() + ".metrics.json";
}
std::string timeseries_path(const std::string& out_dir, const Shard& s) {
  return out_dir + "/" + s.name() + ".timeseries.csv";
}
std::string journal_path(const std::string& out_dir, const Shard& s) {
  return out_dir + "/" + s.name() + ".journal.jsonl";
}
std::string stats_path(const std::string& out_dir, const Shard& s) {
  return out_dir + "/" + s.name() + ".stats.json";
}

std::optional<long long> file_size(const std::string& path) {
  struct ::stat st{};
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  return static_cast<long long>(st.st_size);
}

// ---------------------------------------------------------------------------
// Shard execution

/// Parses a file-backed trace once, before any fork: a malformed file exits
/// 2 before any shard starts, and every worker reuses the parsed copy.
void load_trace_file(Manifest& m) {
  if (m.trace != "campus" && m.trace != "urban")
    m.trace_file = load_traces_file(m.trace);
}

std::vector<Trajectory> make_traces(const Manifest& m, std::uint64_t seed) {
  if (m.trace == "campus") {
    CampusTraceConfig config;
    if (m.users > 0) config.num_users = m.users;
    config.duration = m.minutes * 60.0;
    config.sample_interval = kSampleIntervalS;
    config.seed = seed;
    return generate_campus_traces(config);
  }
  if (m.trace == "urban") {
    UrbanTraceConfig config;
    if (m.users > 0) config.num_users = m.users;
    config.duration = m.minutes * 60.0;
    config.sample_interval = kSampleIntervalS;
    config.seed = seed;
    return generate_urban_traces(config);
  }
  return m.trace_file;  // parsed by load_trace_file
}

void run_shard(const Manifest& m, const Shard& shard,
               const std::string& out_dir) {
  const std::string ckpt = ckpt_path(out_dir, shard);

  SimulationConfig config;
  config.model = model_by_name(m.model);
  config.policy = policy_by_name(shard.policy);
  config.migration_radius_m = 100.0;
  config.seed = static_cast<std::uint64_t>(shard.seed);
  config.server_failure_rate = shard.fault_intensity;
  config.server_downtime_intervals = m.downtime;
  config.cache_budget_bytes = m.cache_budget_bytes;

  // A stale or corrupt checkpoint (scenario changed under it, torn file
  // copied in from elsewhere) is discarded with a warning: the shard is
  // always recomputable from the manifest alone.
  snapshot::SimSnapshot resume;
  bool resuming = false;
  if (file_exists(ckpt)) {
    try {
      resume = snapshot::load(ckpt);
      resuming = true;
    } catch (const snapshot::SnapshotError& e) {
      std::fprintf(stderr, "[%s] discarding unusable checkpoint: %s\n",
                   shard.name().c_str(), e.what());
      std::remove(ckpt.c_str());
    }
  }

  const auto test = make_traces(m, 22);
  const auto train = make_traces(m, 11);
  const SimulationWorld world = build_world(config, train, test);

  obs::SimTimeseries timeseries;
  timeseries.set_model(m.model);
  SimulationRunOptions options;
  if (resuming) options.resume_from = &resume;
  options.checkpoint_every = m.checkpoint_every;
  options.checkpoint_path = ckpt;
  if (m.journal) options.journal_path = journal_path(out_dir, shard);

  SimulationMetrics metrics;
  try {
    metrics = run_simulation(config, world, &timeseries, options);
  } catch (const snapshot::SnapshotError& e) {
    // The checkpoint cannot resume: it belongs to a different scenario
    // (manifest edited between runs), or its journal file is gone or short.
    // Recompute from scratch; the fresh run restarts the recorder and
    // truncates the journal.
    std::fprintf(stderr, "[%s] checkpoint rejected (%s); restarting shard\n",
                 shard.name().c_str(), e.what());
    std::remove(ckpt.c_str());
    resuming = false;  // the stats sidecar reports what actually happened
    SimulationRunOptions fresh = options;
    fresh.resume_from = nullptr;
    metrics = run_simulation(config, world, &timeseries, fresh);
  }

  std::string csv;
  {
    std::ostringstream out;
    timeseries.write_csv(out);
    csv = out.str();
  }
  write_file_atomic(timeseries_path(out_dir, shard), csv);
  // Resource sidecar for `status`: what this shard cost and recorded. The
  // RSS is the worker process's peak — an upper bound when one worker runs
  // several shards, but exact for the usual one-big-shard-per-worker case.
  // `status` prints the journal file's size itself.
  std::string stats = "{\"peak_rss_bytes\":" +
                      std::to_string(obs::peak_rss_bytes()) +
                      ",\"timeseries_rows\":" +
                      std::to_string(timeseries.rows().size()) +
                      ",\"resumed\":" + (resuming ? "true" : "false") + "}\n";
  write_file_atomic(stats_path(out_dir, shard), stats);
  // The metrics file is the done-marker, so it lands last.
  write_file_atomic(metrics_path(out_dir, shard),
                    snapshot::metrics_to_json(metrics));
  std::remove(ckpt.c_str());
}

int worker_main(const Manifest& m, const std::string& out_dir, int index,
                int count) {
  ensure_dir(out_dir);
  const std::vector<Shard> shards = expand_shards(m);
  int ran = 0, skipped = 0;
  for (const Shard& shard : shards) {
    if (shard.index % count != index) continue;
    if (file_exists(metrics_path(out_dir, shard))) {
      ++skipped;
      continue;
    }
    const bool resumed = file_exists(ckpt_path(out_dir, shard));
    run_shard(m, shard, out_dir);
    std::printf("[worker %d] %s done (policy=%s seed=%d fault=%s%s)\n", index,
                shard.name().c_str(), shard.policy.c_str(), shard.seed,
                obs::json_number(shard.fault_intensity).c_str(),
                resumed ? ", resumed" : "");
    std::fflush(stdout);
    ++ran;
  }
  std::printf("[worker %d] finished: %d shard(s) run, %d already done\n",
              index, ran, skipped);
  return 0;
}

// ---------------------------------------------------------------------------
// Merge

int cmd_merge(const Manifest& m, const std::string& out_dir) {
  const std::vector<Shard> shards = expand_shards(m);
  std::string metrics_json = "{\"shards\":[";
  // Budgeted sweeps record the schema-3 cache columns in every shard CSV,
  // so the merged preamble has to announce the same layout.
  const bool cache_cols = m.cache_budget_bytes > 0;
  std::string csv = "# schema=";
  csv += std::to_string(cache_cols ? obs::SimTimeseries::kCsvCacheSchemaVersion
                                   : obs::SimTimeseries::kCsvSchemaVersion);
  csv += "\n# model=";
  csv += obs::SimTimeseries::csv_quote(m.model);
  csv += "\nshard,policy,seed,fault_intensity,";
  csv += obs::SimTimeseries::csv_header(cache_cols);
  csv += "\n";
  std::string merged_journal;  // shard order == canonical grid order
  bool first = true;
  for (const Shard& shard : shards) {
    const std::string mpath = metrics_path(out_dir, shard);
    if (!file_exists(mpath)) {
      std::fprintf(stderr, "merge: %s incomplete (no %s)\n",
                   shard.name().c_str(), mpath.c_str());
      return 1;
    }
    // Embed the shard's metrics document verbatim: it is already canonical
    // JSON, so the merged file is byte-stable across reruns.
    std::string metrics = read_file(mpath);
    while (!metrics.empty() &&
           (metrics.back() == '\n' || metrics.back() == ' '))
      metrics.pop_back();
    if (!first) metrics_json += ",";
    first = false;
    metrics_json += "{\"shard\":\"" + shard.name() + "\",\"policy\":\"" +
                    shard.policy +
                    "\",\"seed\":" + std::to_string(shard.seed) +
                    ",\"fault_intensity\":" +
                    obs::json_number(shard.fault_intensity) +
                    ",\"metrics\":" + metrics + "}";

    const std::string prefix = shard.name() + "," + shard.policy + "," +
                               std::to_string(shard.seed) + "," +
                               obs::json_number(shard.fault_intensity) + ",";
    const std::string shard_csv = read_file(timeseries_path(out_dir, shard));
    // Skip `# ...` schema/metadata comment lines and the one header line;
    // everything after is data rows.
    bool header_skipped = false;
    size_t pos = 0;
    while (pos < shard_csv.size()) {
      size_t end = shard_csv.find('\n', pos);
      if (end == std::string::npos) end = shard_csv.size();
      if (end > pos) {
        if (shard_csv[pos] == '#') {
          // metadata comment: per-shard only
        } else if (!header_skipped) {
          header_skipped = true;
        } else {
          csv += prefix;
          csv.append(shard_csv, pos, end - pos);
          csv += "\n";
        }
      }
      pos = end + 1;
    }
    if (!header_skipped)
      throw std::runtime_error("malformed timeseries for " + shard.name());

    if (m.journal)
      merged_journal += read_file(journal_path(out_dir, shard));
  }
  metrics_json += "]}\n";
  write_file_atomic(out_dir + "/merged_metrics.json", metrics_json);
  write_file_atomic(out_dir + "/merged_timeseries.csv", csv);
  if (m.journal)
    write_file_atomic(out_dir + "/merged_journal.jsonl", merged_journal);
  std::printf("merged %zu shard(s) -> %s/merged_metrics.json, "
              "%s/merged_timeseries.csv%s\n",
              shards.size(), out_dir.c_str(), out_dir.c_str(),
              m.journal ? ", merged_journal.jsonl" : "");
  return 0;
}

// ---------------------------------------------------------------------------
// Subcommands

int cmd_run(const Manifest& m, const std::string& out_dir, int workers) {
  ensure_dir(out_dir);
  const std::vector<Shard> shards = expand_shards(m);
  const int count =
      std::max(1, std::min(workers, static_cast<int>(shards.size())));
  std::printf("sweep: %zu shard(s) (%zu policies x %zu seeds x %zu fault "
              "intensities), %d worker process(es)\n",
              shards.size(), m.policies.size(), m.seeds.size(),
              m.fault_intensities.size(), count);

  // Fork before any simulation work so no worker inherits a thread pool.
  std::vector<pid_t> pids;
  for (int i = 0; i < count; ++i) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::fprintf(stderr, "fork failed: %s\n", std::strerror(errno));
      return 1;
    }
    if (pid == 0) {
      int status = 1;
      try {
        status = worker_main(m, out_dir, i, count);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[worker %d] error: %s\n", i, e.what());
      }
      std::fflush(nullptr);
      _exit(status);
    }
    pids.push_back(pid);
  }

  bool ok = true;
  for (const pid_t pid : pids) {
    int status = 0;
    if (waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "worker pid %d failed (status %d)\n",
                   static_cast<int>(pid), status);
      ok = false;
    }
  }
  if (!ok) {
    std::fprintf(stderr,
                 "sweep incomplete; re-run the same command to resume\n");
    return 1;
  }
  return cmd_merge(m, out_dir);
}

int cmd_status(const Manifest& m, const std::string& out_dir) {
  const std::vector<Shard> shards = expand_shards(m);
  int done = 0, checkpointed = 0, pending = 0;
  for (const Shard& shard : shards) {
    std::string state = "pending";
    std::string resources;
    if (file_exists(metrics_path(out_dir, shard))) {
      state = "done";
      ++done;
      // Resource sidecar written by run_shard: peak RSS and recorded rows.
      // Older output directories predate it, so its absence is not an error,
      // and a field that is not a whole long long counts as absent: casting
      // such a double would be undefined.
      try {
        const obs::JsonValue stats =
            obs::parse_json(read_file(stats_path(out_dir, shard)));
        const auto field = [&](const char* key) -> long long {
          const obs::JsonValue* v = stats.find(key);
          if (v == nullptr || v->kind() != obs::JsonValue::Kind::kNumber)
            return -1;
          return obs::json_integer<long long>(v->as_number()).value_or(-1);
        };
        const long long rss = field("peak_rss_bytes");
        const long long rows = field("timeseries_rows");
        if (rss >= 0)
          resources += "  rss=" + std::to_string(rss / (1024 * 1024)) + "MiB";
        if (rows >= 0) resources += "  rows=" + std::to_string(rows);
      } catch (const std::exception&) {
        // no/unreadable sidecar: just omit the resource columns
      }
    } else if (file_exists(ckpt_path(out_dir, shard))) {
      try {
        const snapshot::SimSnapshot snap =
            snapshot::load(ckpt_path(out_dir, shard));
        state = "checkpointed @ interval " +
                std::to_string(snap.next_interval) + "/" +
                std::to_string(snap.num_intervals);
        // Rows the run had streamed/recorded up to the checkpoint.
        if (snap.has_timeseries)
          resources += "  rows=" + std::to_string(snap.timeseries_rows.size());
      } catch (const snapshot::SnapshotError&) {
        state = "checkpoint unreadable";
      }
      ++checkpointed;
    } else {
      ++pending;
    }
    std::string journal_note;
    if (m.journal) {
      if (const auto size = file_size(journal_path(out_dir, shard)))
        journal_note = "  journal=" + std::to_string(*size) + "B";
      else
        journal_note = "  journal=-";
    }
    std::printf("%s  policy=%-7s seed=%-3d fault=%-5s  %s%s%s\n",
                shard.name().c_str(), shard.policy.c_str(), shard.seed,
                obs::json_number(shard.fault_intensity).c_str(),
                state.c_str(), resources.c_str(), journal_note.c_str());
  }
  std::printf("%d done, %d checkpointed, %d pending of %zu\n", done,
              checkpointed, pending, shards.size());
  return 0;
}

int cmd_inspect(const std::string& path) {
  try {
    const snapshot::SimSnapshot snap = snapshot::load(path);
    std::printf("%s: valid snapshot (version %u)\n", path.c_str(),
                snap.version);
    std::printf("  interval:        %d / %d\n", snap.next_interval,
                snap.num_intervals);
    std::printf("  fingerprint:     %016llx\n",
                static_cast<unsigned long long>(snap.config_fingerprint));
    if (snap.has_shard) {
      const snapshot::ShardSimState& s = snap.shard;
      std::printf("  engine:          sharded\n");
      std::printf("  clients:         %zu\n", s.x.size());
      std::printf("  cache entries:   %zu\n", s.entry_server.size());
      std::printf("  retry queue:     %zu order(s)\n", s.retry_client.size());
      std::printf("  timeseries rows: %llu%s\n",
                  static_cast<unsigned long long>(s.timeseries_rows),
                  snap.has_timeseries ? "" : " (not recorded)");
    } else {
      std::int64_t cached_entries = 0;
      for (const auto& server : snap.caches)
        cached_entries += static_cast<std::int64_t>(server.size());
      std::printf("  servers:         %zu (%lld cache entries)\n",
                  snap.caches.size(), static_cast<long long>(cached_entries));
      std::printf("  clients:         %zu\n", snap.clients.size());
      std::printf("  load levels:     %zu base, %zu degraded\n",
                  snap.levels.size(), snap.degraded_levels.size());
      // Summed in double: a crafted file's byte counts could overflow an
      // integer sum, and a genuine backlog stays far below 2^53.
      double backlog = 0.0;
      for (const LayerRetryOrder& order : snap.retry_orders)
        backlog += static_cast<double>(order.bytes);
      std::printf("  deferred queue:  %zu order(s), %.0f bytes backlog\n",
                  snap.retry_orders.size(), backlog);
      std::printf("  timeseries rows: %zu%s\n", snap.timeseries_rows.size(),
                  snap.has_timeseries ? "" : " (not recorded)");
    }
    // A version 2-7 classic file counts the events it kept inline.
    std::printf("  journal events:  %llu%s\n",
                static_cast<unsigned long long>(snap.journal.events),
                snap.has_journal           ? ""
                : snap.journal.events > 0 ? " (inline; resume without a journal)"
                                          : " (not recorded)");
    return 0;
  } catch (const snapshot::SnapshotError& e) {
    std::fprintf(stderr, "%s: rejected: %s\n", path.c_str(), e.what());
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    if (command == "inspect") {
      if (argc != 3) return usage();
      return cmd_inspect(argv[2]);
    }
    if (command == "run") {
      if (argc < 4) return usage();
      int workers = 2;
      for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--workers" && i + 1 < argc) {
          value = argv[++i];
        } else if (arg.rfind("--workers=", 0) == 0) {
          value = arg.substr(10);
        } else {
          std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
          return 2;
        }
        if (!parse_int(value, &workers) || workers < 1) {
          std::fprintf(stderr, "--workers must be an integer >= 1, got '%s'\n",
                       value.c_str());
          return 2;
        }
      }
      Manifest m = parse_manifest(argv[2]);
      load_trace_file(m);
      return cmd_run(m, argv[3], workers);
    }
    if (command == "worker") {
      if (argc != 6) return usage();
      int index = 0;
      int count = 0;
      if (!parse_int(argv[4], &index) ||
          !parse_int(argv[5], &count) || count < 1 || index < 0 ||
          index >= count) {
        std::fprintf(stderr, "worker index out of range\n");
        return 2;
      }
      Manifest m = parse_manifest(argv[2]);
      load_trace_file(m);
      return worker_main(m, argv[3], index, count);
    }
    if (command == "status") {
      if (argc != 4) return usage();
      return cmd_status(parse_manifest(argv[2]), argv[3]);
    }
    if (command == "merge") {
      if (argc != 4) return usage();
      return cmd_merge(parse_manifest(argv[2]), argv[3]);
    }
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return usage();
  } catch (const ManifestError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const TraceFormatError& e) {
    std::fprintf(stderr, "error: bad trace file: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
