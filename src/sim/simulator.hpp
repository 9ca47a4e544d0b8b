// Large-scale smart-city simulation (Section 4.B).
//
// Mobile users replay their trajectories over a hexagonal grid of edge
// servers (one per visited cell). Every time interval:
//
//   1. clients move; a client whose cell's server changed re-attaches and
//      suffers a *cold start*: the master derives a fresh partitioning plan
//      from the new server's GPU statistics, and the client offloads
//      whatever cached layers exist, uploading the rest incrementally —
//      queries completed during this first interval are the Fig 9 metric;
//   2. the master predicts every client's next location (linear SVR over the
//      n most recent points) and proactively migrates the server-side layers
//      of speculative plans to all servers within radius r of the predicted
//      location, de-duplicated and TTL-refreshed at the receivers, with
//      backhaul traffic accounted per server per interval;
//   3. caches expire (TTL intervals), attached clients keep theirs alive.
//
// Time inside a cold-start window advances continuously (query latency +
// 0.5 s gap, upload progressing at the wireless uplink rate), matching the
// paper's workload. The interval is one serial pass: each re-attaching
// client replays its window at its attach, so the journal's cold_serve
// record directly follows the client's plan (or degraded_plan) record.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "device/gpu_model.hpp"
#include "device/profiler.hpp"
#include "edge/layer_cache.hpp"
#include "edge/retry_queue.hpp"
#include "estimation/estimator.hpp"
#include "faults/fault_plan.hpp"
#include "geo/server_map.hpp"
#include "mobility/predictor.hpp"
#include "net/network.hpp"
#include "nn/model_zoo.hpp"
#include "partition/upload_order.hpp"

namespace perdnn {

namespace obs {
class SimTimeseries;
struct TimeseriesRow;
}  // namespace obs

namespace snapshot {
struct SimSnapshot;
}  // namespace snapshot

enum class MigrationPolicy {
  kNone,       ///< IONN baseline: never migrate; every re-attach is a miss
  kProactive,  ///< PerDNN: predict + migrate within radius r
  kOptimal,    ///< oracle: every layer available everywhere (hit ratio 100%)
};

/// How a client picks its offloading server when it moves (Section 3.C.2:
/// "applying the algorithm to all edge servers visible to the client, the
/// master server can find the best edge server").
enum class ServerSelection {
  /// Attach to the current cell's server (one AP in range).
  kCurrentCell,
  /// Evaluate every server within Wi-Fi range and pick the one whose
  /// GPU-aware plan promises the lowest latency — crowded servers quote
  /// longer times, so load balances automatically.
  kBestVisible,
};

/// Which mobility predictor drives proactive migration.
enum class PredictorKind {
  kSvr,         ///< the paper's deployed predictor
  kMarkov,      ///< prediction-suffix-tree baseline
  kRnn,         ///< LSTM baseline
  kStationary,  ///< predicts "stays where it is" (lower bound)
  kOracle,      ///< reads the trace one step ahead (upper bound)
};

struct SimulationConfig {
  ModelName model = ModelName::kInception;
  MigrationPolicy policy = MigrationPolicy::kProactive;
  double migration_radius_m = 50.0;  ///< the paper's r
  int ttl_intervals = 5;
  int trajectory_length = 5;  ///< n recent locations for prediction
  Seconds query_gap = 0.5;
  double cell_radius_m = 50.0;
  NetworkCondition wireless{};  // defaults to lab Wi-Fi values

  /// Wireless variability: each client's access link is scaled by a
  /// lognormal factor exp(sigma * N(0,1)) drawn at every re-attachment
  /// (clamped to [0.3, 2.0]). The master still *plans* with the nominal
  /// rates — the realistic mismatch between assumed and actual bandwidth —
  /// while execution and uploads run at the drawn rate. 0 disables.
  double bandwidth_jitter_sigma = 0.0;

  ServerSelection selection = ServerSelection::kCurrentCell;
  /// Wi-Fi visibility range for kBestVisible (servers whose cell centre is
  /// within this distance are candidates).
  double visibility_radius_m = 100.0;

  PredictorKind predictor = PredictorKind::kSvr;

  /// Legacy failure injection: per-interval probability that any given edge
  /// server crashes (loses its layer cache and drops its clients) and the
  /// number of intervals it stays down. 0 disables failures. Internally
  /// mapped onto FaultPlan::legacy_crashes(); mutually exclusive with a
  /// non-empty `fault_plan` (validate() rejects the combination).
  double server_failure_rate = 0.0;
  int server_downtime_intervals = 3;

  /// Scripted fault schedule (crashes, backhaul degradation, telemetry
  /// dropouts, client churn); see src/faults/fault_plan.hpp. Empty = no
  /// faults (unless the legacy knobs above are set).
  FaultPlan fault_plan;

  /// Retry-with-backoff policy for migration pushes that could not be
  /// delivered (backhaul outage / capacity exhausted / target down).
  MigrationRetryConfig migration_retry{};

  /// The paper's "alternative (2)", implemented as an option: during a cold
  /// start a client may keep offloading to its *previous* server, with the
  /// query routed through the new AP over the backhaul (extra RTT, capped
  /// bandwidth), while the new server warms up. Each query picks whichever
  /// path is faster at that moment.
  bool routing_fallback = false;
  double backhaul_bytes_per_sec = mbps_to_bytes_per_sec(1000.0);
  Seconds backhaul_rtt = 10e-3;

  /// Fractional migration (Fig 10): servers in `crowded_servers` send and
  /// receive at most `crowded_byte_budget` bytes of any client's model
  /// (highest-efficiency prefix). Empty set disables the mechanism.
  std::vector<ServerId> crowded_servers;
  Bytes crowded_byte_budget = 0;

  /// Per-server layer-cache byte budget. 0 (the default) leaves caches
  /// unbounded and the simulation byte-identical to builds without the
  /// knob. A positive budget makes every server's cache cost-aware: stores
  /// that would exceed it evict the lowest latency-saved-per-byte entries
  /// first, then admit only the highest-efficiency prefix of the incoming
  /// layers that fits (partial residency).
  Bytes cache_budget_bytes = 0;

  std::uint64_t seed = 42;

  /// Structural validation of every knob: rates/probabilities inside their
  /// domains, durations and TTLs positive, retry budgets sane, and the
  /// scripted-plan/legacy-knob exclusivity. Throws std::logic_error naming
  /// the offending field. build_world() and run_simulation() call this up
  /// front so misconfigurations fail loudly instead of skewing results.
  void validate() const;
};

struct SimulationMetrics {
  /// Queries completed inside cold-start windows (the Fig 9 bar height).
  long long cold_window_queries = 0;
  int server_changes = 0;
  int hits = 0;     ///< all server-side layers were already cached
  int partials = 0; ///< some but not all
  int misses = 0;   ///< nothing cached
  int server_failures = 0;    ///< injected crash events
  int failure_evictions = 0;  ///< clients dropped by a crashing server
  /// Cold-window queries served through the routed-to-previous-server path
  /// (only with routing_fallback).
  long long routed_queries = 0;

  // Fault model / graceful degradation (all zero on fault-free runs).
  int client_disconnect_events = 0;  ///< scripted disconnect windows opened
  /// Queries executed fully on the client because no live server was
  /// reachable, and their summed latency (the local-fallback path).
  long long local_fallback_queries = 0;
  double local_latency_sum_s = 0.0;
  /// Client-interval occupancy: intervals spent attached to a live server /
  /// active but with no reachable server (local fallback) / scripted
  /// offline. attached + unreachable + offline == active client-intervals.
  long long attached_client_intervals = 0;
  long long unreachable_client_intervals = 0;
  long long offline_client_intervals = 0;
  /// Re-attachments whose partitioning plan was built in degraded mode
  /// (stale GPU telemetry at the chosen server).
  int degraded_attaches = 0;
  /// Attach attempts refused by per-server admission control (sharded
  /// engine's overload shedding); the client spent the interval on the
  /// local fallback instead.
  int attaches_shed = 0;
  // Migration retry/backoff accounting. Both engines count by one rule
  // (sim/retry_rule.hpp, DESIGN.md §14): every failed first delivery is
  // deferred, so abandoned orders are a subset of deferred ones.
  int migrations_deferred = 0;   ///< failed first deliveries
  int migration_retries = 0;     ///< delivery re-attempts popped from the queue
  /// Deferred orders dropped: attempt budget spent or source queue full.
  int migrations_abandoned = 0;
  /// Fractional-cap truncations to nothing: a crowded endpoint's byte budget
  /// was smaller than every candidate layer, so an otherwise-sendable order
  /// shipped zero layers and was dropped instead of silently issued.
  int migrations_truncated = 0;
  Bytes deferred_migration_bytes = 0;   ///< bytes of failed first deliveries
  Bytes abandoned_migration_bytes = 0;  ///< bytes of abandoned orders
  Bytes peak_deferred_backlog_bytes = 0;  ///< max parked bytes at interval end

  // Budgeted layer caches (all zero when cache_budget_bytes is unset).
  long long cache_evictions = 0;       ///< entries displaced by the budget
  long long cache_partial_stores = 0;  ///< stores trimmed to a prefix
  /// Max over intervals of the cache bytes resident across all servers.
  Bytes peak_cache_bytes = 0;

  /// Share of active, online client-intervals spent attached to a live
  /// server: attached / (attached + unreachable). Scripted client
  /// disconnects are the client's own outage, so they do not count against
  /// the system. 1.0 when no client was ever active.
  double availability() const;
  /// Share of simulated queries that ran offloaded rather than through the
  /// local fallback: cold_window / (cold_window + local_fallback). 1.0 when
  /// no query was simulated.
  double offload_ratio() const;
  /// hit / (hit + miss), the paper's hit-ratio definition. When no cold
  /// start was ever classified (hits + misses == 0 — e.g. a run with no
  /// server changes, or a pure-partial run), the ratio is defined as 0.0
  /// rather than 0/0.
  double hit_ratio() const;

  // Backhaul traffic (proactive policies only).
  double peak_uplink_mbps = 0.0;
  double peak_downlink_mbps = 0.0;
  /// Share of servers whose all-time peaks stay under 100 Mbps.
  double fraction_servers_within_100mbps = 0.0;
  /// Share of servers under 100 Mbps during the single busiest interval.
  double fraction_servers_within_100mbps_at_peak = 0.0;
  Bytes total_migrated_bytes = 0;
  /// Per-server peak uplink Mbps, for picking crowded servers.
  std::vector<double> server_peak_uplink_mbps;
  /// Fills the backhaul fields above, except total_migrated_bytes, from the
  /// run's accountant.
  void set_backhaul(const TrafficAccountant& traffic);
  /// The one interval fold of both engines: copies each server's bytes
  /// from `traffic` into its row, adds every counter that has an integer
  /// column as that column's sum (nothing else adds to them), raises both
  /// peaks, checks each row against a positive `budget_bytes`, mirrors the
  /// non-zero sums into the obs registry and ends the traffic interval.
  void close_interval(std::vector<obs::TimeseriesRow>& rows,
                      TrafficAccountant& traffic, Bytes backlog_bytes,
                      Bytes budget_bytes);

  int num_servers = 0;
  int num_clients = 0;
  int num_intervals = 0;
};

/// Shared, expensive-to-build inputs reused across policy runs so that the
/// IONN / PerDNN / Optimal bars of one figure see identical worlds.
struct SimulationWorld {
  DnnModel model;
  DnnProfile client_profile;
  std::shared_ptr<GpuContentionModel> gpu;
  std::shared_ptr<RandomForestEstimator> estimator;
  /// Load-free baseline estimator (LL) used when a server's GPU telemetry is
  /// stale or missing: the load-aware forest would otherwise be fed a GPU
  /// state that no longer exists. Trained on the same profiling sweep.
  std::shared_ptr<NeurosurgeonEstimator> fallback_estimator;
  ServerMap servers;
  std::vector<Trajectory> test_traces;
  /// Trained predictor for the kind the world was built with (null for the
  /// model-free kStationary/kOracle kinds). run_simulation may switch to
  /// kStationary/kOracle freely, but a model-based kind must match the one
  /// the world was built for.
  PredictorKind predictor_kind = PredictorKind::kSvr;
  std::shared_ptr<MobilityPredictor> predictor;
  /// Canonical efficiency order for the full model (uncontended plan); the
  /// simulator uses it for upload sequencing and fractional cuts.
  UploadSchedule canonical_schedule;
  Seconds interval = 20.0;
};

/// Builds a world: trains the estimator on a profiling sweep, trains the SVR
/// predictor on `train_traces`, allocates servers for cells visited by
/// `test_traces`.
SimulationWorld build_world(const SimulationConfig& config,
                            const std::vector<Trajectory>& train_traces,
                            const std::vector<Trajectory>& test_traces);

/// Checkpoint/resume controls for run_simulation. Snapshots are captured at
/// interval boundaries (after interval k fully finishes, before k+1 starts)
/// and a resumed run is byte-identical — metrics, timeseries, traffic — to
/// the uninterrupted one, at any thread count.
struct SimulationRunOptions {
  /// Resume from this snapshot instead of interval 0. The snapshot's config
  /// fingerprint must match (config, world); snapshot::SnapshotError
  /// otherwise. When resuming with a timeseries recorder, the recorder is
  /// re-primed from the snapshot's rows so exports cover the whole run.
  const snapshot::SimSnapshot* resume_from = nullptr;
  /// Capture a checkpoint whenever (interval_index + 1) is a positive
  /// multiple of this, except after the last interval, which leaves nothing
  /// to resume (snapshot::checkpoint_due). 0 disables periodic checkpoints.
  int checkpoint_every = 0;
  /// Stop after completing this interval index (capturing a checkpoint),
  /// returning the partial metrics accumulated so far. -1 runs to the end.
  int stop_after_interval = -1;
  /// Where periodic / stop checkpoints are save()d (atomic tmp + rename).
  /// Empty disables file output — captures still go to capture_out.
  std::string checkpoint_path;
  /// In-memory destination for the most recent capture (tests, embedding).
  snapshot::SimSnapshot* capture_out = nullptr;
  /// Streamed event-journal JSONL destination (obs/journal.hpp); empty
  /// disables journaling, and the run is byte-identical either way. Every
  /// event is recorded on the serial interval pass, so the file is
  /// byte-identical across thread counts. A resumed run that journals
  /// truncates this file back to the checkpoint's offset and appends, so it
  /// needs a checkpoint that streamed its journal to this same file
  /// (snapshot::check_journal_resume).
  std::string journal_path;
};

/// Runs one policy over a prebuilt world. A non-null `timeseries` records
/// per-interval, per-server rows (cold-start classifications, cold-window
/// query counts and latencies, backhaul bytes, migration orders, predictor
/// error meters), the data behind the Fig 9/10 curves; the simulation itself
/// is identical either way. `options` adds checkpoint/resume and the
/// journal.
SimulationMetrics run_simulation(const SimulationConfig& config,
                                 const SimulationWorld& world,
                                 obs::SimTimeseries* timeseries = nullptr,
                                 const SimulationRunOptions& options = {});

}  // namespace perdnn
