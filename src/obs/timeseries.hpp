// Per-interval, per-server simulation timeseries (the data behind the
// paper's Fig 9 / Fig 10 / Table II readings, before it is collapsed into
// the flat SimulationMetrics aggregate).
//
// The engine builds each interval's rows itself, one per server, and hands
// them over with append_interval() when the interval closes; after the run,
// rows() holds exactly num_intervals * num_servers rows (including all-zero
// rows, so consumers can reshape into a dense [interval][server] matrix),
// and the exports reconcile with SimulationMetrics:
//
//   sum(hits/partials/misses)        == metrics.hits/partials/misses
//   sum(cold_window_queries)         == metrics.cold_window_queries
//   sum(uplink_bytes)                == metrics.total_migrated_bytes
//   sum(uplink_bytes)                == sum(downlink_bytes)
//
// These hold by construction: both engines close each interval through
// SimulationMetrics::close_interval, which adds every counter that has an
// integer column as that column's sum and nowhere else. The exception is
// the local-fallback pair (local_queries, local_latency_sum_s): the metrics
// keep a running total in client order, and the classic engine fills the
// rows' local columns only while it records.
//
// Export formats:
//   CSV  — `# schema=N` (and `# model=...` when set) comment lines, one
//          header line, one line per (interval, server), rows ordered by
//          interval then server (deterministic across runs). String
//          metadata (model/server names) is RFC-4180-quoted so names with
//          commas or quotes cannot misalign downstream column parsers.
//   JSON — {"schema","model","interval_length_s","num_servers",
//          "num_intervals","rows":[...]} with the same ordering.
//
// Thread-safe: every member takes an internal mutex, so exports may be read
// while another thread appends.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace perdnn::obs {

struct TimeseriesRow {
  int interval = 0;
  int server = 0;
  /// Clients attached to this server at the end of the interval.
  int attached = 0;
  // Cold-start classifications of re-attachments to this server during the
  // interval (hit: all plan layers cached; partial: some; miss: none).
  int hits = 0;
  int partials = 0;
  int misses = 0;
  /// Queries completed inside cold-start windows opened at this server.
  long long cold_window_queries = 0;
  /// Summed end-to-end latency of those queries (seconds).
  double cold_latency_sum_s = 0.0;
  /// Backhaul bytes sent from / received by this server (proactive
  /// migration), copied from the engine's TrafficAccountant.
  std::int64_t uplink_bytes = 0;
  std::int64_t downlink_bytes = 0;
  /// Migration orders issued with this server as the source (including
  /// orders fully deduplicated at the receiver, which move no bytes).
  int migration_orders = 0;
  /// Mobility-predictor error meters, attributed to the predicted client's
  /// current server: |predicted - actual next position| in metres.
  int predictor_samples = 0;
  double predictor_error_sum_m = 0.0;
  /// Fault-model columns (all zero for fault-free runs). Local-execution
  /// fallback queries are attributed to the nearest (unreachable) server so
  /// the rows still reconcile with SimulationMetrics.
  long long local_queries = 0;
  double local_latency_sum_s = 0.0;
  /// Migration bytes parked in the retry queue this interval (source side).
  std::int64_t deferred_bytes = 0;
  /// Attaches planned in degraded mode (stale GPU telemetry at this server).
  int degraded = 0;
  /// Budgeted-cache columns (schema 3; exported only when the run enforces
  /// a cache byte budget, so unbudgeted runs keep the schema-2 layout).
  /// Resident cache bytes at the end of the interval, plus budget evictions
  /// and budget-trimmed (partial-residency) stores during it.
  std::int64_t cache_bytes = 0;
  int cache_evictions = 0;
  int cache_partial_stores = 0;
};

/// Appends the CSV preamble to `out`: the `# schema=N` line, a quoted
/// `# model=...` line unless `model` is empty, and the header line, each
/// ending in a newline. With append_timeseries_row_csv, the one formatter
/// behind SimTimeseries::write_csv and the streaming timeseries writer.
/// `with_cache_columns` selects the schema-3 layout.
void append_timeseries_csv_preamble(std::string& out, const std::string& model,
                                    bool with_cache_columns = false);

/// Appends the CSV encoding of one row (no trailing newline) to `out`,
/// column order exactly as SimTimeseries::csv_header(). The single formatter
/// behind SimTimeseries::write_csv and the streaming timeseries writer, so
/// buffered and streamed exports are byte-identical by construction.
/// `with_cache_columns` appends the three schema-3 budgeted-cache columns.
/// A NaN or infinite double throws like json_number, leaving `out` as it was.
void append_timeseries_row_csv(std::string& out, const TimeseriesRow& row,
                               bool with_cache_columns = false);

class SimTimeseries {
 public:
  /// Bumped whenever the CSV column set or header layout changes, and
  /// announced by the `# schema=N` comment line so downstream parsers can
  /// refuse rather than silently misalign columns.
  static constexpr int kCsvSchemaVersion = 2;
  /// Schema announced when the budgeted-cache columns are enabled. Runs
  /// without a cache budget keep emitting schema 2 byte-identically.
  static constexpr int kCsvCacheSchemaVersion = 3;

  /// Must be called before the first interval. Resets prior state.
  /// `num_intervals`, when the caller knows it, is how many intervals the
  /// run will append: their rows are reserved here, so the row store never
  /// grows by copying itself while the run goes on.
  void start(int num_servers, double interval_length_s,
             int num_intervals = 0);

  /// Optional metadata: the DNN model name the run simulated. Survives
  /// start()/restore() so it can be set once before the run; exported as a
  /// quoted `# model=` comment line and a JSON field.
  void set_model(std::string model_name);
  std::string model() const;

  /// Re-primes the recorder from checkpointed rows so a resumed simulation
  /// can append interval `next_interval` as if the run never stopped.
  /// `rows` must hold complete intervals only (size divisible by
  /// num_servers); pass an empty vector when the original run recorded no
  /// timeseries up to the checkpoint. `num_intervals` reserves the rows of
  /// the whole run, as in start().
  void restore(int num_servers, double interval_length_s,
               std::vector<TimeseriesRow> rows, int next_interval,
               int num_intervals = 0);

  /// Appends one finished interval: `rows` holds one row per server, in
  /// server order, all stamped with the interval after the last one
  /// appended (or restored).
  void append_interval(const std::vector<TimeseriesRow>& rows);

  /// Switches exports to the schema-3 layout with the budgeted-cache
  /// columns. Called once by the engine when a cache byte budget is set;
  /// survives restore() so a resumed run keeps its schema. Never called for
  /// unbudgeted runs, whose exports stay byte-identical to schema 2.
  void enable_cache_columns();
  bool cache_columns_enabled() const;
  /// The `# schema=N` value write_csv will announce.
  int csv_schema() const;

  int num_servers() const;
  int num_intervals() const;
  double interval_length_s() const;

  /// All finished rows, ordered by (interval, server); size is always
  /// num_intervals() * num_servers().
  std::vector<TimeseriesRow> rows() const;

  // Whole-run aggregates (for reconciliation checks).
  long long total_hits() const;
  long long total_partials() const;
  long long total_misses() const;
  long long total_cold_window_queries() const;
  std::int64_t total_uplink_bytes() const;
  std::int64_t total_downlink_bytes() const;
  long long total_local_queries() const;
  std::int64_t total_deferred_bytes() const;
  long long total_degraded() const;
  long long total_cache_evictions() const;
  long long total_cache_partial_stores() const;

  /// Column order of write_csv, comma-joined in the header line.
  /// `with_cache_columns` selects the schema-3 layout.
  static const char* csv_header(bool with_cache_columns = false);

  /// RFC-4180 quoting for string fields in CSV output (model and server
  /// names): wraps the value in double quotes and doubles embedded quotes
  /// whenever it contains a comma, quote, newline, '#' or leading/trailing
  /// space — plain identifiers pass through untouched.
  static std::string csv_quote(const std::string& value);

  void write_csv(std::ostream& out) const;
  void write_json(std::ostream& out) const;
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::string model_;  // optional; not reset by start()/restore()
  bool cache_columns_ = false;  // sticky, like model_
  int num_servers_ = 0;
  double interval_length_s_ = 0.0;
  int next_interval_ = 0;
  std::vector<TimeseriesRow> rows_;  // finished, (interval, server) order
};

}  // namespace perdnn::obs
