// Versioned binary checkpoints of the complete large-scale-simulation state.
//
// A SimSnapshot captures everything the simulator needs to continue a run
// from an interval boundary and still produce byte-identical metrics,
// timeseries, and traffic output: the interval index, every salted RNG
// stream (including the Box-Muller spare), per-server LayerCache entries
// and TTLs, the parked retry orders and their backoff deadlines, client
// attachment/upload state, the TrafficAccountant summary (both
// engines write it, in one section), the per-load GPU statistics behind the
// level caches (the only RNG-derived planning state — estimates and plans
// are rebuilt deterministically on resume), the accumulated
// SimulationMetrics, (optionally) the finished SimTimeseries rows, and the
// event-journal stream's offset and chain state (both engines, one section).
//
// Wire format (little-endian, fixed-width):
//
//   magic "PDNNSNP1" (8 bytes)
//   version        u32   (kSnapshotVersion)
//   payload_size   u64
//   payload        payload_size bytes (field layout in snapshot.cpp)
//   checksum       u64   FNV-1a over the payload
//
// Readers validate magic, version, size, and checksum before touching the
// payload, bound every vector length against the remaining bytes, and throw
// SnapshotError on any mismatch — a corrupted or truncated file is rejected,
// never crashed on. save() writes atomically (tmp file + rename) so a kill
// mid-checkpoint leaves the previous checkpoint intact.
//
// A config fingerprint (hash of the SimulationConfig knobs that affect the
// simulation plus the world's shape) is embedded so a snapshot cannot be
// resumed against a different scenario. Thread count and the SIMD kernel
// are deliberately excluded: both are byte-identity-neutral, so a checkpoint
// taken at 8 threads resumes fine at 1 (and vice versa).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "device/gpu_model.hpp"
#include "edge/layer_cache.hpp"
#include "edge/retry_queue.hpp"
#include "net/network.hpp"
#include "obs/stream_writer.hpp"
#include "obs/timeseries.hpp"
#include "sim/simulator.hpp"

namespace perdnn::snapshot {

/// Version 2 appended the event-journal state (has_journal plus the events
/// inline) so a resumed run's journal is byte-identical to the
/// uninterrupted one.
/// Version 3 appended the sharded-world section (has_shard + ShardSimState)
/// for the SoA city-scale simulator; decode still accepts version-2 files
/// (their shard section is simply absent).
/// Version 4 (the "v3.1" field additions) appended the sharded engine's
/// deferred-migration retry queue to ShardSimState and the attaches_shed
/// counter to the metrics block; decode still accepts version-2 and
/// version-3 files (their retry queue is simply empty).
/// Version 5 appended the budgeted-cache state: per-cache-entry resident
/// byte counts (classic engine), the cache_evictions / cache_partial_stores
/// / peak_cache_bytes metrics fields, and the three budgeted-cache
/// timeseries-row columns; decode still accepts versions 2–4 (their byte
/// counts are recomputed from the cost model on restore and the new
/// metrics/row fields default to zero).
/// Version 6 dropped the two estimate-memo hit/miss tallies that followed
/// the level statistics; decode still accepts versions 2–5 and skips them.
/// Version 7 replaced the classic engine's per-interval traffic histories
/// with the O(servers) TrafficAccountant summary, written in the same place
/// for both engines, and dropped the sharded section's Mbps peaks and
/// busiest-interval record. decode folds a version 2–6 classic history,
/// plus the interval that was open at the checkpoint, into the summary
/// exactly. It parses and drops a version 3–6 sharded file's peaks; the
/// sharded engine refuses to resume such a file, because a 100 Mbps share
/// cannot be turned back into per-server bytes.
/// Version 8 replaced the classic engine's inline journal (every event plus
/// the chain book) with the journal stream's offset, event count and chain
/// state, and moved the sharded section's copy of that state into the same
/// section, so both engines write it once. decode still reads a version
/// 2–7 file: a sharded file's stream state lands in that section, and a
/// classic file's inline events are checked, counted and dropped.
inline constexpr std::uint32_t kSnapshotVersion = 8;

/// Thrown for every malformed-snapshot condition: bad magic, unknown
/// version, truncation, checksum mismatch, out-of-range lengths, fingerprint
/// mismatch, or I/O failure. CLI consumers map it to exit code 2.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One client's attachment/upload state.
struct ClientSnapshot {
  ServerId current = kNoServer;
  std::vector<LayerId> pending;
  Bytes carry_bytes = 0;
  double link_factor = 1.0;
};

/// One per-load level-cache entry. Only the GPU statistics are stored: they
/// are the one RNG draw in the level fill, and everything downstream
/// (estimates, plan, needed set) is a deterministic function of them.
struct LoadLevelSnapshot {
  int load = 0;
  GpuStats stats;
};

/// Complete mutable state of the sharded (SoA) city-scale simulator at an
/// interval boundary. Per-client arrays are indexed by client id; cache
/// entries are flattened in (server, client) order — the canonical encoding
/// every shard/thread count produces identically. RNG substreams, per-client
/// speeds and the tile index are deterministic functions of (seed, client)
/// or of the stored position, so they are recomputed on resume rather than
/// stored. The timeseries offset lets a resumed run truncate its CSV back to
/// the checkpoint boundary and append from there; the journal's stream
/// state is in SimSnapshot::journal, which both engines write.
struct ShardSimState {
  // SoA client store.
  std::vector<double> x, y, heading;
  std::vector<std::int32_t> server;         // kNoServer when detached/offline
  std::vector<std::uint32_t> prefix;        // uploaded canonical-prefix length
  std::vector<std::int64_t> carry;          // bytes banked toward next layer
  std::vector<std::int32_t> offline_until;  // offline while interval < this
  // Layer-cache entries, flattened and sorted by (server, client).
  std::vector<std::int32_t> entry_server, entry_client, entry_expire;
  std::vector<std::uint32_t> entry_prefix;
  // Streamed-timeseries position at the checkpoint.
  std::uint64_t timeseries_bytes = 0, timeseries_rows = 0;
  // v3.1 (wire version 4): the deferred-migration retry queue, flattened in
  // (source server, FIFO position) order — the canonical order every
  // shard/thread count produces identically. All seven arrays share one
  // length; version-3 files decode with all of them empty.
  std::vector<std::int32_t> retry_client, retry_source, retry_target;
  std::vector<std::uint32_t> retry_prefix;
  std::vector<std::int64_t> retry_bytes;
  std::vector<std::int32_t> retry_attempts, retry_next_attempt;
};

struct SimSnapshot {
  /// Wire version the snapshot was decoded from; encode() always writes
  /// kSnapshotVersion.
  std::uint32_t version = kSnapshotVersion;
  std::uint64_t config_fingerprint = 0;
  /// First interval the resumed run executes (the checkpointed run finished
  /// intervals [0, next_interval)).
  int next_interval = 0;
  int num_intervals = 0;
  Rng::State rng;
  Rng::State link_rng;
  /// Per-server cache entries, indexed by server id, entries sorted by
  /// client id.
  std::vector<std::vector<LayerCache::EntrySnapshot>> caches;
  /// Parked retry orders in (source server, FIFO position) order. A file
  /// written before the queue went per source lists them in one global
  /// FIFO; restoring parks them in list order, so each source keeps its
  /// order. The wire section that follows them also carries the five retry
  /// tallies; decode copies them into a classic snapshot's `metrics`,
  /// because earlier classic writers kept those counts only in the tallies
  /// until the run ended.
  std::vector<LayerRetryOrder> retry_orders;
  /// Backhaul summary of both engines.
  TrafficAccountant::State traffic;
  std::vector<int> attached;
  std::vector<ClientSnapshot> clients;
  std::vector<LoadLevelSnapshot> levels;           // sorted by load
  std::vector<LoadLevelSnapshot> degraded_levels;  // sorted by load
  SimulationMetrics metrics;
  /// Timeseries rows finished before the checkpoint. has_timeseries marks
  /// whether the checkpointed run recorded at all — resuming a recorded run
  /// without these rows could not reproduce the full CSV.
  bool has_timeseries = false;
  std::vector<obs::TimeseriesRow> timeseries_rows;
  /// The event-journal stream at the checkpoint, written by both engines:
  /// byte offset, event count, chain counter and client->chain bindings.
  /// has_journal marks a checkpointed run that streamed its journal, which
  /// a journaling resume needs (check_journal_resume). A version 2–7
  /// classic file kept its events inline instead; decode counts them into
  /// journal.events but leaves has_journal false, as no stream exists to
  /// continue, so such a file resumes only without a journal.
  bool has_journal = false;
  obs::JournalStreamState journal;
  /// Sharded-world section (version 3). When has_shard is set the classic
  /// per-client/per-server vectors above stay empty (all but `traffic`,
  /// which both engines fill): the two engines never share a snapshot.
  bool has_shard = false;
  ShardSimState shard;
};

/// The journal resume rule of both engines. A run that journals to
/// `journal_path` needs a checkpoint that streamed its journal, every chain
/// of which names one of the world's `num_clients` clients (the writer
/// sizes a vector by client id), and a file at `journal_path` that still
/// holds the checkpoint's bytes (the writer truncates it back to them);
/// SnapshotError otherwise. A run that does not journal (empty path)
/// ignores the journal state.
void check_journal_resume(const SimSnapshot& snap,
                          const std::string& journal_path, int num_clients);

/// The checkpoint rule of both engines: a run captures a checkpoint after
/// `interval` when it stops there, or when a positive `every` divides
/// interval + 1, except after the last interval: a finished run leaves
/// nothing to resume.
inline bool checkpoint_due(int every, int stop_after, int interval,
                           int num_intervals) {
  const int next = interval + 1;
  return interval == stop_after ||
         (every > 0 && next % every == 0 && next < num_intervals);
}

/// Hash of every simulation-affecting config knob plus the world's shape
/// (server/client/interval counts, model size). Resuming a snapshot whose
/// fingerprint differs is rejected.
std::uint64_t config_fingerprint(const SimulationConfig& config,
                                 const SimulationWorld& world);

/// Serialises to the wire format described above.
std::string encode(const SimSnapshot& snap);

/// Parses and validates a wire-format snapshot; throws SnapshotError.
SimSnapshot decode(const std::string& bytes);

/// encode() + atomic write (tmp file in the same directory, then rename).
void save(const SimSnapshot& snap, const std::string& path);

/// Reads and decode()s a snapshot file; throws SnapshotError on I/O or
/// format problems.
SimSnapshot load(const std::string& path);

/// Flat JSON object of every SimulationMetrics field: the deterministic
/// metrics output of `perdnn simulate --sim-metrics-out` and perdnn_runner's
/// per-shard done marker, which `merge` embeds verbatim.
std::string metrics_to_json(const SimulationMetrics& metrics);

}  // namespace perdnn::snapshot
