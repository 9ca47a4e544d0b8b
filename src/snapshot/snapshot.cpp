#include "snapshot/snapshot.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/wire.hpp"
#include "faults/fault_plan.hpp"
#include "obs/json.hpp"

namespace perdnn::snapshot {

namespace {

constexpr char kMagic[8] = {'P', 'D', 'N', 'N', 'S', 'N', 'P', '1'};

// The fixed-width encoding and the magic|version|size|payload|checksum
// frame live in common/wire.hpp, shared with the event-journal codec.
using wire::Reader;
using wire::Writer;

// -- field-group codecs ------------------------------------------------------

void write_rng(Writer& w, const Rng::State& s) {
  for (std::uint64_t word : s.s) w.u64(word);
  w.f64(s.cached_normal);
  w.boolean(s.has_cached_normal);
}

Rng::State read_rng(Reader& r) {
  Rng::State s;
  for (auto& word : s.s) word = r.u64();
  s.cached_normal = r.f64();
  s.has_cached_normal = r.boolean();
  return s;
}

void write_stats(Writer& w, const GpuStats& s) {
  w.i32(s.num_clients);
  w.f64(s.kernel_util);
  w.f64(s.mem_util);
  w.f64(s.mem_usage_mb);
  w.f64(s.temperature_c);
  w.i32(s.age_intervals);
}

GpuStats read_stats(Reader& r) {
  GpuStats s;
  s.num_clients = r.i32();
  s.kernel_util = r.f64();
  s.mem_util = r.f64();
  s.mem_usage_mb = r.f64();
  s.temperature_c = r.f64();
  s.age_intervals = r.i32();
  return s;
}

void write_levels(Writer& w, const std::vector<LoadLevelSnapshot>& levels) {
  w.count(levels.size());
  for (const LoadLevelSnapshot& lvl : levels) {
    w.i32(lvl.load);
    write_stats(w, lvl.stats);
  }
}

std::vector<LoadLevelSnapshot> read_levels(Reader& r) {
  std::vector<LoadLevelSnapshot> levels(r.count(44));
  for (LoadLevelSnapshot& lvl : levels) {
    lvl.load = r.i32();
    lvl.stats = read_stats(r);
  }
  return levels;
}

void write_metrics(Writer& w, const SimulationMetrics& m) {
  w.i64(m.cold_window_queries);
  w.i32(m.server_changes);
  w.i32(m.hits);
  w.i32(m.partials);
  w.i32(m.misses);
  w.i32(m.server_failures);
  w.i32(m.failure_evictions);
  w.i64(m.routed_queries);
  w.i32(m.client_disconnect_events);
  w.i64(m.local_fallback_queries);
  w.f64(m.local_latency_sum_s);
  w.i64(m.attached_client_intervals);
  w.i64(m.unreachable_client_intervals);
  w.i64(m.offline_client_intervals);
  w.i32(m.degraded_attaches);
  w.i32(m.migrations_deferred);
  w.i32(m.migration_retries);
  w.i32(m.migrations_abandoned);
  w.i32(m.migrations_truncated);
  w.i64(m.deferred_migration_bytes);
  w.i64(m.abandoned_migration_bytes);
  w.i64(m.peak_deferred_backlog_bytes);
  w.f64(m.peak_uplink_mbps);
  w.f64(m.peak_downlink_mbps);
  w.f64(m.fraction_servers_within_100mbps);
  w.f64(m.fraction_servers_within_100mbps_at_peak);
  w.i64(m.total_migrated_bytes);
  w.count(m.server_peak_uplink_mbps.size());
  for (double v : m.server_peak_uplink_mbps) w.f64(v);
  w.i32(m.num_servers);
  w.i32(m.num_clients);
  w.i32(m.num_intervals);
  w.i32(m.attaches_shed);  // appended in version 4
  // Budgeted-cache counters, appended in version 5.
  w.i64(m.cache_evictions);
  w.i64(m.cache_partial_stores);
  w.i64(m.peak_cache_bytes);
}

SimulationMetrics read_metrics(Reader& r, std::uint32_t version) {
  SimulationMetrics m;
  m.cold_window_queries = r.i64();
  m.server_changes = r.i32();
  m.hits = r.i32();
  m.partials = r.i32();
  m.misses = r.i32();
  m.server_failures = r.i32();
  m.failure_evictions = r.i32();
  m.routed_queries = r.i64();
  m.client_disconnect_events = r.i32();
  m.local_fallback_queries = r.i64();
  m.local_latency_sum_s = r.f64();
  m.attached_client_intervals = r.i64();
  m.unreachable_client_intervals = r.i64();
  m.offline_client_intervals = r.i64();
  m.degraded_attaches = r.i32();
  m.migrations_deferred = r.i32();
  m.migration_retries = r.i32();
  m.migrations_abandoned = r.i32();
  m.migrations_truncated = r.i32();
  m.deferred_migration_bytes = r.i64();
  m.abandoned_migration_bytes = r.i64();
  m.peak_deferred_backlog_bytes = r.i64();
  m.peak_uplink_mbps = r.f64();
  m.peak_downlink_mbps = r.f64();
  m.fraction_servers_within_100mbps = r.f64();
  m.fraction_servers_within_100mbps_at_peak = r.f64();
  m.total_migrated_bytes = r.i64();
  m.server_peak_uplink_mbps.resize(r.count(8));
  for (double& v : m.server_peak_uplink_mbps) v = r.f64();
  m.num_servers = r.i32();
  m.num_clients = r.i32();
  m.num_intervals = r.i32();
  if (version >= 4) m.attaches_shed = r.i32();
  if (version >= 5) {
    m.cache_evictions = r.i64();
    m.cache_partial_stores = r.i64();
    m.peak_cache_bytes = r.i64();
  }
  return m;
}

void write_row(Writer& w, const obs::TimeseriesRow& row) {
  w.i32(row.interval);
  w.i32(row.server);
  w.i32(row.attached);
  w.i32(row.hits);
  w.i32(row.partials);
  w.i32(row.misses);
  w.i64(row.cold_window_queries);
  w.f64(row.cold_latency_sum_s);
  w.i64(row.uplink_bytes);
  w.i64(row.downlink_bytes);
  w.i32(row.migration_orders);
  w.i32(row.predictor_samples);
  w.f64(row.predictor_error_sum_m);
  w.i64(row.local_queries);
  w.f64(row.local_latency_sum_s);
  w.i64(row.deferred_bytes);
  w.i32(row.degraded);
  // Budgeted-cache columns, appended in version 5.
  w.i64(row.cache_bytes);
  w.i32(row.cache_evictions);
  w.i32(row.cache_partial_stores);
}

obs::TimeseriesRow read_row(Reader& r, std::uint32_t version) {
  obs::TimeseriesRow row;
  row.interval = r.i32();
  row.server = r.i32();
  row.attached = r.i32();
  row.hits = r.i32();
  row.partials = r.i32();
  row.misses = r.i32();
  row.cold_window_queries = r.i64();
  row.cold_latency_sum_s = r.f64();
  row.uplink_bytes = r.i64();
  row.downlink_bytes = r.i64();
  row.migration_orders = r.i32();
  row.predictor_samples = r.i32();
  row.predictor_error_sum_m = r.f64();
  row.local_queries = r.i64();
  row.local_latency_sum_s = r.f64();
  row.deferred_bytes = r.i64();
  row.degraded = r.i32();
  if (version >= 5) {
    row.cache_bytes = r.i64();
    row.cache_evictions = r.i32();
    row.cache_partial_stores = r.i32();
  }
  return row;
}

void write_bytes(Writer& w, const std::vector<Bytes>& bytes) {
  w.count(bytes.size());
  for (Bytes b : bytes) w.i64(b);
}

std::vector<Bytes> read_bytes(Reader& r) {
  std::vector<Bytes> bytes(r.count(8));
  for (Bytes& b : bytes) b = r.i64();
  return bytes;
}

void write_traffic(Writer& w, const TrafficAccountant::State& t) {
  write_bytes(w, t.peak_uplink);
  write_bytes(w, t.peak_downlink);
  w.i64(t.busiest_total);
  write_bytes(w, t.busiest_uplink);
  write_bytes(w, t.busiest_downlink);
}

TrafficAccountant::State read_traffic(Reader& r) {
  TrafficAccountant::State t;
  t.peak_uplink = read_bytes(r);
  t.peak_downlink = read_bytes(r);
  t.busiest_total = r.i64();
  t.busiest_uplink = read_bytes(r);
  t.busiest_downlink = read_bytes(r);
  return t;
}

/// Versions 2–6 stored the classic engine's per-interval byte history plus
/// the interval open at the checkpoint, which was complete by then. Folding
/// both yields exactly the summary a version 7 writer stores. A sharded
/// file's copy of this section is empty and folds to an empty summary.
TrafficAccountant::State read_traffic_history(Reader& r) {
  std::vector<std::vector<Bytes>> uplink(r.count(8));
  for (auto& interval : uplink) interval = read_bytes(r);
  std::vector<std::vector<Bytes>> downlink(r.count(8));
  for (auto& interval : downlink) interval = read_bytes(r);
  const std::vector<Bytes> open_uplink = read_bytes(r);
  const std::vector<Bytes> open_downlink = read_bytes(r);
  const bool interval_open = r.boolean();
  r.i64();  // total bytes sent, never part of the summary
  if (uplink.size() != downlink.size())
    throw SnapshotError("snapshot: traffic histories disagree on length");
  TrafficAccountant::State t(open_uplink.size());
  const auto fold = [&t](const std::vector<Bytes>& up,
                         const std::vector<Bytes>& down) {
    if (up.size() != t.peak_uplink.size() ||
        down.size() != t.peak_uplink.size())
      throw SnapshotError("snapshot: traffic history widths disagree");
    t.fold(up, down);
  };
  for (std::size_t k = 0; k < uplink.size(); ++k) fold(uplink[k], downlink[k]);
  if (interval_open) fold(open_uplink, open_downlink);
  return t;
}

std::vector<std::pair<ClientId, std::uint64_t>> read_chains(Reader& r) {
  std::vector<std::pair<ClientId, std::uint64_t>> chains(r.count(12));
  for (auto& [client, chain] : chains) {
    client = r.i32();
    chain = r.u64();
  }
  return chains;
}

void write_journal(Writer& w, const obs::JournalStreamState& j) {
  w.u64(j.bytes);
  w.u64(j.events);
  w.u64(j.next_chain);
  w.count(j.client_chains.size());
  for (const auto& [client, chain] : j.client_chains) {
    w.i32(client);
    w.u64(chain);
  }
}

obs::JournalStreamState read_journal(Reader& r) {
  obs::JournalStreamState j;
  j.bytes = r.u64();
  j.events = r.u64();
  j.next_chain = r.u64();
  j.client_chains = read_chains(r);
  return j;
}

/// Versions 2–7 kept the classic engine's journal inline: every event, the
/// chain counter, a drop count and the client bindings. The events are
/// checked and counted, not kept; a sharded file's copy is empty.
obs::JournalStreamState read_inline_journal(Reader& r) {
  obs::JournalStreamState j;
  // Per-event wire size: 4+1+8+4+4+4+8+4+4+8 bytes.
  j.events = r.count(49);
  for (std::uint64_t i = 0; i < j.events; ++i) {
    r.i32();  // interval
    if (r.u8() > static_cast<std::uint8_t>(obs::JournalEventKind::kCachePartial))
      throw SnapshotError("snapshot: journal event kind out of range");
    for (int word = 0; word < 11; ++word) r.u32();  // the other 44 bytes
  }
  j.next_chain = r.u64();
  r.u64();  // events dropped past the in-memory cap
  j.client_chains = read_chains(r);
  return j;
}

void write_shard(Writer& w, const ShardSimState& s) {
  const auto write_f64s = [&](const std::vector<double>& v) {
    w.count(v.size());
    for (double x : v) w.f64(x);
  };
  const auto write_i32s = [&](const std::vector<std::int32_t>& v) {
    w.count(v.size());
    for (std::int32_t x : v) w.i32(x);
  };
  const auto write_u32s = [&](const std::vector<std::uint32_t>& v) {
    w.count(v.size());
    for (std::uint32_t x : v) w.u32(x);
  };
  write_f64s(s.x);
  write_f64s(s.y);
  write_f64s(s.heading);
  write_i32s(s.server);
  write_u32s(s.prefix);
  w.count(s.carry.size());
  for (std::int64_t x : s.carry) w.i64(x);
  write_i32s(s.offline_until);
  write_i32s(s.entry_server);
  write_i32s(s.entry_client);
  write_i32s(s.entry_expire);
  write_u32s(s.entry_prefix);
  w.u64(s.timeseries_bytes);
  w.u64(s.timeseries_rows);
  // v3.1 retry-queue arrays, appended in version 4.
  write_i32s(s.retry_client);
  write_i32s(s.retry_source);
  write_i32s(s.retry_target);
  write_u32s(s.retry_prefix);
  w.count(s.retry_bytes.size());
  for (std::int64_t x : s.retry_bytes) w.i64(x);
  write_i32s(s.retry_attempts);
  write_i32s(s.retry_next_attempt);
}

/// A version 3–7 sharded section carries the journal stream state, which
/// lands in `journal`, the section both engines share since version 8.
ShardSimState read_shard(Reader& r, std::uint32_t version,
                         obs::JournalStreamState* journal) {
  ShardSimState s;
  const auto read_f64s = [&](std::vector<double>& v) {
    v.resize(r.count(8));
    for (double& x : v) x = r.f64();
  };
  const auto read_i32s = [&](std::vector<std::int32_t>& v) {
    v.resize(r.count(4));
    for (std::int32_t& x : v) x = r.i32();
  };
  const auto read_u32s = [&](std::vector<std::uint32_t>& v) {
    v.resize(r.count(4));
    for (std::uint32_t& x : v) x = r.u32();
  };
  read_f64s(s.x);
  read_f64s(s.y);
  read_f64s(s.heading);
  read_i32s(s.server);
  read_u32s(s.prefix);
  s.carry.resize(r.count(8));
  for (std::int64_t& x : s.carry) x = r.i64();
  read_i32s(s.offline_until);
  read_i32s(s.entry_server);
  read_i32s(s.entry_client);
  read_i32s(s.entry_expire);
  read_u32s(s.entry_prefix);
  if (version <= 6) {
    // Mbps peaks and the busiest-interval record, dropped in version 7.
    std::vector<double> dropped;
    read_f64s(dropped);
    read_f64s(dropped);
    r.i64();
    r.f64();
  }
  s.timeseries_bytes = r.u64();
  s.timeseries_rows = r.u64();
  if (version <= 7) *journal = read_journal(r);
  if (version >= 4) {
    read_i32s(s.retry_client);
    read_i32s(s.retry_source);
    read_i32s(s.retry_target);
    read_u32s(s.retry_prefix);
    s.retry_bytes.resize(r.count(8));
    for (std::int64_t& x : s.retry_bytes) x = r.i64();
    read_i32s(s.retry_attempts);
    read_i32s(s.retry_next_attempt);
    const std::size_t n = s.retry_client.size();
    if (s.retry_source.size() != n || s.retry_target.size() != n ||
        s.retry_prefix.size() != n || s.retry_bytes.size() != n ||
        s.retry_attempts.size() != n || s.retry_next_attempt.size() != n)
      throw SnapshotError("snapshot: retry-queue arrays disagree on length");
  }
  return s;
}

}  // namespace

void check_journal_resume(const SimSnapshot& snap,
                          const std::string& journal_path, int num_clients) {
  if (journal_path.empty()) return;
  if (!snap.has_journal)
    throw SnapshotError(
        "snapshot: this run journals, but the checkpoint holds no journal "
        "stream to continue (a version 2-7 classic checkpoint keeps its "
        "journal inline; resume it without a journal)");
  for (const auto& [client, chain] : snap.journal.client_chains)
    if (client < 0 || client >= num_clients)
      throw SnapshotError("snapshot: journal chain bound to client " +
                          std::to_string(client) +
                          ", outside the world's clients");
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(journal_path, ec);
  if (ec || size < snap.journal.bytes)
    throw SnapshotError("snapshot: journal " + journal_path +
                        " is missing or shorter than the checkpoint's " +
                        std::to_string(snap.journal.bytes) + " bytes");
}

// -- config fingerprint ------------------------------------------------------

std::uint64_t config_fingerprint(const SimulationConfig& config,
                                 const SimulationWorld& world) {
  // Chained splitmix64 over every knob that can change the simulation's
  // byte-level behaviour, plus the world's shape. Thread count and the
  // SIMD kernel are excluded on purpose: both are proven
  // byte-identity-neutral by the tier-1 determinism gate, so a checkpoint
  // moves freely across them.
  wire::FingerprintHasher h(0x50e1f1ed5eedULL);
  h.mix(static_cast<std::uint64_t>(config.model));
  h.mix(static_cast<std::uint64_t>(config.policy));
  h.mix_double(config.migration_radius_m);
  h.mix(static_cast<std::uint64_t>(config.ttl_intervals));
  h.mix(static_cast<std::uint64_t>(config.trajectory_length));
  h.mix_double(config.query_gap);
  h.mix_double(config.cell_radius_m);
  h.mix_double(config.wireless.uplink_bytes_per_sec);
  h.mix_double(config.wireless.downlink_bytes_per_sec);
  h.mix_double(config.wireless.rtt);
  h.mix_double(config.bandwidth_jitter_sigma);
  h.mix(static_cast<std::uint64_t>(config.selection));
  h.mix_double(config.visibility_radius_m);
  h.mix(static_cast<std::uint64_t>(config.predictor));
  h.mix_double(config.server_failure_rate);
  h.mix(static_cast<std::uint64_t>(config.server_downtime_intervals));
  h.mix_string(config.fault_plan.to_json());
  h.mix(static_cast<std::uint64_t>(config.migration_retry.max_attempts));
  h.mix(static_cast<std::uint64_t>(
      config.migration_retry.initial_backoff_intervals));
  h.mix(static_cast<std::uint64_t>(
      config.migration_retry.max_backoff_intervals));
  h.mix(config.routing_fallback ? 1 : 0);
  h.mix_double(config.backhaul_bytes_per_sec);
  h.mix_double(config.backhaul_rtt);
  h.mix(config.crowded_servers.size());
  for (ServerId s : config.crowded_servers)
    h.mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(s)));
  h.mix(static_cast<std::uint64_t>(config.crowded_byte_budget));
  h.mix(config.seed);
  h.mix(static_cast<std::uint64_t>(world.servers.num_servers()));
  h.mix(world.test_traces.size());
  for (const Trajectory& trace : world.test_traces)
    h.mix(trace.points.size());
  h.mix_double(world.interval);
  h.mix(static_cast<std::uint64_t>(world.model.num_layers()));
  // Appended in version 5: the per-server cache byte budget.
  h.mix(static_cast<std::uint64_t>(config.cache_budget_bytes));
  return h.digest();
}

// -- encode / decode ---------------------------------------------------------

std::string encode(const SimSnapshot& snap) {
  Writer payload;
  payload.u64(snap.config_fingerprint);
  payload.i32(snap.next_interval);
  payload.i32(snap.num_intervals);
  write_rng(payload, snap.rng);
  write_rng(payload, snap.link_rng);

  payload.count(snap.caches.size());
  for (const auto& entries : snap.caches) {
    payload.count(entries.size());
    for (const LayerCache::EntrySnapshot& e : entries) {
      payload.i32(e.client);
      payload.i32(e.expires_at);
      payload.count(e.layers.size());
      for (LayerId id : e.layers) payload.i32(id);
      payload.i64(e.bytes);  // appended in version 5
    }
  }

  payload.count(snap.retry_orders.size());
  Bytes backlog = 0;
  for (const LayerRetryOrder& order : snap.retry_orders) {
    payload.i32(order.client);
    payload.i32(order.source);
    payload.i32(order.target);
    payload.count(order.payload.size());
    for (LayerId id : order.payload) payload.i32(id);
    payload.i64(order.bytes);
    payload.i32(order.attempts);
    payload.i32(order.next_attempt_interval);
    backlog += order.bytes;
  }
  // The backlog and the retry tallies. A sharded snapshot leaves this
  // classic section empty.
  const SimulationMetrics none;
  const SimulationMetrics& tallies = snap.has_shard ? none : snap.metrics;
  payload.i64(backlog);
  payload.i64(tallies.deferred_migration_bytes);
  payload.i64(tallies.abandoned_migration_bytes);
  payload.i32(tallies.migrations_deferred);
  payload.i32(tallies.migrations_abandoned);
  payload.i32(tallies.migration_retries);

  write_traffic(payload, snap.traffic);

  payload.count(snap.attached.size());
  for (int a : snap.attached) payload.i32(a);

  payload.count(snap.clients.size());
  for (const ClientSnapshot& c : snap.clients) {
    payload.i32(c.current);
    payload.count(c.pending.size());
    for (LayerId id : c.pending) payload.i32(id);
    payload.i64(c.carry_bytes);
    payload.f64(c.link_factor);
  }

  write_levels(payload, snap.levels);
  write_levels(payload, snap.degraded_levels);
  write_metrics(payload, snap.metrics);

  payload.boolean(snap.has_timeseries);
  payload.count(snap.timeseries_rows.size());
  for (const obs::TimeseriesRow& row : snap.timeseries_rows)
    write_row(payload, row);

  payload.boolean(snap.has_journal);
  write_journal(payload, snap.journal);

  payload.boolean(snap.has_shard);
  if (snap.has_shard) write_shard(payload, snap.shard);

  return wire::frame(kMagic, kSnapshotVersion, payload.bytes());
}

SimSnapshot decode(const std::string& bytes) try {
  // Accept the current version plus version 2 (pre-shard files, their shard
  // section is absent), version 3 (pre-retry-queue files, their retry
  // arrays are empty), version 4 (pre-budgeted-cache files, their
  // per-entry byte counts are recomputed on restore), version 5 (the last
  // to carry the estimate-memo tallies, skipped here), version 6 (the last
  // to carry traffic histories, folded here) and version 7 (the last to
  // carry a classic journal inline, counted here). Unknown versions fall
  // through to unframe()'s version-mismatch error.
  std::uint32_t version = kSnapshotVersion;
  if (bytes.size() >= 12) {
    Reader vr(bytes.data() + 8, 4);
    const std::uint32_t declared = vr.u32();
    if (declared >= 2 && declared <= 7) version = declared;
  }
  Reader r = wire::unframe(bytes, kMagic, version, "snapshot");
  SimSnapshot snap;
  snap.version = version;
  snap.config_fingerprint = r.u64();
  snap.next_interval = r.i32();
  snap.num_intervals = r.i32();
  snap.rng = read_rng(r);
  snap.link_rng = read_rng(r);

  snap.caches.resize(r.count(8));
  for (auto& entries : snap.caches) {
    entries.resize(r.count(16));
    for (LayerCache::EntrySnapshot& e : entries) {
      e.client = r.i32();
      e.expires_at = r.i32();
      e.layers.resize(r.count(4));
      for (LayerId& id : e.layers) id = r.i32();
      if (version >= 5) e.bytes = r.i64();
    }
  }

  snap.retry_orders.resize(r.count(28));
  for (LayerRetryOrder& order : snap.retry_orders) {
    order.client = r.i32();
    order.source = r.i32();
    order.target = r.i32();
    order.payload.resize(r.count(4));
    for (LayerId& id : order.payload) id = r.i32();
    order.bytes = r.i64();
    order.attempts = r.i32();
    order.next_attempt_interval = r.i32();
  }
  r.i64();  // the backlog: restore parks the orders and re-derives it
  SimulationMetrics tallies;
  tallies.deferred_migration_bytes = r.i64();
  tallies.abandoned_migration_bytes = r.i64();
  tallies.migrations_deferred = r.i32();
  tallies.migrations_abandoned = r.i32();
  tallies.migration_retries = r.i32();

  snap.traffic = version >= 7 ? read_traffic(r) : read_traffic_history(r);

  snap.attached.resize(r.count(4));
  for (int& a : snap.attached) a = r.i32();

  snap.clients.resize(r.count(24));
  for (ClientSnapshot& c : snap.clients) {
    c.current = r.i32();
    c.pending.resize(r.count(4));
    for (LayerId& id : c.pending) id = r.i32();
    c.carry_bytes = r.i64();
    c.link_factor = r.f64();
  }

  snap.levels = read_levels(r);
  snap.degraded_levels = read_levels(r);
  if (version <= 5) {
    r.u64();  // estimate-memo hits, dropped in version 6
    r.u64();  // estimate-memo misses
  }
  snap.metrics = read_metrics(r, version);

  snap.has_timeseries = r.boolean();
  snap.timeseries_rows.resize(r.count(100));
  for (obs::TimeseriesRow& row : snap.timeseries_rows)
    row = read_row(r, version);

  snap.has_journal = r.boolean();
  snap.journal = version >= 8 ? read_journal(r) : read_inline_journal(r);

  if (version >= 3) {
    snap.has_shard = r.boolean();
    if (snap.has_shard) snap.shard = read_shard(r, version, &snap.journal);
  }
  // An inline classic journal is no stream a resumed run could continue.
  if (version <= 7 && !snap.has_shard) snap.has_journal = false;
  if (!snap.has_shard) {
    // Earlier classic writers left these counters at zero in the metrics
    // block until the run ended; the tallies always held them.
    snap.metrics.deferred_migration_bytes = tallies.deferred_migration_bytes;
    snap.metrics.abandoned_migration_bytes = tallies.abandoned_migration_bytes;
    snap.metrics.migrations_deferred = tallies.migrations_deferred;
    snap.metrics.migrations_abandoned = tallies.migrations_abandoned;
    snap.metrics.migration_retries = tallies.migration_retries;
  }

  if (!r.done())
    throw SnapshotError("snapshot: trailing bytes after the last field");
  return snap;
} catch (const wire::WireError& e) {
  throw SnapshotError(e.what());
}

// -- file I/O ----------------------------------------------------------------

void save(const SimSnapshot& snap, const std::string& path) {
  const std::string bytes = encode(snap);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw SnapshotError("snapshot: cannot open " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) throw SnapshotError("snapshot: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError("snapshot: rename to " + path + " failed");
  }
}

SimSnapshot load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SnapshotError("snapshot: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof())
    throw SnapshotError("snapshot: read failed for " + path);
  return decode(buf.str());
}

// -- metrics JSON ------------------------------------------------------------

std::string metrics_to_json(const SimulationMetrics& m) {
  using obs::JsonValue;
  std::vector<std::pair<std::string, JsonValue>> doc;
  const auto num = [&](const char* key, double value) {
    doc.emplace_back(key, JsonValue::make_number(value));
  };
  num("cold_window_queries", static_cast<double>(m.cold_window_queries));
  num("server_changes", m.server_changes);
  num("hits", m.hits);
  num("partials", m.partials);
  num("misses", m.misses);
  num("server_failures", m.server_failures);
  num("failure_evictions", m.failure_evictions);
  num("routed_queries", static_cast<double>(m.routed_queries));
  num("client_disconnect_events", m.client_disconnect_events);
  num("local_fallback_queries",
      static_cast<double>(m.local_fallback_queries));
  num("local_latency_sum_s", m.local_latency_sum_s);
  num("attached_client_intervals",
      static_cast<double>(m.attached_client_intervals));
  num("unreachable_client_intervals",
      static_cast<double>(m.unreachable_client_intervals));
  num("offline_client_intervals",
      static_cast<double>(m.offline_client_intervals));
  num("degraded_attaches", m.degraded_attaches);
  num("migrations_deferred", m.migrations_deferred);
  num("migration_retries", m.migration_retries);
  num("migrations_abandoned", m.migrations_abandoned);
  num("migrations_truncated", m.migrations_truncated);
  // Emitted only when admission control actually shed an attach, so runs
  // without the knob keep their exact pre-existing JSON bytes.
  if (m.attaches_shed != 0) num("attaches_shed", m.attaches_shed);
  num("deferred_migration_bytes",
      static_cast<double>(m.deferred_migration_bytes));
  num("abandoned_migration_bytes",
      static_cast<double>(m.abandoned_migration_bytes));
  num("peak_deferred_backlog_bytes",
      static_cast<double>(m.peak_deferred_backlog_bytes));
  // Budgeted-cache counters — emitted only when a budget actually bit, so
  // unbudgeted runs keep their exact pre-existing JSON bytes.
  if (m.cache_evictions != 0)
    num("cache_evictions", static_cast<double>(m.cache_evictions));
  if (m.cache_partial_stores != 0)
    num("cache_partial_stores", static_cast<double>(m.cache_partial_stores));
  if (m.peak_cache_bytes != 0)
    num("peak_cache_bytes", static_cast<double>(m.peak_cache_bytes));
  num("peak_uplink_mbps", m.peak_uplink_mbps);
  num("peak_downlink_mbps", m.peak_downlink_mbps);
  num("fraction_servers_within_100mbps", m.fraction_servers_within_100mbps);
  num("fraction_servers_within_100mbps_at_peak",
      m.fraction_servers_within_100mbps_at_peak);
  num("total_migrated_bytes", static_cast<double>(m.total_migrated_bytes));
  std::vector<JsonValue> peaks;
  peaks.reserve(m.server_peak_uplink_mbps.size());
  for (double v : m.server_peak_uplink_mbps)
    peaks.push_back(JsonValue::make_number(v));
  doc.emplace_back("server_peak_uplink_mbps",
                   JsonValue::make_array(std::move(peaks)));
  num("num_servers", m.num_servers);
  num("num_clients", m.num_clients);
  num("num_intervals", m.num_intervals);
  return JsonValue::make_object(std::move(doc)).serialize();
}

}  // namespace perdnn::snapshot
