#include "sim/shard_sim.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/flat_map.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "edge/retry_queue.hpp"
#include "faults/fault_timeline.hpp"
#include "geo/point.hpp"
#include "obs/stream_writer.hpp"
#include "snapshot/snapshot.hpp"

namespace perdnn {

namespace {

constexpr double kSqrt3 = 1.7320508075688772;
constexpr double kTwoPi = 6.283185307179586;
/// Hard bound on queries simulated inside one cold-start window; only
/// reachable with a pathological (near-zero latency, zero gap) config.
constexpr long long kMaxColdQueries = 100000;

int floor_mod2(int v) { return ((v % 2) + 2) % 2; }

/// Stateless counter-based draw: one 64-bit hash per (client substream,
/// purpose tag, interval counter). Phase A randomness must not depend on
/// evaluation order, so no sequential generator ever appears there.
std::uint64_t hash3(std::uint64_t sub, std::uint64_t tag,
                    std::uint64_t counter) {
  std::uint64_t state = sub ^ (tag * 0x9e3779b97f4a7c15ULL) ^
                        (counter * 0xbf58476d1ce4e5b9ULL);
  return splitmix64(state);
}

/// Uniform double in [0, 1) from a hash value.
double u01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Purpose tags for hash3 draws.
enum : std::uint64_t {
  kTagInitX = 1,
  kTagInitY = 2,
  kTagInitHeading = 3,
  kTagInitSpeed = 4,
  kTagCrowd = 5,
  kTagCrowdTile = 6,
  kTagOffline = 10,
  kTagTurn = 11,
  kTagHeading = 12,
};

enum EventKind : std::uint8_t {
  kEvOffline = 0,  ///< online->offline transition of an attached client
  kEvAttach = 1,   ///< re-attachment (cold-start window evaluated)
  kEvUpload = 2,   ///< steady-state upload progressed
  kEvPush = 3,     ///< proactive dispatcher push toward a predicted tile
  kEvLocal = 4,    ///< tile server down: the interval ran on the local fallback
};

/// Event flag bits.
enum : std::uint8_t {
  kFlagDegraded = 1,  ///< attach planned from stale telemetry (dropout tile)
};

/// One cross-shard exchange record. Phase A emits these in client-id order
/// per shard; phase B applies them in canonical client-id order.
struct Event {
  ClientId client = -1;
  std::uint8_t kind = kEvAttach;
  std::uint8_t cls = 0;        // attach classification: 0 hit/1 partial/2 miss
  std::uint8_t flags = 0;      // kFlag* bits
  std::uint16_t p0 = 0;        // cache prefix found at attach
  std::uint16_t p_end = 0;     // prefix after this interval / pushed prefix
  ServerId server = kNoServer; // attach target / upload server / push source
  ServerId peer = kNoServer;   // previous server / push target
  long long queries = 0;
  double latency_sum = 0.0;
};

/// Client disposition after the mobility stage of a Phase A block.
enum Disp : std::uint8_t {
  kDispNone = 0,     ///< offline (continuing, or went offline unattached)
  kDispOffline = 1,  ///< went offline while attached: emit kEvOffline
  kDispAttach = 2,   ///< tile changed: attach path
  kDispStay = 3,     ///< same server: steady upload / pushes
  kDispLocal = 4,    ///< tile server down: emit kEvLocal
};

/// Per-shard state: the phase A output buffer and the TTL wheel of the
/// shard's servers (all reused across intervals).
struct ShardBuf {
  std::vector<Event> events;
  long long offline = 0;        // client-intervals spent offline
  int disconnects = 0;          // offline windows opened
  // Block-stage scratch: one entry per client of the current block.
  std::vector<std::uint8_t> disp;
  std::vector<ServerId> prev;        // pre-offline server (kDispOffline only)
  std::vector<std::uint16_t> p0;     // cache probe result (kDispAttach only)
  std::vector<std::uint32_t> attach_idx;  // block indices with kDispAttach
  // Slot expire % wheel.size() lists the (server, client) pairs due then,
  // in queueing order, repeats included.
  std::vector<std::vector<std::pair<ServerId, ClientId>>> wheel;
  // The (server, client, prefix) entries the last expiry erased; filled
  // only while journaling.
  std::vector<std::tuple<ServerId, ClientId, std::uint16_t>> expired;
};

struct CacheEntry {
  std::uint16_t prefix = 0;
  std::int32_t expire = 0;  ///< meaningful only while the owner is detached
};

/// A push delivered onto a range's server from a source in another range.
struct CrossPush {
  ServerId source = kNoServer;
  ServerId target = kNoServer;
  Bytes bytes = 0;
};

/// One range of the Phase B walk: the servers [lo, hi) of a run of whole
/// shards. The walk writes the state of these servers only; the one write a
/// range makes on another's server, a push's uplink bytes and order on its
/// source, waits in the outbox for the fold after the walk. Aligned so that
/// ranges on different threads share no cache line.
struct alignas(64) ServerRange {
  ServerId lo = 0;
  ServerId hi = 0;
  // Per shard: the next event to read and the end of the shard's buffer.
  std::vector<std::pair<const Event*, const Event*>> head;
  std::vector<CrossPush> outbox;
  // admit()'s eviction candidates, (prefix, client).
  std::vector<std::pair<std::uint16_t, ClientId>> victims;

  bool owns(ServerId s) const { return s >= lo && s < hi; }
};

class ShardEngine {
 public:
  ShardEngine(const ShardWorld& world, const ShardRunOptions& options)
      : w_(world),
        cfg_(world.config),
        opt_(options),
        retry_(world.config.migration_retry, world.config.num_servers(),
               world.config.retry_queue_cap),
        traffic_(world.config.num_servers(), world.config.interval_s) {
    const auto n = static_cast<std::size_t>(cfg_.num_clients);
    const auto s = static_cast<std::size_t>(cfg_.num_servers());
    K_ = static_cast<int>(w_.canonical_order.size());
    x_.resize(n);
    y_.resize(n);
    heading_.resize(n);
    dirx_.resize(n);
    diry_.resize(n);
    speed_.resize(n);
    stream_.resize(n);
    server_.assign(n, kNoServer);
    prefix_.assign(n, 0);
    carry_.assign(n, 0);
    offline_until_.assign(n, 0);
    tile_.assign(n, 0);
    owner_.resize(n);
    cache_.resize(s);
    attached_.assign(s, 0);
    rows_.resize(s);
    budget_ = cfg_.cache_budget_bytes;
    cache_bytes_.assign(s, 0);
    if (budget_ > 0) resident_.resize(s);

    // Flash-crowd placement: with the knob on, a share of clients starts
    // packed into the hot tiles so that each hot tile holds ~multiplier×
    // the uniform per-tile population. Membership and tile choice use
    // dedicated hash tags, so a disabled knob reproduces the uniform layout
    // bit for bit.
    const auto& hot = w_.flash_crowd_hot_tiles;
    const bool crowd = !hot.empty() && cfg_.flash_crowd_multiplier > 1.0;
    const double crowd_share =
        crowd ? ((cfg_.flash_crowd_multiplier - 1.0) *
                 static_cast<double>(hot.size())) /
                    (static_cast<double>(cfg_.num_servers()) +
                     (cfg_.flash_crowd_multiplier - 1.0) *
                         static_cast<double>(hot.size()))
              : 0.0;

    for (std::size_t c = 0; c < n; ++c) {
      std::uint64_t seed_state =
          cfg_.seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(c) + 1));
      stream_[c] = splitmix64(seed_state);
      const std::uint64_t sub = stream_[c];
      if (crowd && u01(hash3(sub, kTagCrowd, 0)) < crowd_share) {
        const auto pick = hash3(sub, kTagCrowdTile, 0) %
                          static_cast<std::uint64_t>(hot.size());
        const Point centre =
            w_.server_centers[static_cast<std::size_t>(
                hot[static_cast<std::size_t>(pick)])];
        const double half = 0.6 * cfg_.cell_radius_m;  // inside the hex
        x_[c] = std::clamp(
            centre.x + (u01(hash3(sub, kTagInitX, 0)) * 2.0 - 1.0) * half,
            0.0, w_.width_m);
        y_[c] = std::clamp(
            centre.y + (u01(hash3(sub, kTagInitY, 0)) * 2.0 - 1.0) * half,
            0.0, w_.height_m);
      } else {
        x_[c] = u01(hash3(sub, kTagInitX, 0)) * w_.width_m;
        y_[c] = u01(hash3(sub, kTagInitY, 0)) * w_.height_m;
      }
      set_heading(static_cast<ClientId>(c),
                  u01(hash3(sub, kTagInitHeading, 0)) * kTwoPi);
      speed_[c] = cfg_.speed_min_mps +
                  u01(hash3(sub, kTagInitSpeed, 0)) *
                      (cfg_.speed_max_mps - cfg_.speed_min_mps);
      tile_[c] = w_.tile_at({x_[c], y_[c]});
    }

    num_shards_ = std::clamp(options.num_shards, 1, cfg_.num_servers());
    tile_shard_.assign(static_cast<std::size_t>(cfg_.num_servers()), 0);
    for (int sh = 0; sh < num_shards_; ++sh)
      for (ServerId tile = first_tile(sh); tile < first_tile(sh + 1); ++tile)
        tile_shard_[static_cast<std::size_t>(tile)] = sh;
    bufs_.resize(static_cast<std::size_t>(num_shards_));
    for (ShardBuf& buf : bufs_)
      buf.wheel.resize(static_cast<std::size_t>(cfg_.ttl_intervals) + 2);
    buckets_.resize(static_cast<std::size_t>(num_shards_));

    ft_ = FaultTimeline(cfg_.fault_plan, cfg_.num_servers(), cfg_.num_clients);
    // Local-fallback outcome of one full interval, evaluated once: the
    // local-only latency is level-independent, so every client that falls
    // back sees the same query count and latency sum.
    {
      const Seconds lat = w_.local_query_latency_s;
      Seconds clock = 0.0;
      while (clock + lat <= cfg_.interval_s &&
             local_queries_ < kMaxColdQueries) {
        ++local_queries_;
        clock += lat + cfg_.query_gap;
      }
      local_latency_sum_ = static_cast<double>(local_queries_) * lat;
    }

    build_attach_tables();
  }

  SimulationMetrics run();

 private:
  void set_heading(ClientId c, double heading) {
    heading_[static_cast<std::size_t>(c)] = heading;
    dirx_[static_cast<std::size_t>(c)] = std::cos(heading);
    diry_[static_cast<std::size_t>(c)] = std::sin(heading);
  }

  // -- phase A (parallel, pure w.r.t. shared state) --------------------------
  void build_attach_tables();
  void run_shard(std::size_t sh, int t);
  std::uint8_t stage_move(ClientId c, int t, ShardBuf& buf, ServerId& prev);
  void finish_client(ClientId c, std::uint8_t disp, ServerId offline_prev,
                     int probed_p0, int t, ShardBuf& buf);
  void emit_pushes(ClientId c, ServerId sid, int t, ShardBuf& buf);

  /// The first tile of shard `sh`; shard num_shards_ starts past the last.
  ServerId first_tile(int sh) const {
    return static_cast<ServerId>(static_cast<std::int64_t>(sh) *
                                 cfg_.num_servers() / num_shards_);
  }

  // -- phase B (server ranges in parallel, canonical client-id order) --------
  void phase_b(int t);
  void walk_range(ServerRange& r, int t);
  void attach(ServerRange& r, const Event& e, int t);
  void detach_from(ClientId c, ServerId sid, int t, std::int32_t reason);
  void cache_store(ServerRange& r, ServerId sid, ClientId c, int new_prefix,
                   int t);
  /// `sid`'s entry for `c`, created if absent, once prefix `p` is admitted
  /// over the entry's under the budget; `p` becomes the admitted prefix.
  CacheEntry& admit_entry(ServerRange& r, ServerId sid, ClientId c, int& p,
                          int t);
  int admit(ServerRange& r, ServerId sid, ClientId c, int old_prefix,
            int want, int t);
  void raise_prefix(ServerId sid, ClientId c, CacheEntry& entry, int p);
  void erase_entry(ServerId sid, ClientId c, int prefix);
  void schedule_expiry(ServerId sid, ClientId c, CacheEntry& entry,
                       int expire);
  bool spans_all(const ServerRange& r) const {
    return r.lo == 0 && r.hi == cfg_.num_servers();
  }
  /// The wheel slot of `sid`'s shard that fires at interval `expire`.
  std::vector<std::pair<ServerId, ClientId>>& wheel_slot(ServerId sid,
                                                         int expire) {
    auto& wheel =
        bufs_[static_cast<std::size_t>(
                  tile_shard_[static_cast<std::size_t>(sid)])]
            .wheel;
    return wheel[static_cast<std::size_t>(expire) % wheel.size()];
  }
  void expire_entries(int t);
  void finish_interval(int t);

  // -- fault machinery (serial; all no-ops on a fault-free run) --------------
  void fault_step(int t);
  void compute_shed();
  void apply_shed(const ServerRange& r, const Event& e, int t);
  void push_faulted(ServerRange& r, const Event& e, int t);
  int fit_link(ServerId source, ServerId target, double factor,
               int old_prefix, int want);
  void deliver_push(ServerRange& r, ClientId c, ServerId source,
                    ServerId target, int new_prefix, int t);
  // The retry rule of both engines (DESIGN.md §14).
  /// A failed first delivery toward prefix `want`: counted as deferred,
  /// then parked or dropped at once.
  void defer_push(ClientId c, ServerId source, ServerId target, int want,
                  Bytes bytes, int t);
  /// Parks `order` for its next attempt, or drops it when its attempt
  /// budget is spent or its source queue is full.
  void park_or_drop(PrefixRetryOrder order, int t);
  void drop_order(const PrefixRetryOrder& order, int t,
                  obs::DropReason reason);
  /// Re-attempts every parked order whose backoff elapsed, in (source,
  /// FIFO) order.
  void retry_deferred(ServerRange& r, int t);

  // -- checkpoint / resume ---------------------------------------------------
  void restore_from(const snapshot::SimSnapshot& snap);
  snapshot::SimSnapshot capture(int next_interval);
  void checkpoint(int t);

  void open_writers_fresh();
  void journal(obs::JournalEvent e) {
    if (jr_ != nullptr) jr_->record(e);
  }

  const ShardWorld& w_;
  const ShardWorldConfig& cfg_;
  const ShardRunOptions& opt_;
  int K_ = 0;  // canonical-order length; prefixes live in [0, K_]

  // SoA client store.
  std::vector<double> x_, y_, heading_, dirx_, diry_, speed_;
  std::vector<std::uint64_t> stream_;
  std::vector<ServerId> server_;
  std::vector<std::uint16_t> prefix_;
  std::vector<Bytes> carry_;
  std::vector<std::int32_t> offline_until_;
  std::vector<ServerId> tile_;

  // Server-side state (phase B only; phase A reads the frozen tables).
  std::vector<FlatMap32<CacheEntry>> cache_;
  std::vector<int> attached_;
  // Budgeted-cache state; inert when cfg_.cache_budget_bytes == 0. Resident
  // bytes per tile are maintained incrementally by every Phase B mutation,
  // so budget_ > 0 never touches Phase A.
  Bytes budget_ = 0;
  std::vector<Bytes> cache_bytes_;
  // Per tile, the sorted ids of the entries holding bytes (prefix > 0) —
  // the only possible eviction victims. Zero-prefix TTL placeholders and
  // attached owners fill most of a tile's table, so admit() walks this
  // index instead of the table. Every prefix change goes through
  // raise_prefix()/erase_entry(), which keep it and cache_bytes_ exact.
  std::vector<std::vector<ClientId>> resident_;

  // Attach-time lookup tables, filled once at construction: the cold-start
  // window outcome is a pure function of (load level, cached prefix p0) and
  // the first-interval upload advance of p0 alone — every input (latency
  // tables, prefix byte sums, interval length, uplink rate) is fixed at
  // world build. The fills run the exact loops the per-client path used to
  // run, so each cell is bit-identical to computing it at attach time.
  std::vector<long long> cold_queries_;   // (load-1) * (K_+1) + p0
  std::vector<double> cold_latency_;
  std::vector<std::uint16_t> attach_pe_;  // indexed by p0
  std::vector<Bytes> attach_carry_;

  // Sharding.
  int num_shards_ = 1;
  std::vector<int> tile_shard_;
  std::vector<std::vector<ClientId>> buckets_;
  std::vector<int> owner_;  // per client: the shard that ran it this interval
  std::vector<ShardBuf> bufs_;
  std::vector<ServerRange> ranges_;  // Phase B's split of the servers

  // Fault machinery (inert unless the config scripts a plan). Phase A reads
  // the timeline's flags, which only fault_step moves.
  FaultTimeline ft_;
  RetryQueue<std::uint16_t> retry_;
  // Degraded (stale-telemetry) cold tables, parallel to cold_queries_;
  // filled only when the plan scripts a telemetry dropout.
  std::vector<long long> dcold_queries_;
  std::vector<double> dcold_latency_;
  // Local-fallback outcome of one interval (identical for every client).
  long long local_queries_ = 0;
  double local_latency_sum_ = 0.0;
  // Clients refused by admission control this interval (sorted by id).
  std::vector<ClientId> shed_;

  // Per-interval accounting: the open interval's timeseries rows (one per
  // server) and the backhaul ledger.
  std::vector<obs::TimeseriesRow> rows_;
  TrafficAccountant traffic_;
  SimulationMetrics metrics_;

  std::unique_ptr<obs::TimeseriesStreamWriter> ts_;
  std::unique_ptr<obs::JournalStreamWriter> jr_;
  int start_interval_ = 0;
};

void ShardEngine::build_attach_tables() {
  const double up_rate = cfg_.wireless.uplink_bytes_per_sec;
  const auto uploaded = static_cast<Bytes>(cfg_.interval_s * up_rate);
  attach_pe_.resize(static_cast<std::size_t>(K_) + 1);
  attach_carry_.resize(static_cast<std::size_t>(K_) + 1);
  for (int p0 = 0; p0 <= K_; ++p0) {
    int pe = p0;
    while (pe < K_ &&
           w_.prefix_bytes[static_cast<std::size_t>(pe + 1)] -
                   w_.prefix_bytes[static_cast<std::size_t>(p0)] <=
               uploaded)
      ++pe;
    attach_pe_[static_cast<std::size_t>(p0)] = static_cast<std::uint16_t>(pe);
    attach_carry_[static_cast<std::size_t>(p0)] =
        pe < K_ ? uploaded - (w_.prefix_bytes[static_cast<std::size_t>(pe)] -
                              w_.prefix_bytes[static_cast<std::size_t>(p0)])
                : 0;
  }

  const auto num_levels = w_.levels.size();
  const auto fill_cold = [this, up_rate](const std::vector<Seconds>& latency,
                                         std::size_t level,
                                         std::vector<long long>& out_queries,
                                         std::vector<double>& out_latency) {
    for (int p0 = 0; p0 <= K_; ++p0) {
      double now = 0.0;
      long long queries = 0;
      double latency_sum = 0.0;
      int p = p0;
      while (queries < kMaxColdQueries) {
        while (p < K_ &&
               static_cast<double>(
                   w_.prefix_bytes[static_cast<std::size_t>(p + 1)] -
                   w_.prefix_bytes[static_cast<std::size_t>(p0)]) <=
                   now * up_rate)
          ++p;
        const Seconds lat = latency[static_cast<std::size_t>(p)];
        if (now + lat > cfg_.interval_s) break;
        ++queries;
        latency_sum += lat;
        now += lat + cfg_.query_gap;
      }
      const std::size_t cell =
          level * (static_cast<std::size_t>(K_) + 1) +
          static_cast<std::size_t>(p0);
      out_queries[cell] = queries;
      out_latency[cell] = latency_sum;
    }
  };
  cold_queries_.resize(num_levels * (static_cast<std::size_t>(K_) + 1));
  cold_latency_.resize(cold_queries_.size());
  for (std::size_t level = 0; level < num_levels; ++level)
    fill_cold(w_.levels[level].latency_by_prefix, level, cold_queries_,
              cold_latency_);
  if (num_levels > 0 && !w_.levels[0].degraded_latency_by_prefix.empty()) {
    dcold_queries_.resize(cold_queries_.size());
    dcold_latency_.resize(cold_latency_.size());
    for (std::size_t level = 0; level < num_levels; ++level)
      fill_cold(w_.levels[level].degraded_latency_by_prefix, level,
                dcold_queries_, dcold_latency_);
  }
}

std::uint8_t ShardEngine::stage_move(ClientId c, int t, ShardBuf& buf,
                                     ServerId& prev) {
  const auto ci = static_cast<std::size_t>(c);
  if (offline_until_[ci] > t) {
    ++buf.offline;
    return kDispNone;
  }
  if (ft_.client_offline(c)) {
    // Scripted disconnect window: the detach and the disconnect count were
    // handled by fault_step when the window opened. No churn/movement draws
    // are consumed, but the counter-based streams resume unshifted when the
    // window closes.
    ++buf.offline;
    return kDispNone;
  }
  const std::uint64_t sub = stream_[ci];
  const auto tick = static_cast<std::uint64_t>(t) + 1;
  if (cfg_.offline_probability > 0.0 &&
      u01(hash3(sub, kTagOffline, tick)) < cfg_.offline_probability) {
    ++buf.offline;
    ++buf.disconnects;
    offline_until_[ci] = t + cfg_.offline_intervals;
    prev = server_[ci];
    server_[ci] = kNoServer;
    prefix_[ci] = 0;
    carry_[ci] = 0;
    return prev != kNoServer ? kDispOffline : kDispNone;
  }

  // Random-walk move, reflecting off the world border.
  if (u01(hash3(sub, kTagTurn, tick)) < cfg_.turn_probability)
    set_heading(c, u01(hash3(sub, kTagHeading, tick)) * kTwoPi);
  const double step = speed_[ci] * cfg_.interval_s;
  double nx = x_[ci] + dirx_[ci] * step;
  double ny = y_[ci] + diry_[ci] * step;
  if (nx < 0.0 || nx > w_.width_m) {
    nx = std::clamp(nx, 0.0, w_.width_m);
    set_heading(c, std::atan2(diry_[ci], -dirx_[ci]));
  }
  if (ny < 0.0 || ny > w_.height_m) {
    ny = std::clamp(ny, 0.0, w_.height_m);
    set_heading(c, std::atan2(-diry_[ci], dirx_[ci]));
  }
  x_[ci] = nx;
  y_[ci] = ny;
  const ServerId sid = w_.tile_at({nx, ny});
  tile_[ci] = sid;
  if (ft_.server_down(sid)) {
    // The tile's server is down: the interval runs on the local fallback.
    prev = server_[ci];
    server_[ci] = kNoServer;
    prefix_[ci] = 0;
    carry_[ci] = 0;
    return kDispLocal;
  }
  return sid != server_[ci] ? kDispAttach : kDispStay;
}

void ShardEngine::finish_client(ClientId c, std::uint8_t disp,
                                ServerId offline_prev, int probed_p0, int t,
                                ShardBuf& buf) {
  const auto ci = static_cast<std::size_t>(c);
  if (disp == kDispOffline) {
    buf.events.push_back({.client = c,
                          .kind = kEvOffline,
                          .server = offline_prev});
    return;
  }
  const ServerId sid = tile_[ci];
  if (disp == kDispLocal) {
    buf.events.push_back({.client = c,
                          .kind = kEvLocal,
                          .server = sid,
                          .peer = offline_prev,
                          .queries = local_queries_,
                          .latency_sum = local_latency_sum_});
    return;
  }
  if (disp == kDispAttach) {
    // Re-attachment: the cold-start window and the first-interval upload
    // advance come straight from the precomputed (load, p0) tables.
    const int load = std::clamp(
        attached_[static_cast<std::size_t>(sid)] + 1, 1, cfg_.max_load_level);
    int p0 = 0;
    if (cfg_.policy == MigrationPolicy::kOptimal) {
      p0 = K_;
    } else if (cfg_.policy == MigrationPolicy::kProactive) {
      p0 = probed_p0;
    }
    const std::uint8_t cls = p0 >= K_ ? 0 : (p0 == 0 ? 2 : 1);
    const bool degraded = ft_.telemetry_down(sid);
    const std::size_t cell =
        static_cast<std::size_t>(load - 1) *
            (static_cast<std::size_t>(K_) + 1) +
        static_cast<std::size_t>(p0);
    const int pe = attach_pe_[static_cast<std::size_t>(p0)];
    carry_[ci] = attach_carry_[static_cast<std::size_t>(p0)];
    const ServerId prev = server_[ci];
    server_[ci] = sid;
    prefix_[ci] = static_cast<std::uint16_t>(pe);
    buf.events.push_back({.client = c,
                          .kind = kEvAttach,
                          .cls = cls,
                          .flags = static_cast<std::uint8_t>(
                              degraded ? kFlagDegraded : 0),
                          .p0 = static_cast<std::uint16_t>(p0),
                          .p_end = static_cast<std::uint16_t>(pe),
                          .server = sid,
                          .peer = prev,
                          .queries = degraded ? dcold_queries_[cell]
                                              : cold_queries_[cell],
                          .latency_sum = degraded ? dcold_latency_[cell]
                                                  : cold_latency_[cell]});
  } else if (prefix_[ci] < K_) {
    // Steady state at the same server: the incremental upload continues at
    // the wireless uplink rate.
    carry_[ci] += static_cast<Bytes>(cfg_.interval_s *
                                     cfg_.wireless.uplink_bytes_per_sec);
    int pe = prefix_[ci];
    while (pe < K_ &&
           carry_[ci] >= w_.prefix_bytes[static_cast<std::size_t>(pe + 1)] -
                             w_.prefix_bytes[static_cast<std::size_t>(pe)]) {
      carry_[ci] -= w_.prefix_bytes[static_cast<std::size_t>(pe + 1)] -
                    w_.prefix_bytes[static_cast<std::size_t>(pe)];
      ++pe;
    }
    if (pe > prefix_[ci]) {
      buf.events.push_back({.client = c,
                            .kind = kEvUpload,
                            .p0 = prefix_[ci],
                            .p_end = static_cast<std::uint16_t>(pe),
                            .server = sid});
      prefix_[ci] = static_cast<std::uint16_t>(pe);
      if (pe >= K_) carry_[ci] = 0;
    }
  }

  if (cfg_.policy == MigrationPolicy::kProactive && prefix_[ci] > 0)
    emit_pushes(c, sid, t, buf);
}

void ShardEngine::run_shard(std::size_t sh, int t) {
  // Cache-blocked Phase A: each block runs three stages — mobility for
  // every client, then the cache probes for the attach candidates (with the
  // flat-map home slots prefetched a few probes ahead), then an in-order
  // finish pass that emits events. Events still leave the buffer in strict
  // client-id order with each client's events contiguous, which the Phase B
  // walk depends on; only the work between event emissions is re-grouped.
  constexpr std::size_t kBlock = 256;
  constexpr std::size_t kLookahead = 8;
  ShardBuf& buf = bufs_[sh];
  const std::vector<ClientId>& bucket = buckets_[sh];
  for (std::size_t start = 0; start < bucket.size(); start += kBlock) {
    const std::size_t m = std::min(kBlock, bucket.size() - start);
    buf.disp.resize(m);
    buf.prev.assign(m, kNoServer);
    buf.p0.assign(m, 0);

    for (std::size_t i = 0; i < m; ++i)
      buf.disp[i] = stage_move(bucket[start + i], t, buf, buf.prev[i]);

    if (cfg_.policy == MigrationPolicy::kProactive) {
      buf.attach_idx.clear();
      for (std::size_t i = 0; i < m; ++i)
        if (buf.disp[i] == kDispAttach)
          buf.attach_idx.push_back(static_cast<std::uint32_t>(i));
      for (std::size_t j = 0; j < buf.attach_idx.size(); ++j) {
        if (j + kLookahead < buf.attach_idx.size()) {
          const ClientId pc = bucket[start + buf.attach_idx[j + kLookahead]];
          cache_[static_cast<std::size_t>(
                     tile_[static_cast<std::size_t>(pc)])]
              .prefetch(pc);
        }
        const std::size_t i = buf.attach_idx[j];
        const ClientId c = bucket[start + i];
        const CacheEntry* entry =
            cache_[static_cast<std::size_t>(
                       tile_[static_cast<std::size_t>(c)])]
                .find(c);
        if (entry != nullptr)
          buf.p0[i] =
              static_cast<std::uint16_t>(std::min<int>(entry->prefix, K_));
      }
    }

    for (std::size_t i = 0; i < m; ++i) {
      if (buf.disp[i] == kDispNone) continue;
      finish_client(bucket[start + i], buf.disp[i], buf.prev[i], buf.p0[i],
                    t, buf);
    }
  }
}

void ShardEngine::emit_pushes(ClientId c, ServerId sid, int /*t*/,
                              ShardBuf& buf) {
  const auto ci = static_cast<std::size_t>(c);
  // Linear dead-reckoning prediction one interval ahead. Pushes only fire
  // when the prediction crosses a tile boundary — staying put means the
  // current server already holds the layers.
  const double step = speed_[ci] * cfg_.interval_s;
  const Point predicted{std::clamp(x_[ci] + dirx_[ci] * step, 0.0, w_.width_m),
                        std::clamp(y_[ci] + diry_[ci] * step, 0.0,
                                   w_.height_m)};
  if (w_.tile_at(predicted) == sid) return;
  // Allocation-free equivalent of grid.cells_within(predicted, radius),
  // restricted to in-rectangle tiles (no wraparound) and excluding the
  // current server.
  const HexCoord origin = w_.grid.cell_at(predicted);
  const int steps = static_cast<int>(std::ceil(
                        cfg_.migration_radius_m /
                        (kSqrt3 * cfg_.cell_radius_m))) +
                    1;
  for (int dq = -steps; dq <= steps; ++dq) {
    for (int dr = -steps; dr <= steps; ++dr) {
      if (std::abs(dq + dr) > steps) continue;
      const HexCoord cell{origin.q + dq, origin.r + dr};
      if (distance(w_.grid.center(cell), predicted) > cfg_.migration_radius_m)
        continue;
      const int row = cell.r;
      const int col = cell.q + (cell.r - floor_mod2(cell.r)) / 2;
      if (row < 0 || row >= cfg_.tiles_y || col < 0 || col >= cfg_.tiles_x)
        continue;
      const ServerId target = static_cast<ServerId>(row) * cfg_.tiles_x + col;
      if (target == sid) continue;
      buf.events.push_back({.client = c,
                            .kind = kEvPush,
                            .p_end = prefix_[ci],
                            .server = sid,
                            .peer = target});
    }
  }
}

void ShardEngine::detach_from(ClientId c, ServerId sid, int t,
                              std::int32_t reason) {
  --attached_[static_cast<std::size_t>(sid)];
  if (cfg_.policy == MigrationPolicy::kProactive) {
    if (CacheEntry* entry = cache_[static_cast<std::size_t>(sid)].find(c))
      schedule_expiry(sid, c, *entry, t + cfg_.ttl_intervals);
  }
  journal({.interval = t,
           .kind = obs::JournalEventKind::kDetach,
           .client = c,
           .server = sid,
           .detail = reason});
}

void ShardEngine::schedule_expiry(ServerId sid, ClientId c, CacheEntry& entry,
                                  int expire) {
  if (expire > entry.expire) {
    entry.expire = expire;
    wheel_slot(sid, expire).push_back({sid, c});
  }
}

CacheEntry& ShardEngine::admit_entry(ServerRange& r, ServerId sid, ClientId c,
                                     int& p, int t) {
  auto& table = cache_[static_cast<std::size_t>(sid)];
  CacheEntry& entry = table[c];
  if (budget_ == 0 || p <= entry.prefix) return entry;
  p = admit(r, sid, c, entry.prefix, p, t);
  return table[c];  // an eviction may have moved the entry's slot
}

void ShardEngine::cache_store(ServerRange& r, ServerId sid, ClientId c,
                              int new_prefix, int t) {
  if (cfg_.policy != MigrationPolicy::kProactive) return;
  int p = new_prefix;
  CacheEntry& entry = admit_entry(r, sid, c, p, t);
  if (p < new_prefix && server_[static_cast<std::size_t>(c)] == sid) {
    // The owner's own store was trimmed: sync the SoA upload state back
    // down so the client keeps re-offering the refused suffix instead of
    // believing it is resident.
    prefix_[static_cast<std::size_t>(c)] = static_cast<std::uint16_t>(p);
    carry_[static_cast<std::size_t>(c)] = 0;
  }
  if (p > entry.prefix) {
    journal({.interval = t,
             .kind = obs::JournalEventKind::kCacheStore,
             .client = c,
             .server = sid,
             .bytes = w_.prefix_bytes[static_cast<std::size_t>(p)] -
                      w_.prefix_bytes[entry.prefix],
             .aux = p - entry.prefix});
    raise_prefix(sid, c, entry, p);
  }
}

void ShardEngine::raise_prefix(ServerId sid, ClientId c, CacheEntry& entry,
                               int p) {
  if (budget_ > 0) {
    const auto si = static_cast<std::size_t>(sid);
    cache_bytes_[si] += w_.prefix_bytes[static_cast<std::size_t>(p)] -
                        w_.prefix_bytes[entry.prefix];
    if (entry.prefix == 0) {
      auto& ids = resident_[si];
      ids.insert(std::lower_bound(ids.begin(), ids.end(), c), c);
    }
  }
  entry.prefix = static_cast<std::uint16_t>(p);
}

void ShardEngine::erase_entry(ServerId sid, ClientId c, int prefix) {
  const auto si = static_cast<std::size_t>(sid);
  if (budget_ > 0 && prefix > 0) {
    cache_bytes_[si] -= w_.prefix_bytes[static_cast<std::size_t>(prefix)];
    auto& ids = resident_[si];
    ids.erase(std::lower_bound(ids.begin(), ids.end(), c));
  }
  cache_[si].erase(c);
}

int ShardEngine::admit(ServerRange& r, ServerId sid, ClientId c,
                       int old_prefix, int want, int t) {
  // Budget admission for one tile cache, Phase B only. Evicts detached
  // entries — largest resident prefix first (the lowest marginal
  // latency-saved-per-byte on the shared concave latency-by-prefix curve),
  // ties to the highest client id — until the incoming delta fits, then
  // trims the admission to the longest prefix the remaining room allows.
  // Reads only this tile's state and server_, which only a shed writes in
  // Phase B, and a shed interval walks one range: it decides as the serial
  // walk would at every range count.
  const auto si = static_cast<std::size_t>(sid);
  const Bytes need = w_.prefix_bytes[static_cast<std::size_t>(want)] -
                     w_.prefix_bytes[static_cast<std::size_t>(old_prefix)];
  if (cache_bytes_[si] + need > budget_) {
    r.victims.clear();
    for (const ClientId vc : resident_[si]) {
      if (vc == c) continue;
      if (server_[static_cast<std::size_t>(vc)] == sid) continue;  // attached
      r.victims.emplace_back(cache_[si].find(vc)->prefix, vc);
    }
    std::sort(r.victims.begin(), r.victims.end(),
              [](const auto& a, const auto& b) { return b < a; });
    for (const auto& [vprefix, vc] : r.victims) {
      if (cache_bytes_[si] + need <= budget_) break;
      const Bytes vbytes = w_.prefix_bytes[static_cast<std::size_t>(vprefix)];
      erase_entry(sid, vc, vprefix);
      ++rows_[si].cache_evictions;
      journal({.interval = t,
               .kind = obs::JournalEventKind::kCacheEvict,
               .client = vc,
               .server = sid,
               .bytes = vbytes,
               .aux = vprefix});
    }
  }
  // Longest admissible prefix: prefix_bytes is non-decreasing, so the
  // prefixes in (old_prefix, want] that fit the remaining room form a
  // leading run, and its end is one binary search away.
  const auto& bytes = w_.prefix_bytes;
  const Bytes room = budget_ - cache_bytes_[si] +
                     bytes[static_cast<std::size_t>(old_prefix)];
  const auto fit_end = std::upper_bound(bytes.begin() + old_prefix + 1,
                                        bytes.begin() + want + 1, room);
  const int p = static_cast<int>(fit_end - bytes.begin()) - 1;
  if (p < want) {
    ++rows_[si].cache_partial_stores;
    journal({.interval = t,
             .kind = obs::JournalEventKind::kCachePartial,
             .client = c,
             .server = sid,
             .bytes = w_.prefix_bytes[static_cast<std::size_t>(want)] -
                      w_.prefix_bytes[static_cast<std::size_t>(p)],
             .aux = want - p});
  }
  return p;
}

void ShardEngine::phase_b(int t) {
  // One range holding every server walks in exactly the serial order. More
  // ranges apply the same events in parallel, which is byte-identical only
  // while no effect crosses ranges in an order-sensitive way (DESIGN.md §12):
  // journal records go to one file in client order, fault-path pushes share
  // the link ledger and the retry FIFOs, and a shed attach writes server_,
  // which admit() on every range reads. Inside another parallel region the
  // ranges would run one after another, so one range does the job once.
  const bool one_range = jr_ != nullptr || !ft_.empty() || !shed_.empty() ||
                         par::ThreadPool::on_worker_thread();
  const auto num_ranges = static_cast<std::size_t>(
      one_range ? 1 : std::min(par::num_threads(), num_shards_));
  if (ranges_.size() != num_ranges) {
    ranges_ = std::vector<ServerRange>(num_ranges);
    const auto shards = static_cast<std::size_t>(num_shards_);
    for (std::size_t i = 0; i < num_ranges; ++i) {
      ranges_[i].lo =
          first_tile(static_cast<int>(i * shards / num_ranges));
      ranges_[i].hi =
          first_tile(static_cast<int>((i + 1) * shards / num_ranges));
      ranges_[i].head.resize(shards);
    }
  }
  par::parallel_for(num_ranges,
                    [&](std::size_t i) { walk_range(ranges_[i], t); });
  if (!ft_.empty()) retry_deferred(ranges_.front(), t);

  // The fold: uplink bytes and orders of the pushes that crossed ranges.
  // Integer sums, so the order they land in does not matter.
  for (ServerRange& r : ranges_) {
    for (const CrossPush& push : r.outbox) {
      traffic_.record_transfer(push.source, push.target, push.bytes);
      ++rows_[static_cast<std::size_t>(push.source)].migration_orders;
    }
    r.outbox.clear();
  }
}

void ShardEngine::walk_range(ServerRange& r, int t) {
  for (ServerId s = r.lo; s < r.hi; ++s)
    rows_[static_cast<std::size_t>(s)] = {.interval = t, .server = s};
  // Canonical client-id order. Each client's events live contiguously in
  // exactly one shard's buffer, its owner's, so walking clients in id order
  // and draining the head of owner_[c]'s buffer reconstructs the global
  // order regardless of how tiles were sharded. Every range walks all of it
  // and keeps the events with an effect on its own servers, so each server
  // sees its own effects in the serial order. A push acts on its target, an
  // attach on its server and its previous server, any other event on its
  // server.
  for (std::size_t sh = 0; sh < bufs_.size(); ++sh) {
    const std::vector<Event>& events = bufs_[sh].events;
    r.head[sh] = {events.data(), events.data() + events.size()};
  }
  std::size_t c = 0;
  const auto next_event = [&]() -> const Event* {
    for (; c < owner_.size(); ++c) {
      auto& [next, end] = r.head[static_cast<std::size_t>(owner_[c])];
      while (next != end && next->client == static_cast<ClientId>(c)) {
        const Event& e = *next++;
        if (r.owns(e.peer) || (e.kind != kEvPush && r.owns(e.server)))
          return &e;
      }
    }
    return nullptr;
  };
  // The next kLookahead events wait in a ring. Each warms the cache-table
  // slots it will probe as it enters, so they have landed by the time it
  // applies.
  constexpr std::size_t kLookahead = 8;
  const auto warm = [this, &r](const Event* e) {
    if (e == nullptr) return;
    if (r.owns(e->peer))
      cache_[static_cast<std::size_t>(e->peer)].prefetch(e->client);
    if (e->kind != kEvPush && r.owns(e->server))
      cache_[static_cast<std::size_t>(e->server)].prefetch(e->client);
  };
  std::array<const Event*, kLookahead> ring{};
  for (const Event*& slot : ring) {
    slot = next_event();
    warm(slot);
  }
  const bool shedding = !shed_.empty();
  for (std::size_t i = 0;; i = (i + 1) % kLookahead) {
    const Event* ep = ring[i];
    if (ep == nullptr) break;  // the walk is done: every later slot is empty
    ring[i] = next_event();
    warm(ring[i]);
    const Event& e = *ep;
    if (shedding &&
        std::binary_search(shed_.begin(), shed_.end(), e.client)) {
      // Admission control refused this client's attach. Its pushes were
      // planned against an attach that never happened, so they drop with
      // it.
      if (e.kind == kEvAttach) apply_shed(r, e, t);
      continue;
    }
    switch (e.kind) {
      case kEvOffline:
        detach_from(e.client, e.server, t, obs::kDetachDisconnect);
        break;
      case kEvAttach:
        if (r.owns(e.peer)) detach_from(e.client, e.peer, t, obs::kDetachMoved);
        if (r.owns(e.server)) attach(r, e, t);
        break;
      case kEvUpload:
        cache_store(r, e.server, e.client, e.p_end, t);
        break;
      case kEvLocal: {
        // The fallback's latency is a floating-point sum across servers.
        PERDNN_CHECK_MSG(spans_all(r),
                         "local fallback in a multi-range Phase B walk");
        if (e.peer != kNoServer)
          detach_from(e.client, e.peer, t, obs::kDetachUnreachable);
        ++metrics_.unreachable_client_intervals;
        metrics_.local_fallback_queries += e.queries;
        metrics_.local_latency_sum_s += e.latency_sum;
        obs::TimeseriesRow& row = rows_[static_cast<std::size_t>(e.server)];
        row.local_queries += e.queries;
        row.local_latency_sum_s += e.latency_sum;
        if (e.queries > 0)
          journal({.interval = t,
                   .kind = obs::JournalEventKind::kLocalFallback,
                   .client = e.client,
                   .server = e.server,
                   .aux = static_cast<std::int32_t>(e.queries),
                   .value = e.latency_sum});
        break;
      }
      case kEvPush:
        if (ft_.backhaul_active() || ft_.server_down(e.peer)) {
          push_faulted(r, e, t);
        } else {
          deliver_push(r, e.client, e.server, e.peer, e.p_end, t);
        }
        break;
      default:
        PERDNN_CHECK_MSG(false, "unknown shard event kind");
    }
  }
}

void ShardEngine::attach(ServerRange& r, const Event& e, int t) {
  ++attached_[static_cast<std::size_t>(e.server)];
  obs::TimeseriesRow& row = rows_[static_cast<std::size_t>(e.server)];
  if (e.cls == 0) {
    ++row.hits;
  } else if (e.cls == 1) {
    ++row.partials;
  } else {
    ++row.misses;
  }
  row.cold_window_queries += e.queries;
  row.cold_latency_sum_s += e.latency_sum;
  const bool degraded = (e.flags & kFlagDegraded) != 0;
  if (degraded) ++row.degraded;
  if (jr_ != nullptr) {
    const std::uint64_t chain = jr_->begin_chain(e.client);
    jr_->record({.interval = t,
                 .kind = obs::JournalEventKind::kAttach,
                 .chain = chain,
                 .client = e.client,
                 .server = e.server,
                 .peer = e.peer});
    jr_->record({.interval = t,
                 .kind = degraded ? obs::JournalEventKind::kDegradedPlan
                                  : obs::JournalEventKind::kPlan,
                 .chain = chain,
                 .client = e.client,
                 .server = e.server,
                 .detail = e.cls == 0   ? obs::kPlanHit
                           : e.cls == 1 ? obs::kPlanPartial
                                        : obs::kPlanMiss,
                 .aux = K_ - e.p0});
    if (e.queries > 0)
      jr_->record({.interval = t,
                   .kind = obs::JournalEventKind::kColdServe,
                   .chain = chain,
                   .client = e.client,
                   .server = e.server,
                   .aux = static_cast<std::int32_t>(e.queries),
                   .value = e.latency_sum});
  }
  cache_store(r, e.server, e.client, e.p_end, t);
}

void ShardEngine::fault_step(int t) {
  if (ft_.empty()) return;
  // The flags Phase A reads move to this interval; the boundary records
  // precede the crash and disconnect consequences below.
  ft_.advance(t);
  if (jr_ != nullptr)
    for (const obs::JournalEvent& e : ft_.boundary_events(t)) jr_->record(e);

  // Crash starts: the server's cache is lost and every attached client
  // drops. One SoA pass buckets the dropped clients per crashed server so
  // the work below runs in (server, client-id) order.
  const std::vector<ServerId> crashes = ft_.crashes_starting_at(t);
  if (!crashes.empty()) {
    std::vector<std::vector<ClientId>> dropped(crashes.size());
    for (std::size_t c = 0; c < server_.size(); ++c) {
      const ServerId sv = server_[c];
      if (sv == kNoServer) continue;
      const auto it = std::lower_bound(crashes.begin(), crashes.end(), sv);
      if (it != crashes.end() && *it == sv)
        dropped[static_cast<std::size_t>(it - crashes.begin())].push_back(
            static_cast<ClientId>(c));
    }
    std::vector<std::pair<ClientId, std::uint16_t>> evicted;
    for (std::size_t i = 0; i < crashes.size(); ++i) {
      const ServerId sid = crashes[i];
      ++metrics_.server_failures;
      auto& entries = cache_[static_cast<std::size_t>(sid)];
      if (jr_ != nullptr && entries.size() > 0) {
        evicted.clear();
        entries.for_each([&evicted](ClientId c, const CacheEntry& entry) {
          evicted.emplace_back(c, entry.prefix);
        });
        std::sort(evicted.begin(), evicted.end());
        for (const auto& [c, prefix] : evicted)
          jr_->record({.interval = t,
                       .kind = obs::JournalEventKind::kCacheEvict,
                       .client = c,
                       .server = sid,
                       .aux = prefix});
      }
      entries.clear();
      if (budget_ > 0) {
        cache_bytes_[static_cast<std::size_t>(sid)] = 0;
        resident_[static_cast<std::size_t>(sid)].clear();
      }
      for (const ClientId c : dropped[i]) {
        detach_from(c, sid, t, obs::kDetachCrash);
        ++metrics_.failure_evictions;
        const auto ci = static_cast<std::size_t>(c);
        server_[ci] = kNoServer;
        prefix_[ci] = 0;
        carry_[ci] = 0;
      }
    }
  }

  // Disconnect starts: the client's own outage; detach if attached.
  for (const ClientId c : ft_.disconnects_starting_at(t)) {
    ++metrics_.client_disconnect_events;
    const auto ci = static_cast<std::size_t>(c);
    if (server_[ci] != kNoServer) {
      detach_from(c, server_[ci], t, obs::kDetachDisconnect);
      server_[ci] = kNoServer;
      prefix_[ci] = 0;
      carry_[ci] = 0;
    }
  }
}

void ShardEngine::compute_shed() {
  shed_.clear();
  if (cfg_.admission_max_attached <= 0) return;
  // Admission control: each server accepts at most admission_max_attached
  // clients, measured against its interval-start occupancy. The most
  // efficient attaches (highest cached prefix, ties to the lowest client
  // id) are kept; the rest shed to the local fallback.
  struct Cand {
    ServerId server;
    std::uint16_t p0;
    ClientId client;
  };
  std::vector<Cand> cand;
  for (const ShardBuf& buf : bufs_)
    for (const Event& e : buf.events)
      if (e.kind == kEvAttach) cand.push_back({e.server, e.p0, e.client});
  if (cand.empty()) return;
  std::sort(cand.begin(), cand.end(), [](const Cand& a, const Cand& b) {
    if (a.server != b.server) return a.server < b.server;
    if (a.p0 != b.p0) return a.p0 > b.p0;
    return a.client < b.client;
  });
  std::size_t i = 0;
  while (i < cand.size()) {
    std::size_t j = i;
    while (j < cand.size() && cand[j].server == cand[i].server) ++j;
    const auto capacity = static_cast<std::size_t>(std::max(
        0, cfg_.admission_max_attached -
               attached_[static_cast<std::size_t>(cand[i].server)]));
    for (std::size_t k = i + capacity; k < j; ++k)
      shed_.push_back(cand[k].client);
    i = j;
  }
  std::sort(shed_.begin(), shed_.end());
}

void ShardEngine::apply_shed(const ServerRange& r, const Event& e, int t) {
  // Admission control refused this attach: undo Phase A's speculative SoA
  // write and run the interval on the local fallback instead.
  PERDNN_CHECK_MSG(spans_all(r), "shed attach in a multi-range Phase B walk");
  const auto ci = static_cast<std::size_t>(e.client);
  server_[ci] = kNoServer;
  prefix_[ci] = 0;
  carry_[ci] = 0;
  if (e.peer != kNoServer) detach_from(e.client, e.peer, t, obs::kDetachMoved);
  ++metrics_.attaches_shed;
  ++metrics_.unreachable_client_intervals;
  metrics_.local_fallback_queries += local_queries_;
  metrics_.local_latency_sum_s += local_latency_sum_;
  obs::TimeseriesRow& row = rows_[static_cast<std::size_t>(e.server)];
  row.local_queries += local_queries_;
  row.local_latency_sum_s += local_latency_sum_;
  if (jr_ != nullptr) {
    const std::uint64_t chain = jr_->begin_chain(e.client);
    jr_->record({.interval = t,
                 .kind = obs::JournalEventKind::kAttachShed,
                 .chain = chain,
                 .client = e.client,
                 .server = e.server,
                 .peer = e.peer,
                 .detail = attached_[static_cast<std::size_t>(e.server)],
                 .aux = e.p0});
    if (local_queries_ > 0)
      jr_->record({.interval = t,
                   .kind = obs::JournalEventKind::kLocalFallback,
                   .chain = chain,
                   .client = e.client,
                   .server = e.server,
                   .aux = static_cast<std::int32_t>(local_queries_),
                   .value = local_latency_sum_});
  }
}

void ShardEngine::push_faulted(ServerRange& r, const Event& e, int t) {
  // Fault-path push: the target may be down, or a backhaul event may cap or
  // sever the link. Mirrors the trace-replay engine's push_layers: already
  // present layers cost nothing, a capacity too small for even one layer
  // defers the whole order (and skips the TTL refresh — nothing crossed),
  // a partial fit delivers the prefix that fits and parks the remainder as
  // a fresh order.
  PERDNN_CHECK_MSG(spans_all(r), "faulted push in a multi-range Phase B walk");
  const CacheEntry* cur =
      cache_[static_cast<std::size_t>(e.peer)].find(e.client);
  const int old_prefix = cur != nullptr ? cur->prefix : 0;
  const int want = e.p_end;
  const Bytes bytes_needed =
      want > old_prefix
          ? w_.prefix_bytes[static_cast<std::size_t>(want)] -
                w_.prefix_bytes[static_cast<std::size_t>(old_prefix)]
          : 0;
  const double factor = ft_.backhaul_factor(e.server, e.peer);
  if (ft_.server_down(e.peer) || factor <= 0.0) {
    if (bytes_needed > 0)
      defer_push(e.client, e.server, e.peer, want, bytes_needed, t);
    return;
  }
  int p = want;
  if (factor < 1.0 && bytes_needed > 0) {
    p = fit_link(e.server, e.peer, factor, old_prefix, want);
    if (p == old_prefix) {
      ++metrics_.migrations_truncated;
      defer_push(e.client, e.server, e.peer, want, bytes_needed, t);
      return;
    }
  }
  deliver_push(r, e.client, e.server, e.peer, p, t);
  if (p < want)
    defer_push(e.client, e.server, e.peer, want,
               w_.prefix_bytes[static_cast<std::size_t>(want)] -
                   w_.prefix_bytes[static_cast<std::size_t>(p)],
               t);
}

int ShardEngine::fit_link(ServerId source, ServerId target, double factor,
                          int old_prefix, int want) {
  // The longest canonical prefix in [old_prefix, want] that fits what the
  // degraded link has left this interval; its bytes go on the ledger.
  const auto cap = static_cast<Bytes>(factor * cfg_.backhaul_bytes_per_sec *
                                      cfg_.interval_s);
  Bytes& used = ft_.link_used(source, target);
  const Bytes base = w_.prefix_bytes[static_cast<std::size_t>(old_prefix)];
  int p = old_prefix;
  while (p < want &&
         used + (w_.prefix_bytes[static_cast<std::size_t>(p + 1)] - base) <=
             cap)
    ++p;
  used += w_.prefix_bytes[static_cast<std::size_t>(p)] - base;
  return p;
}

void ShardEngine::deliver_push(ServerRange& r, ClientId c, ServerId source,
                               ServerId target, int new_prefix, int t) {
  int p = new_prefix;
  CacheEntry& entry = admit_entry(r, target, c, p, t);
  const int old_prefix = entry.prefix;
  const Bytes bytes =
      p > old_prefix
          ? w_.prefix_bytes[static_cast<std::size_t>(p)] -
                w_.prefix_bytes[static_cast<std::size_t>(old_prefix)]
          : 0;
  if (p > old_prefix) raise_prefix(target, c, entry, p);
  schedule_expiry(target, c, entry, t + cfg_.ttl_intervals);
  if (r.owns(source)) {
    traffic_.record_transfer(source, target, bytes);
    ++rows_[static_cast<std::size_t>(source)].migration_orders;
  } else {
    r.outbox.push_back({.source = source, .target = target, .bytes = bytes});
  }
  journal({.interval = t,
           .kind = obs::JournalEventKind::kMigrationPushed,
           .client = c,
           .server = source,
           .peer = target,
           .bytes = bytes,
           .aux = std::max(0, p - old_prefix)});
}

void ShardEngine::defer_push(ClientId c, ServerId source, ServerId target,
                             int want, Bytes bytes, int t) {
  ++metrics_.migrations_deferred;
  metrics_.deferred_migration_bytes += bytes;
  rows_[static_cast<std::size_t>(source)].deferred_bytes += bytes;
  park_or_drop({.client = c,
                .source = source,
                .target = target,
                .payload = static_cast<std::uint16_t>(want),
                .bytes = bytes},
               t);
}

void ShardEngine::park_or_drop(PrefixRetryOrder order, int t) {
  if (const auto reason = retry_.try_park(order, t)) {
    drop_order(order, t, *reason);
    return;
  }
  journal({.interval = t,
           .kind = obs::JournalEventKind::kMigrationDeferred,
           .client = order.client,
           .server = order.source,
           .peer = order.target,
           .bytes = order.bytes,
           .detail = order.attempts,
           .aux = order.next_attempt_interval});
}

void ShardEngine::drop_order(const PrefixRetryOrder& order, int t,
                             obs::DropReason reason) {
  ++metrics_.migrations_abandoned;
  metrics_.abandoned_migration_bytes += order.bytes;
  journal({.interval = t,
           .kind = obs::JournalEventKind::kMigrationDropped,
           .client = order.client,
           .server = order.source,
           .peer = order.target,
           .bytes = order.bytes,
           .detail = order.attempts,
           .aux = reason});
}

void ShardEngine::retry_deferred(ServerRange& r, int t) {
  for (const PrefixRetryOrder& order : retry_.take_due(t)) {
    ++metrics_.migration_retries;
    journal({.interval = t,
             .kind = obs::JournalEventKind::kMigrationRetried,
             .client = order.client,
             .server = order.source,
             .peer = order.target,
             .bytes = order.bytes,
             .detail = order.attempts});
    if (ft_.server_down(order.source) || ft_.server_down(order.target)) {
      park_or_drop(order, t);
      continue;
    }
    const CacheEntry* cur =
        cache_[static_cast<std::size_t>(order.target)].find(order.client);
    const int old_prefix = cur != nullptr ? cur->prefix : 0;
    const int want = order.payload;
    if (want <= old_prefix) {
      // The layers arrived by other means while the order was parked.
      journal({.interval = t,
               .kind = obs::JournalEventKind::kMigrationDropped,
               .client = order.client,
               .server = order.source,
               .peer = order.target,
               .bytes = order.bytes,
               .detail = order.attempts,
               .aux = obs::kDropDissolved});
      continue;
    }
    const double factor = ft_.backhaul_factor(order.source, order.target);
    int p = want;
    if (factor < 1.0)
      p = factor > 0.0 ? fit_link(order.source, order.target, factor,
                                  old_prefix, want)
                       : old_prefix;
    if (p == old_prefix) {
      park_or_drop(order, t);
      continue;
    }
    deliver_push(r, order.client, order.source, order.target, p, t);
    if (p < want)
      defer_push(order.client, order.source, order.target, want,
                 w_.prefix_bytes[static_cast<std::size_t>(want)] -
                     w_.prefix_bytes[static_cast<std::size_t>(p)],
                 t);
  }
}

void ShardEngine::expire_entries(int t) {
  // Every shard expires its own servers' due entries in parallel: it writes
  // only those servers' cache_, cache_bytes_ and resident_, and reads
  // server_, which nothing writes during finish. The slot is walked as
  // queued, unsorted and with repeats, because erase order is unobservable:
  // the tables' contents after expiry do not depend on it, FlatMap32 slot
  // layout never reaches an output (the snapshot capture and the crash wipe
  // both sort), and a repeated pair finds nothing the second time. Only the
  // journal needs an order. Each shard sorts the entries it erased by
  // (server, client); shards are ascending contiguous tile ranges, so
  // recording their lists in shard order is the global (server, client)
  // order at any shard or thread count, and after a resume.
  const bool journaling = jr_ != nullptr;
  par::parallel_for(bufs_.size(), [&](std::size_t sh) {
    ShardBuf& buf = bufs_[sh];
    auto& slot = buf.wheel[static_cast<std::size_t>(t) % buf.wheel.size()];
    buf.expired.clear();
    for (const auto& [sid, c] : slot) {
      const CacheEntry* entry = cache_[static_cast<std::size_t>(sid)].find(c);
      if (entry == nullptr) continue;
      if (server_[static_cast<std::size_t>(c)] == sid) continue;  // kept alive
      if (entry->expire > t) continue;  // refreshed since queued
      if (journaling) buf.expired.emplace_back(sid, c, entry->prefix);
      erase_entry(sid, c, entry->prefix);
    }
    slot.clear();
    std::sort(buf.expired.begin(), buf.expired.end());
  });
  if (!journaling) return;
  for (const ShardBuf& buf : bufs_)
    for (const auto& [sid, c, prefix] : buf.expired)
      jr_->record({.interval = t,
                   .kind = obs::JournalEventKind::kCacheExpire,
                   .client = c,
                   .server = sid,
                   .aux = prefix});
}

void ShardEngine::finish_interval(int t) {
  expire_entries(t);

  for (const ShardBuf& buf : bufs_) {
    metrics_.offline_client_intervals += buf.offline;
  }

  Bytes resident_total = 0;
  for (int s = 0; s < cfg_.num_servers(); ++s) {
    const auto si = static_cast<std::size_t>(s);
    obs::TimeseriesRow& row = rows_[si];
    if (budget_ > 0) {
      PERDNN_CHECK_MSG(cache_bytes_[si] <= budget_,
                       "cache budget invariant violated on server " << s);
      // The resident index is exact: each id names a live entry holding
      // bytes, and together they hold the tile's resident bytes.
      Bytes indexed = 0;
      for (const ClientId c : resident_[si]) {
        const CacheEntry* entry = cache_[si].find(c);
        PERDNN_CHECK_MSG(entry != nullptr && entry->prefix > 0,
                         "resident index names client "
                             << c << " without cached bytes on server " << s);
        indexed += w_.prefix_bytes[entry->prefix];
      }
      PERDNN_CHECK_MSG(indexed == cache_bytes_[si],
                       "resident index holds " << indexed << " bytes, cache "
                                               << cache_bytes_[si]
                                               << " on server " << s);
      resident_total += cache_bytes_[si];
      row.cache_bytes = cache_bytes_[si];
    }
    row.attached = attached_[si];
    row.uplink_bytes = traffic_.uplink_bytes(s);
    row.downlink_bytes = traffic_.downlink_bytes(s);
    // The counters with a column here are its sums: a Phase B range writes
    // only its own servers' rows, and integer sums take any order. Every
    // delivered byte lands on exactly one server's downlink.
    metrics_.attached_client_intervals += row.attached;
    metrics_.server_changes += row.hits + row.partials + row.misses;
    metrics_.hits += row.hits;
    metrics_.partials += row.partials;
    metrics_.misses += row.misses;
    metrics_.cold_window_queries += row.cold_window_queries;
    metrics_.degraded_attaches += row.degraded;
    metrics_.cache_evictions += row.cache_evictions;
    metrics_.cache_partial_stores += row.cache_partial_stores;
    metrics_.total_migrated_bytes += row.downlink_bytes;
    if (ts_ != nullptr) ts_->append(row);
  }
  traffic_.end_interval();
  if (budget_ > 0)
    metrics_.peak_cache_bytes =
        std::max(metrics_.peak_cache_bytes, resident_total);
  if (!ft_.empty())
    metrics_.peak_deferred_backlog_bytes = std::max(
        metrics_.peak_deferred_backlog_bytes, retry_.backlog_bytes());
}

void ShardEngine::open_writers_fresh() {
  if (!opt_.timeseries_path.empty())
    ts_ = std::make_unique<obs::TimeseriesStreamWriter>(
        opt_.timeseries_path, w_.model.name(), budget_ > 0);
  if (!opt_.journal_path.empty())
    jr_ = std::make_unique<obs::JournalStreamWriter>(opt_.journal_path);
}

void ShardEngine::restore_from(const snapshot::SimSnapshot& snap) {
  if (!snap.has_shard)
    throw snapshot::SnapshotError(
        "snapshot: not a sharded-world checkpoint");
  if (snap.version < 7)
    throw snapshot::SnapshotError(
        "snapshot: version " + std::to_string(snap.version) +
        " sharded checkpoint cannot resume: it keeps backhaul peaks in Mbps "
        "and the busiest interval only as a 100 Mbps share, and the version "
        "7 traffic summary needs per-server bytes");
  if (snap.config_fingerprint != shard_config_fingerprint(cfg_))
    throw snapshot::SnapshotError(
        "snapshot: config fingerprint mismatch (different scenario)");
  if (snap.num_intervals != cfg_.num_intervals)
    throw snapshot::SnapshotError("snapshot: interval count mismatch");
  const auto n = static_cast<std::size_t>(cfg_.num_clients);
  const snapshot::ShardSimState& s = snap.shard;
  if (s.x.size() != n || s.y.size() != n || s.heading.size() != n ||
      s.server.size() != n || s.prefix.size() != n || s.carry.size() != n ||
      s.offline_until.size() != n)
    throw snapshot::SnapshotError("snapshot: client array size mismatch");
  if (s.entry_server.size() != s.entry_client.size() ||
      s.entry_server.size() != s.entry_expire.size() ||
      s.entry_server.size() != s.entry_prefix.size())
    throw snapshot::SnapshotError("snapshot: cache entry arrays misaligned");
  if (!snap.traffic.has_width(static_cast<std::size_t>(cfg_.num_servers())))
    throw snapshot::SnapshotError(
        "snapshot: traffic summary width does not match the server count");
  if (!opt_.timeseries_path.empty() != snap.has_timeseries)
    throw snapshot::SnapshotError(
        "snapshot: timeseries recording mismatch between checkpointed and "
        "resumed run");
  if (!opt_.journal_path.empty() != snap.has_journal)
    throw snapshot::SnapshotError(
        "snapshot: journal recording mismatch between checkpointed and "
        "resumed run");
  // The journal writer keeps chains in a vector indexed by client, so an
  // unchecked id would size it.
  for (const auto& [client, chain] : s.client_chains)
    if (client < 0 || client >= cfg_.num_clients)
      throw snapshot::SnapshotError(
          "snapshot: journal chain bound to client " + std::to_string(client) +
          ", outside the world's clients");
  // Moves clamp every position to the world rectangle, and tile_at() casts
  // one to int; a heading feeds the next move; prefixes index prefix_bytes.
  for (std::size_t c = 0; c < n; ++c)
    if (!(s.x[c] >= 0.0 && s.x[c] <= w_.width_m && s.y[c] >= 0.0 &&
          s.y[c] <= w_.height_m) ||
        !std::isfinite(s.heading[c]) ||
        s.prefix[c] > static_cast<std::uint32_t>(K_))
      throw snapshot::SnapshotError(
          "snapshot: client " + std::to_string(c) +
          " has a position outside the world, a non-finite heading or a "
          "prefix out of range");

  x_ = s.x;
  y_ = s.y;
  for (std::size_t c = 0; c < n; ++c) set_heading(static_cast<ClientId>(c),
                                                  s.heading[c]);
  server_ = s.server;
  for (std::size_t c = 0; c < n; ++c)
    prefix_[c] = static_cast<std::uint16_t>(s.prefix[c]);
  carry_ = s.carry;
  offline_until_ = s.offline_until;

  std::fill(attached_.begin(), attached_.end(), 0);
  for (std::size_t c = 0; c < n; ++c) {
    tile_[c] = w_.tile_at({x_[c], y_[c]});
    if (server_[c] != kNoServer) {
      const auto sid = static_cast<std::size_t>(server_[c]);
      if (sid >= attached_.size())
        throw snapshot::SnapshotError("snapshot: server id out of range");
      ++attached_[sid];
    }
  }

  for (auto& entries : cache_) entries.clear();
  for (auto& ids : resident_) ids.clear();
  for (ShardBuf& buf : bufs_)
    for (auto& slot : buf.wheel) slot.clear();
  // Resident bytes and the resident index are a pure function of the
  // restored prefixes — rebuilt rather than stored, so pre-v5 checkpoints
  // restore exactly too.
  std::fill(cache_bytes_.begin(), cache_bytes_.end(), 0);
  const int start = snap.next_interval;
  // A checkpoint taken after interval start - 1 holds no expiry past
  // start - 1 + ttl, since each is set to now + ttl, and none of its
  // detached entries is due before start, since an entry is erased in the
  // interval it falls due. An entry outside those bounds would sit in no
  // wheel slot that fires and stay cached for the rest of the run.
  const long long latest_expire =
      static_cast<long long>(start) - 1 + cfg_.ttl_intervals;
  for (std::size_t i = 0; i < s.entry_server.size(); ++i) {
    const auto sid = s.entry_server[i];
    const auto c = s.entry_client[i];
    if (sid < 0 || sid >= cfg_.num_servers() || c < 0 ||
        c >= cfg_.num_clients)
      throw snapshot::SnapshotError("snapshot: cache entry out of range");
    if (i > 0 && std::pair(sid, c) <= std::pair(s.entry_server[i - 1],
                                                s.entry_client[i - 1]))
      throw snapshot::SnapshotError(
          "snapshot: cache entries not in (server, client) order");
    if (s.entry_prefix[i] > static_cast<std::uint32_t>(K_))
      throw snapshot::SnapshotError("snapshot: cache prefix out of range");
    const bool detached = server_[static_cast<std::size_t>(c)] != sid;
    if (s.entry_expire[i] > latest_expire ||
        (detached && s.entry_expire[i] < start))
      throw snapshot::SnapshotError(
          "snapshot: cache entry expiry out of range (server " +
          std::to_string(sid) + ", client " + std::to_string(c) +
          ", expire " + std::to_string(s.entry_expire[i]) +
          ", next interval " + std::to_string(start) + ")");
    const auto prefix = static_cast<int>(s.entry_prefix[i]);
    CacheEntry& entry = cache_[static_cast<std::size_t>(sid)][c];
    entry.expire = s.entry_expire[i];
    if (prefix > 0) raise_prefix(sid, c, entry, prefix);
    if (detached) wheel_slot(sid, entry.expire).push_back({sid, c});
  }

  traffic_.restore(snap.traffic);
  metrics_ = snap.metrics;
  start_interval_ = snap.next_interval;

  const std::size_t nr = s.retry_client.size();
  if (s.retry_source.size() != nr || s.retry_target.size() != nr ||
      s.retry_prefix.size() != nr || s.retry_bytes.size() != nr ||
      s.retry_attempts.size() != nr || s.retry_next_attempt.size() != nr)
    throw snapshot::SnapshotError(
        "snapshot: retry-queue arrays misaligned");
  // A parked order has attempts left, and its bytes are part of the
  // canonical prefix it wants.
  std::vector<PrefixRetryOrder> orders;
  orders.reserve(nr);
  for (std::size_t i = 0; i < nr; ++i) {
    if (s.retry_source[i] < 0 || s.retry_source[i] >= cfg_.num_servers() ||
        s.retry_target[i] < 0 || s.retry_target[i] >= cfg_.num_servers() ||
        s.retry_client[i] < 0 || s.retry_client[i] >= cfg_.num_clients ||
        s.retry_prefix[i] > static_cast<std::uint32_t>(K_) ||
        s.retry_bytes[i] < 0 ||
        s.retry_bytes[i] > w_.prefix_bytes[s.retry_prefix[i]] ||
        s.retry_attempts[i] < 1 || retry_.budget_spent(s.retry_attempts[i]))
      throw snapshot::SnapshotError("snapshot: retry order out of range");
    orders.push_back({.client = s.retry_client[i],
                      .source = s.retry_source[i],
                      .target = s.retry_target[i],
                      .payload = static_cast<std::uint16_t>(s.retry_prefix[i]),
                      .bytes = s.retry_bytes[i],
                      .attempts = s.retry_attempts[i],
                      .next_attempt_interval = s.retry_next_attempt[i]});
  }
  retry_.restore(orders);
  ft_.seek(start);

  if (!opt_.timeseries_path.empty())
    ts_ = std::make_unique<obs::TimeseriesStreamWriter>(
        opt_.timeseries_path, obs::Resume{s.timeseries_bytes},
        s.timeseries_rows, budget_ > 0);
  if (!opt_.journal_path.empty()) {
    std::vector<std::pair<ClientId, std::uint64_t>> chains;
    chains.reserve(s.client_chains.size());
    for (const auto& [client, chain] : s.client_chains)
      chains.emplace_back(client, chain);
    jr_ = std::make_unique<obs::JournalStreamWriter>(
        opt_.journal_path, obs::Resume{s.journal_bytes}, s.journal_events,
        s.journal_next_chain, chains);
  }
}

snapshot::SimSnapshot ShardEngine::capture(int next_interval) {
  if (ts_ != nullptr) ts_->flush();
  if (jr_ != nullptr) jr_->flush();
  snapshot::SimSnapshot snap;
  snap.config_fingerprint = shard_config_fingerprint(cfg_);
  snap.next_interval = next_interval;
  snap.num_intervals = cfg_.num_intervals;
  snap.metrics = metrics_;
  snap.has_timeseries = ts_ != nullptr;
  snap.has_journal = jr_ != nullptr;
  snap.has_shard = true;
  snapshot::ShardSimState& s = snap.shard;
  s.x = x_;
  s.y = y_;
  s.heading = heading_;
  s.server = server_;
  s.prefix.assign(prefix_.begin(), prefix_.end());
  s.carry = carry_;
  s.offline_until = offline_until_;
  std::size_t total_entries = 0;
  for (const auto& entries : cache_) total_entries += entries.size();
  s.entry_server.reserve(total_entries);
  s.entry_client.reserve(total_entries);
  s.entry_expire.reserve(total_entries);
  s.entry_prefix.reserve(total_entries);
  std::vector<std::pair<ClientId, CacheEntry>> sorted;
  for (int sid = 0; sid < cfg_.num_servers(); ++sid) {
    const auto& entries = cache_[static_cast<std::size_t>(sid)];
    sorted.clear();
    sorted.reserve(entries.size());
    entries.for_each([&sorted](ClientId c, const CacheEntry& entry) {
      sorted.emplace_back(c, entry);
    });
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [c, entry] : sorted) {
      s.entry_server.push_back(sid);
      s.entry_client.push_back(c);
      s.entry_expire.push_back(entry.expire);
      s.entry_prefix.push_back(entry.prefix);
    }
  }
  snap.traffic = traffic_.state();
  for (const PrefixRetryOrder& order : retry_.flatten()) {
    s.retry_client.push_back(order.client);
    s.retry_source.push_back(order.source);
    s.retry_target.push_back(order.target);
    s.retry_prefix.push_back(order.payload);
    s.retry_bytes.push_back(order.bytes);
    s.retry_attempts.push_back(order.attempts);
    s.retry_next_attempt.push_back(order.next_attempt_interval);
  }
  if (ts_ != nullptr) {
    s.timeseries_bytes = ts_->bytes_written();
    s.timeseries_rows = ts_->rows_written();
  }
  if (jr_ != nullptr) {
    s.journal_bytes = jr_->bytes_written();
    s.journal_events = jr_->events_written();
    s.journal_next_chain = jr_->next_chain();
    for (const auto& [client, chain] : jr_->client_chains())
      s.client_chains.emplace_back(client, chain);
  }
  return snap;
}

void ShardEngine::checkpoint(int t) {
  snapshot::SimSnapshot snap = capture(t + 1);
  if (!opt_.checkpoint_path.empty())
    snapshot::save(snap, opt_.checkpoint_path);
  if (opt_.capture_out != nullptr) *opt_.capture_out = std::move(snap);
}

SimulationMetrics ShardEngine::run() {
  if (opt_.resume_from != nullptr) {
    restore_from(*opt_.resume_from);  // opens the writers at the offsets
  } else {
    open_writers_fresh();
  }
  if (opt_.interval_wall_s != nullptr) opt_.interval_wall_s->clear();

  double tm_bucket = 0, tm_phase_a = 0, tm_apply = 0, tm_finish = 0;
  const auto now = [] { return std::chrono::steady_clock::now(); };
  const auto secs = [](auto a, auto b) {
    return std::chrono::duration<double>(b - a).count();
  };
  const auto n = static_cast<std::size_t>(cfg_.num_clients);
  for (int t = start_interval_; t < cfg_.num_intervals; ++t) {
    const auto wall_start = std::chrono::steady_clock::now();

    // Scripted fault boundaries first: crashes wipe caches and drop
    // clients, and the window flags Phase A reads advance to this interval.
    fault_step(t);

    // Ownership: the shard of the tile each client stood on at the
    // interval start. Buckets stay sorted by client id by construction.
    auto t0 = now();
    for (auto& bucket : buckets_) bucket.clear();
    for (std::size_t c = 0; c < n; ++c) {
      const int sh = tile_shard_[static_cast<std::size_t>(tile_[c])];
      owner_[c] = sh;
      buckets_[static_cast<std::size_t>(sh)].push_back(
          static_cast<ClientId>(c));
    }

    // Phase A: pure per-shard walks against frozen shared state.
    for (auto& buf : bufs_) {
      buf.events.clear();
      buf.offline = 0;
      buf.disconnects = 0;
    }
    auto t1 = now();
    tm_bucket += secs(t0, t1);
    par::parallel_for(bufs_.size(), [&](std::size_t sh) { run_shard(sh, t); });
    auto t2 = now();
    tm_phase_a += secs(t1, t2);

    // Phase B: canonical-order exchange and every shared-state mutation.
    for (const ShardBuf& buf : bufs_)
      metrics_.client_disconnect_events += buf.disconnects;
    compute_shed();
    phase_b(t);
    auto t3 = now();
    tm_apply += secs(t2, t3);
    finish_interval(t);
    tm_finish += secs(t3, now());

    if (opt_.interval_wall_s != nullptr) {
      const std::chrono::duration<double> wall =
          std::chrono::steady_clock::now() - wall_start;
      opt_.interval_wall_s->push_back(wall.count());
    }

    const bool periodic =
        opt_.checkpoint_every > 0 && (t + 1) % opt_.checkpoint_every == 0;
    const bool stopping = opt_.stop_after_interval == t;
    if (periodic || stopping) checkpoint(t);
    if (stopping) break;
  }

  if (std::getenv("PERDNN_PHASE_TIMING") != nullptr)
    std::fprintf(stderr,
                 "phase timing: bucket=%.2fs phase_a=%.2fs apply=%.2fs "
                 "finish=%.2fs\n",
                 tm_bucket, tm_phase_a, tm_apply, tm_finish);

  metrics_.set_backhaul(traffic_);
  metrics_.num_servers = cfg_.num_servers();
  metrics_.num_clients = cfg_.num_clients;
  metrics_.num_intervals = cfg_.num_intervals;

  if (ts_ != nullptr) ts_->flush();
  if (jr_ != nullptr) jr_->flush();
  return metrics_;
}

}  // namespace

SimulationMetrics run_sharded_simulation(const ShardWorld& world,
                                         const ShardRunOptions& options) {
  PERDNN_CHECK(!world.levels.empty());
  ShardEngine engine(world, options);
  return engine.run();
}

}  // namespace perdnn
