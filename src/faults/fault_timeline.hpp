// The fault plane both simulation engines drive: a FaultPlan compiled for
// one world, plus a cursor over simulated time that owns the live fault
// state of the current interval.
//
// The plan compiles once into a single edge list sorted by (interval,
// begins, event): a begin edge at each window's first interval and an end
// edge at its exclusive end. An engine calls advance(t) once at the top of
// every interval (after seek(t) when it resumes from a checkpoint) and then
// only asks about the current interval: which servers are down or
// telemetry-dark, which clients are scripted offline, how much capacity a
// backhaul link has left and how many bytes already crossed it. Per-entity
// window counts give overlapping windows their union semantics; the byte
// flags derived from them are what the sharded engine's parallel phase
// reads, so the cursor must only move while no worker runs.
//
// The timeline also owns the fault-boundary journal records
// (boundary_events). Every other state consequence (wiping a crashed
// server's cache, detaching its clients) belongs to the engines, which
// iterate crashes_starting_at / disconnects_starting_at once per interval.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "faults/fault_plan.hpp"
#include "obs/journal.hpp"

namespace perdnn {

class FaultTimeline {
 public:
  /// Compiles `plan` for a world of the given size; bounds-checks every
  /// event id (throws std::logic_error on an out-of-range entity). The
  /// cursor starts before interval 0.
  FaultTimeline(const FaultPlan& plan, int num_servers, int num_clients);
  /// Empty timeline: every query reports "healthy".
  FaultTimeline() = default;

  bool empty() const { return empty_; }

  /// Moves the cursor to interval `t`: applies every edge up to and
  /// including `t` and clears the link ledger. Called once per interval.
  void advance(int t);
  /// Resets the cursor to the state entering interval `t` (every edge
  /// before `t` applied), which a resumed run needs before advance(t).
  void seek(int t);

  // Fault state of the current interval.
  bool server_down(ServerId server) const {
    return !empty_ && down_.on[static_cast<std::size_t>(server)] != 0;
  }
  bool telemetry_down(ServerId server) const {
    return !empty_ && dark_.on[static_cast<std::size_t>(server)] != 0;
  }
  bool client_offline(ClientId client) const {
    return !empty_ && offline_.on[static_cast<std::size_t>(client)] != 0;
  }
  /// True if any backhaul event is active — lets consumers skip per-link
  /// accounting entirely on healthy intervals.
  bool backhaul_active() const { return backhaul_count_ > 0; }

  /// Remaining backhaul capacity fraction on the (unordered) link between
  /// `a` and `b`: 1.0 = healthy, 0.0 = outage. A wildcard event degrades
  /// every link of its server in both directions. When several events
  /// overlap the link, the worst (minimum) factor applies.
  double backhaul_factor(ServerId a, ServerId b) const;

  /// Bytes already shipped this interval over the degraded link between `a`
  /// and `b`; both directions share one entry.
  Bytes& link_used(ServerId a, ServerId b);

  /// The kFaultApplied / kFaultCleared journal records of interval `t`:
  /// windows closing at `t`, then windows opening at `t`, each in plan
  /// order.
  std::vector<obs::JournalEvent> boundary_events(int t) const;

  /// Crash events whose window opens exactly at `interval` (deduplicated,
  /// sorted by server id) — the moment the cache is lost and clients drop.
  std::vector<ServerId> crashes_starting_at(int interval) const;
  /// Clients whose disconnect window opens exactly at `interval`.
  std::vector<ClientId> disconnects_starting_at(int interval) const;

 private:
  struct Edge {
    int interval = 0;
    bool begins = false;
    std::uint32_t event = 0;  // index into events_
  };
  struct LinkWindow {
    int start = 0;
    int end = 0;  // exclusive
    ServerId peer = kAllServers;  // kAllServers = wildcard
    double factor = 0.0;          // remaining capacity = 1 - severity
  };
  /// Open windows per entity, and the byte flag (open > 0) queries read.
  struct WindowFlags {
    std::vector<std::int32_t> open;
    std::vector<std::uint8_t> on;
    void assign(std::size_t n) {
      open.assign(n, 0);
      on.assign(n, 0);
    }
    void bump(std::int32_t id, int delta) {
      const auto i = static_cast<std::size_t>(id);
      open[i] += delta;
      on[i] = open[i] > 0 ? 1 : 0;
    }
  };

  std::span<const Edge> slice(int interval) const;
  std::vector<std::int32_t> starting_at(int interval, FaultKind kind) const;
  void apply(const Edge& edge);

  bool empty_ = true;
  std::vector<FaultEvent> events_;  // the plan, canonical order
  std::vector<Edge> edges_;         // sorted by (interval, begins, event)
  std::vector<std::vector<LinkWindow>> backhaul_;  // per event server

  // Cursor state: every edge before next_ is applied.
  std::size_t next_ = 0;
  int now_ = -1;
  WindowFlags down_, dark_, offline_;  // crashes, telemetry, disconnects
  int backhaul_count_ = 0;
  std::unordered_map<std::uint64_t, Bytes> link_used_;
};

}  // namespace perdnn
