#include "faults/fault_timeline.hpp"

#include <algorithm>
#include <utility>

namespace perdnn {

FaultTimeline::FaultTimeline(const FaultPlan& plan, int num_servers,
                             int num_clients) {
  plan.check_bounds(num_servers, num_clients);
  if (plan.empty()) return;
  empty_ = false;
  events_ = plan.events();
  const auto servers = static_cast<std::size_t>(num_servers);
  const auto clients = static_cast<std::size_t>(num_clients);
  down_.assign(servers);
  dark_.assign(servers);
  offline_.assign(clients);
  backhaul_.resize(servers);

  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    const int end = e.at_interval + e.duration_intervals;
    const auto index = static_cast<std::uint32_t>(i);
    edges_.push_back({e.at_interval, true, index});
    edges_.push_back({end, false, index});
    if (e.kind != FaultKind::kBackhaulDegrade) continue;
    backhaul_[static_cast<std::size_t>(e.server)].push_back(
        {e.at_interval, end, e.peer, 1.0 - e.severity});
  }
  // End edges sort before begin edges, so an interval's journal records
  // list the windows it closes before the ones it opens.
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    if (a.interval != b.interval) return a.interval < b.interval;
    if (a.begins != b.begins) return b.begins;
    return a.event < b.event;
  });
}

void FaultTimeline::apply(const Edge& edge) {
  const FaultEvent& e = events_[edge.event];
  const int delta = edge.begins ? 1 : -1;
  switch (e.kind) {
    case FaultKind::kServerCrash:
      down_.bump(e.server, delta);
      break;
    case FaultKind::kTelemetryDropout:
      dark_.bump(e.server, delta);
      break;
    case FaultKind::kClientDisconnect:
      offline_.bump(e.client, delta);
      break;
    case FaultKind::kBackhaulDegrade:
      backhaul_count_ += delta;
      break;
  }
}

void FaultTimeline::advance(int t) {
  while (next_ < edges_.size() && edges_[next_].interval <= t)
    apply(edges_[next_++]);
  now_ = t;
  link_used_.clear();
}

void FaultTimeline::seek(int t) {
  down_.assign(down_.on.size());
  dark_.assign(dark_.on.size());
  offline_.assign(offline_.on.size());
  backhaul_count_ = 0;
  next_ = 0;
  advance(t - 1);
}

double FaultTimeline::backhaul_factor(ServerId a, ServerId b) const {
  if (backhaul_count_ == 0) return 1.0;
  // Each event sits under its own server. The link's events are those under
  // either endpoint that name the other endpoint or every link.
  double factor = 1.0;
  for (const auto& [end, other] : {std::pair{a, b}, std::pair{b, a}}) {
    for (const LinkWindow& w : backhaul_[static_cast<std::size_t>(end)]) {
      if (w.start > now_ || now_ >= w.end) continue;
      if (w.peer != kAllServers && w.peer != other) continue;
      factor = std::min(factor, w.factor);
    }
  }
  return factor;
}

Bytes& FaultTimeline::link_used(ServerId a, ServerId b) {
  const auto lo =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(std::min(a, b)));
  const auto hi =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(std::max(a, b)));
  return link_used_[(hi << 32) | lo];
}

std::span<const FaultTimeline::Edge> FaultTimeline::slice(
    int interval) const {
  const auto first = std::lower_bound(
      edges_.begin(), edges_.end(), interval,
      [](const Edge& e, int t) { return e.interval < t; });
  const auto last = std::upper_bound(
      first, edges_.end(), interval,
      [](int t, const Edge& e) { return t < e.interval; });
  return {first, last};
}

std::vector<obs::JournalEvent> FaultTimeline::boundary_events(int t) const {
  std::vector<obs::JournalEvent> out;
  for (const Edge& edge : slice(t)) {
    const FaultEvent& e = events_[edge.event];
    obs::JournalEvent record{.interval = t,
                             .kind = obs::JournalEventKind::kFaultCleared,
                             .client = e.client,
                             .server = e.server,
                             .peer = e.peer,
                             .detail = static_cast<std::int32_t>(e.kind)};
    if (edge.begins) {
      record.kind = obs::JournalEventKind::kFaultApplied;
      record.aux = e.duration_intervals;
      record.value = e.severity;
    }
    out.push_back(record);
  }
  return out;
}

std::vector<std::int32_t> FaultTimeline::starting_at(int interval,
                                                     FaultKind kind) const {
  std::vector<std::int32_t> ids;
  for (const Edge& edge : slice(interval)) {
    const FaultEvent& e = events_[edge.event];
    if (edge.begins && e.kind == kind)
      ids.push_back(kind == FaultKind::kClientDisconnect ? e.client
                                                         : e.server);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::vector<ServerId> FaultTimeline::crashes_starting_at(int interval) const {
  return starting_at(interval, FaultKind::kServerCrash);
}

std::vector<ClientId> FaultTimeline::disconnects_starting_at(
    int interval) const {
  return starting_at(interval, FaultKind::kClientDisconnect);
}

}  // namespace perdnn
