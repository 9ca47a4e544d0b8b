#include "faults/fault_plan.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <tuple>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "obs/json.hpp"

namespace perdnn {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kServerCrash:
      return "server_crash";
    case FaultKind::kBackhaulDegrade:
      return "backhaul_degrade";
    case FaultKind::kTelemetryDropout:
      return "telemetry_dropout";
    case FaultKind::kClientDisconnect:
      return "client_disconnect";
  }
  PERDNN_CHECK_MSG(false, "unhandled FaultKind");
  return "";
}

FaultKind fault_kind_from_name(const std::string& name) {
  if (name == "server_crash") return FaultKind::kServerCrash;
  if (name == "backhaul_degrade") return FaultKind::kBackhaulDegrade;
  if (name == "telemetry_dropout") return FaultKind::kTelemetryDropout;
  if (name == "client_disconnect") return FaultKind::kClientDisconnect;
  PERDNN_CHECK_MSG(false, "unknown fault kind '" << name << "'");
  return FaultKind::kServerCrash;
}

void validate_event(const FaultEvent& event) {
  PERDNN_CHECK_MSG(event.at_interval >= 0,
                   "fault event starts before interval 0 (at="
                       << event.at_interval << ")");
  PERDNN_CHECK_MSG(event.duration_intervals >= 1,
                   "fault event needs duration_intervals >= 1 (got "
                       << event.duration_intervals << ")");
  PERDNN_CHECK_MSG(event.duration_intervals <=
                       std::numeric_limits<int>::max() - event.at_interval,
                   "fault event window ends past the last representable "
                   "interval (at="
                       << event.at_interval
                       << ", duration=" << event.duration_intervals << ")");
  switch (event.kind) {
    case FaultKind::kServerCrash:
    case FaultKind::kTelemetryDropout:
      PERDNN_CHECK_MSG(event.server >= 0,
                       fault_kind_name(event.kind)
                           << " event needs a server id (got " << event.server
                           << ")");
      break;
    case FaultKind::kBackhaulDegrade:
      PERDNN_CHECK_MSG(event.server >= 0,
                       "backhaul_degrade event needs a server id (got "
                           << event.server << ")");
      PERDNN_CHECK_MSG(event.peer >= 0 || event.peer == kAllServers,
                       "backhaul_degrade peer must be a server id or the "
                       "all-servers wildcard (got "
                           << event.peer << ")");
      PERDNN_CHECK_MSG(event.peer == kAllServers || event.peer != event.server,
                       "backhaul_degrade endpoints must differ (server "
                           << event.server << ")");
      PERDNN_CHECK_MSG(event.severity >= 0.0 && event.severity <= 1.0,
                       "backhaul_degrade severity must be in [0, 1] (got "
                           << event.severity << ")");
      break;
    case FaultKind::kClientDisconnect:
      PERDNN_CHECK_MSG(event.client >= 0,
                       "client_disconnect event needs a client id (got "
                           << event.client << ")");
      break;
  }
}

namespace {

/// An integral JSON number that fits an int (see obs::json_integer).
int json_int(const obs::JsonValue& value, const std::string& key) {
  const double v = value.as_number();
  const std::optional<int> i = obs::json_integer<int>(v);
  PERDNN_CHECK_MSG(i.has_value(),
                   "fault plan event member '"
                       << key << "' must be an integer in int range (got "
                       << v << ")");
  return *i;
}

/// Sort key making plans canonical: time first, then kind and entity ids so
/// equal event sets compare equal after construction.
auto event_key(const FaultEvent& e) {
  return std::make_tuple(e.at_interval, static_cast<int>(e.kind), e.server,
                         e.peer, e.client, e.duration_intervals, e.severity);
}

}  // namespace

FaultPlan::FaultPlan(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  for (const FaultEvent& event : events_) validate_event(event);
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return event_key(a) < event_key(b);
                   });
}

FaultPlan FaultPlan::legacy_crashes(double failure_rate,
                                    int downtime_intervals, int num_servers,
                                    int num_intervals, std::uint64_t seed) {
  PERDNN_CHECK_MSG(failure_rate >= 0.0 && failure_rate <= 1.0,
                   "server_failure_rate must be in [0, 1] (got "
                       << failure_rate << ")");
  PERDNN_CHECK_MSG(downtime_intervals >= 1,
                   "server_downtime_intervals must be >= 1 (got "
                       << downtime_intervals << ")");
  if (failure_rate <= 0.0 || num_servers <= 0 || num_intervals <= 0)
    return FaultPlan{};

  // The historical inject_failures recursion: per interval, every *live*
  // server draws one Bernoulli; a crash keeps it down for `downtime`
  // intervals, during which it cannot crash again. A dedicated stream keeps
  // the draws independent of the simulator's other rngs.
  Rng rng(seed ^ 0xfa017c4a5dedULL);
  std::vector<int> down_until(static_cast<std::size_t>(num_servers), -1);
  std::vector<FaultEvent> events;
  for (int k = 0; k < num_intervals; ++k) {
    for (ServerId s = 0; s < num_servers; ++s) {
      if (down_until[static_cast<std::size_t>(s)] > k) continue;
      if (!rng.bernoulli(failure_rate)) continue;
      down_until[static_cast<std::size_t>(s)] = k + downtime_intervals;
      events.push_back({.kind = FaultKind::kServerCrash,
                        .at_interval = k,
                        .duration_intervals = downtime_intervals,
                        .server = s});
    }
  }
  return FaultPlan(std::move(events));
}

FaultPlan FaultPlan::random_schedule(const RandomFaultConfig& config) {
  PERDNN_CHECK_MSG(config.num_servers >= 0 && config.num_clients >= 0 &&
                       config.num_intervals >= 0,
                   "RandomFaultConfig entity counts must be non-negative");
  const auto check_rate = [](double rate, const char* name) {
    PERDNN_CHECK_MSG(rate >= 0.0 && rate <= 1.0,
                     name << " must be in [0, 1] (got " << rate << ")");
  };
  check_rate(config.server_crash_rate, "server_crash_rate");
  check_rate(config.backhaul_degrade_rate, "backhaul_degrade_rate");
  check_rate(config.telemetry_dropout_rate, "telemetry_dropout_rate");
  check_rate(config.client_disconnect_rate, "client_disconnect_rate");
  PERDNN_CHECK_MSG(config.backhaul_severity >= 0.0 &&
                       config.backhaul_severity <= 1.0,
                   "backhaul_severity must be in [0, 1] (got "
                       << config.backhaul_severity << ")");

  std::vector<FaultEvent> events;

  // One independent stream per fault class: adding a class (or changing one
  // rate) never perturbs the schedule of the others.
  const auto windows = [&](std::uint64_t salt, int entities, double rate,
                           int duration, auto make_event) {
    if (rate <= 0.0 || entities <= 0 || duration <= 0) return;
    Rng rng(config.seed ^ salt);
    std::vector<int> busy_until(static_cast<std::size_t>(entities), -1);
    for (int k = 0; k < config.num_intervals; ++k) {
      for (int e = 0; e < entities; ++e) {
        if (busy_until[static_cast<std::size_t>(e)] > k) continue;
        if (!rng.bernoulli(rate)) continue;
        busy_until[static_cast<std::size_t>(e)] = k + duration;
        events.push_back(make_event(e, k));
      }
    }
  };

  windows(0xc4a54ULL, config.num_servers, config.server_crash_rate,
          config.crash_downtime_intervals, [&](int s, int k) {
            return FaultEvent{.kind = FaultKind::kServerCrash,
                              .at_interval = k,
                              .duration_intervals =
                                  config.crash_downtime_intervals,
                              .server = static_cast<ServerId>(s)};
          });
  windows(0xbac4a01ULL, config.num_servers, config.backhaul_degrade_rate,
          config.backhaul_outage_intervals, [&](int s, int k) {
            return FaultEvent{.kind = FaultKind::kBackhaulDegrade,
                              .at_interval = k,
                              .duration_intervals =
                                  config.backhaul_outage_intervals,
                              .server = static_cast<ServerId>(s),
                              .peer = kAllServers,
                              .severity = config.backhaul_severity};
          });
  windows(0x7e1e0ULL, config.num_servers, config.telemetry_dropout_rate,
          config.telemetry_dropout_intervals, [&](int s, int k) {
            return FaultEvent{.kind = FaultKind::kTelemetryDropout,
                              .at_interval = k,
                              .duration_intervals =
                                  config.telemetry_dropout_intervals,
                              .server = static_cast<ServerId>(s)};
          });
  windows(0xc11e7ULL, config.num_clients, config.client_disconnect_rate,
          config.client_disconnect_intervals, [&](int c, int k) {
            return FaultEvent{.kind = FaultKind::kClientDisconnect,
                              .at_interval = k,
                              .duration_intervals =
                                  config.client_disconnect_intervals,
                              .client = static_cast<ClientId>(c)};
          });
  return FaultPlan(std::move(events));
}

void FaultPlan::check_bounds(int num_servers, int num_clients) const {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    const auto server_ok = [&](ServerId s) {
      return s >= 0 && s < num_servers;
    };
    switch (e.kind) {
      case FaultKind::kServerCrash:
      case FaultKind::kTelemetryDropout:
        PERDNN_CHECK_MSG(server_ok(e.server),
                         "fault event " << i << " (" << fault_kind_name(e.kind)
                                        << ") names server " << e.server
                                        << " outside [0, " << num_servers
                                        << ")");
        break;
      case FaultKind::kBackhaulDegrade:
        PERDNN_CHECK_MSG(server_ok(e.server),
                         "fault event " << i << " (backhaul_degrade) names "
                                        << "server " << e.server
                                        << " outside [0, " << num_servers
                                        << ")");
        PERDNN_CHECK_MSG(e.peer == kAllServers || server_ok(e.peer),
                         "fault event " << i << " (backhaul_degrade) names "
                                        << "peer " << e.peer << " outside [0, "
                                        << num_servers << ")");
        break;
      case FaultKind::kClientDisconnect:
        PERDNN_CHECK_MSG(e.client >= 0 && e.client < num_clients,
                         "fault event " << i << " (client_disconnect) names "
                                        << "client " << e.client
                                        << " outside [0, " << num_clients
                                        << ")");
        break;
    }
  }
}

std::string FaultPlan::to_json() const {
  std::string out = "{\"events\":[";
  bool first = true;
  for (const FaultEvent& e : events_) {
    if (!first) out += ',';
    first = false;
    out += "{\"kind\":";
    obs::json_escape(out, fault_kind_name(e.kind));
    out += ",\"at\":" + obs::json_number(e.at_interval);
    out += ",\"duration\":" + obs::json_number(e.duration_intervals);
    switch (e.kind) {
      case FaultKind::kServerCrash:
      case FaultKind::kTelemetryDropout:
        out += ",\"server\":" + obs::json_number(e.server);
        break;
      case FaultKind::kBackhaulDegrade:
        out += ",\"server\":" + obs::json_number(e.server);
        if (e.peer != kAllServers)
          out += ",\"peer\":" + obs::json_number(e.peer);
        out += ",\"severity\":" + obs::json_number(e.severity);
        break;
      case FaultKind::kClientDisconnect:
        out += ",\"client\":" + obs::json_number(e.client);
        break;
    }
    out += '}';
  }
  out += "]}";
  return out;
}

FaultPlan FaultPlan::from_json(const std::string& text) {
  const obs::JsonValue doc = obs::parse_json(text);
  PERDNN_CHECK_MSG(doc.is_object(),
                   "fault plan JSON must be an object with an \"events\" "
                   "array");
  const obs::JsonValue* events = doc.find("events");
  PERDNN_CHECK_MSG(events != nullptr && events->is_array(),
                   "fault plan JSON needs an \"events\" array");

  std::vector<FaultEvent> parsed;
  for (const obs::JsonValue& item : events->items()) {
    PERDNN_CHECK_MSG(item.is_object(), "fault plan event must be an object");
    FaultEvent e;
    bool saw_kind = false;
    for (const auto& [key, value] : item.members()) {
      if (key == "kind") {
        e.kind = fault_kind_from_name(value.as_string());
        saw_kind = true;
      } else if (key == "at") {
        e.at_interval = json_int(value, key);
      } else if (key == "duration") {
        e.duration_intervals = json_int(value, key);
      } else if (key == "server") {
        e.server = json_int(value, key);
      } else if (key == "peer") {
        e.peer = json_int(value, key);
      } else if (key == "client") {
        e.client = json_int(value, key);
      } else if (key == "severity") {
        e.severity = value.as_number();
      } else {
        PERDNN_CHECK_MSG(false,
                         "unknown fault plan event member '" << key << "'");
      }
    }
    PERDNN_CHECK_MSG(saw_kind, "fault plan event is missing \"kind\"");
    parsed.push_back(e);
  }
  return FaultPlan(std::move(parsed));
}

}  // namespace perdnn
