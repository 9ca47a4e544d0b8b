// The campus and urban trace generators as the perdnn and perdnn_runner
// tools drive them: both take a trace kind, a user count and a duration in
// minutes, and sample every 20 s.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mobility/trace_gen.hpp"

namespace perdnn {

/// Sampling period of the campus and urban traces the tools generate.
inline constexpr Seconds kSampleIntervalS = 20.0;

/// `kind`'s generated traces: `users` trajectories (0 keeps the generator's
/// default) of `minutes` each, drawn from `seed`. nullopt unless `kind` is
/// `campus` or `urban`; the tools read any other kind as a trace file.
inline std::optional<std::vector<Trajectory>> generate_traces(
    const std::string& kind, int users, double minutes, std::uint64_t seed) {
  if (kind == "campus") {
    CampusTraceConfig config;
    if (users > 0) config.num_users = users;
    config.duration = minutes * 60.0;
    config.sample_interval = kSampleIntervalS;
    config.seed = seed;
    return generate_campus_traces(config);
  }
  if (kind == "urban") {
    UrbanTraceConfig config;
    if (users > 0) config.num_users = users;
    config.duration = minutes * 60.0;
    config.sample_interval = kSampleIntervalS;
    config.seed = seed;
    return generate_urban_traces(config);
  }
  return std::nullopt;
}

}  // namespace perdnn
