// Plain-text persistence for the two artifacts the tools move through files:
// mobility traces (`perdnn traces` writes them; `perdnn simulate` and
// perdnn_runner manifests read them back) and profiler records, the
// estimator training set `perdnn profile` writes. The format is line-based,
// versioned and whitespace-delimited — diff-able and safe to hand-edit.
//
// load_traces decodes outside input. It validates as it parses and throws
// TraceFormatError, with the offending line number, on malformed input:
// counts must be unsigned decimal digits, a declared count never sizes an
// allocation, every trajectory needs at least one point, sampling intervals
// must lie in (0, kMaxTraceIntervalS] and coordinates must be finite and
// within kMaxTraceCoordinateM.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "device/profiler.hpp"
#include "mobility/trajectory.hpp"

namespace perdnn {

/// Thrown by load_traces on a file that does not parse or fails a check.
/// The tools map it to exit code 2.
class TraceFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Largest |x| or |y| a trace point may have, in metres. It is more than
/// Earth's circumference, so every projected real-world trace passes, and
/// it keeps the cell coordinates of the tools' 50 m hex grid below 4e6 in
/// magnitude, far inside the grid's int32 range.
inline constexpr double kMaxTraceCoordinateM = 1e8;

/// Longest sampling interval a trajectory may declare, in seconds: a day,
/// far above any mobility dataset's sampling period. The engines replay
/// each interval query by query; past ~1e15 s a query's step no longer
/// advances the clock and that loop never ends.
inline constexpr double kMaxTraceIntervalS = 86400.0;

// -- mobility traces --
void save_traces(const std::vector<Trajectory>& traces, std::ostream& out);
std::vector<Trajectory> load_traces(std::istream& in);

// -- profiler records (estimator training sets) --
void save_records(const std::vector<ProfileRecord>& records,
                  std::ostream& out);

// File-path wrappers. An unopenable file throws std::runtime_error.
void save_traces_file(const std::vector<Trajectory>& traces,
                      const std::string& path);
std::vector<Trajectory> load_traces_file(const std::string& path);

}  // namespace perdnn
