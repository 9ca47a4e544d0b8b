#include "serialize/serialize.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace perdnn {

namespace {

constexpr const char* kTracesMagic = "perdnn-traces v1";
constexpr const char* kRecordsMagic = "perdnn-records v1";

[[noreturn]] void parse_error(int line, const std::string& what) {
  std::ostringstream os;
  os << "parse error at line " << line << ": " << what;
  throw TraceFormatError(os.str());
}

/// Reads one non-empty, non-comment line; returns false at EOF.
bool next_line(std::istream& in, std::string& line, int& line_no) {
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line[0] != '#') return true;
  }
  return false;
}

void expect_magic(std::istream& in, const char* magic, int& line_no) {
  std::string line;
  if (!next_line(in, line, line_no) || line != magic)
    parse_error(line_no, std::string("expected header '") + magic + "'");
}

/// Parses `line` as exactly the whitespace-separated fields `out...`, each
/// read whole by std::from_chars, which takes no sign on an unsigned type.
template <typename... T>
bool parse_fields(const std::string& line, T&... out) {
  const char* pos = line.data();
  const char* const end = pos + line.size();
  const auto skip_space = [&] {
    while (pos != end && std::isspace(static_cast<unsigned char>(*pos))) ++pos;
  };
  const auto field = [&](auto& value) {
    skip_space();
    const char* start = pos;
    while (pos != end && !std::isspace(static_cast<unsigned char>(*pos)))
      ++pos;
    const std::from_chars_result res = std::from_chars(start, pos, value);
    return res.ec == std::errc() && res.ptr == pos;
  };
  if (!(field(out) && ...)) return false;
  skip_space();
  return pos == end;
}

/// Finite and within kMaxTraceCoordinateM (NaN fails the comparison).
bool coordinate_ok(double v) { return std::abs(v) <= kMaxTraceCoordinateM; }

}  // namespace

void save_traces(const std::vector<Trajectory>& traces, std::ostream& out) {
  out << kTracesMagic << "\n";
  out << traces.size() << "\n";
  out << std::setprecision(17);
  for (const Trajectory& traj : traces) {
    out << traj.user << ' ' << traj.interval << ' ' << traj.points.size()
        << "\n";
    for (Point p : traj.points) out << p.x << ' ' << p.y << "\n";
  }
}

std::vector<Trajectory> load_traces(std::istream& in) {
  int line_no = 0;
  std::string line;
  expect_magic(in, kTracesMagic, line_no);
  if (!next_line(in, line, line_no)) parse_error(line_no, "missing count");
  std::size_t count = 0;
  if (!parse_fields(line, count))
    parse_error(line_no, "bad trace count '" + line + "'");
  if (count == 0) parse_error(line_no, "no trajectories");
  // The declared counts bound the loops only: vectors grow with the lines
  // actually read, so a huge count in a short file cannot allocate.
  std::vector<Trajectory> traces;
  for (std::size_t t = 0; t < count; ++t) {
    if (!next_line(in, line, line_no))
      parse_error(line_no, "unexpected end of trace list");
    Trajectory traj;
    std::size_t points = 0;
    if (!parse_fields(line, traj.user, traj.interval, points))
      parse_error(line_no, "malformed trace header '" + line + "'");
    if (!(traj.interval > 0.0 && traj.interval <= kMaxTraceIntervalS))
      parse_error(line_no, "sampling interval outside (0, 86400] s");
    if (points == 0) parse_error(line_no, "trajectory without points");
    for (std::size_t i = 0; i < points; ++i) {
      if (!next_line(in, line, line_no))
        parse_error(line_no, "unexpected end of points");
      Point p;
      if (!parse_fields(line, p.x, p.y))
        parse_error(line_no, "malformed point '" + line + "'");
      if (!coordinate_ok(p.x) || !coordinate_ok(p.y))
        parse_error(line_no, "point '" + line + "' is not within 1e8 m");
      traj.points.push_back(p);
    }
    traces.push_back(std::move(traj));
  }
  return traces;
}

void save_records(const std::vector<ProfileRecord>& records,
                  std::ostream& out) {
  out << kRecordsMagic << "\n";
  out << records.size() << "\n";
  out << std::setprecision(17);
  for (const ProfileRecord& rec : records) {
    out << layer_kind_name(rec.layer.kind) << ' ' << rec.layer.in_channels
        << ' ' << rec.layer.out_channels << ' ' << rec.layer.kernel << ' '
        << rec.layer.stride << ' ' << rec.layer.out_height << ' '
        << rec.layer.out_width << ' ' << rec.layer.weight_bytes << ' '
        << rec.layer.output_bytes << ' ' << rec.layer.flops << ' '
        << rec.input_bytes << ' ' << rec.stats.num_clients << ' '
        << rec.stats.kernel_util << ' ' << rec.stats.mem_util << ' '
        << rec.stats.mem_usage_mb << ' ' << rec.stats.temperature_c << ' '
        << rec.time << "\n";
  }
}

void save_traces_file(const std::vector<Trajectory>& traces,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  save_traces(traces, out);
}

std::vector<Trajectory> load_traces_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return load_traces(in);
}

}  // namespace perdnn
