// Strict number parses for the command-line tools (perdnn, perdnn_runner,
// perdnn_obs). A value must be the whole argument: no leading space or
// sign other than '-', no trailing characters. An integer must fit its
// type and a double must be finite. Callers check the domain (>= 1, an
// index below a count, ...) and exit 2 on either failure.
#pragma once

#include <charconv>
#include <cmath>
#include <string>
#include <system_error>

namespace perdnn::tools {

template <typename Int>
bool parse_int(const std::string& text, Int* out) {
  const char* end = text.data() + text.size();
  Int value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

inline bool parse_double(const std::string& text, double* out) {
  const char* end = text.data() + text.size();
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

}  // namespace perdnn::tools
