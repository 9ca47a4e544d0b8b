// Minimal JSON support for the observability exports: a writer with correct
// string escaping and deterministic number formatting, plus a small
// recursive-descent parser used by the self-check tests to round-trip every
// export (metrics registry, span traces, simulation timeseries) and prove
// the emitted text is well-formed.
//
// This is deliberately not a general-purpose JSON library: no comments, no
// NaN/Inf (rejected on write and on parse), objects keep insertion order so
// serialize(parse(s)) is the identity on our own canonical output.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perdnn::obs {

/// Appends `s` as a JSON string literal (with quotes) to `out`.
void json_escape(std::string& out, const std::string& s);

/// Formats a double deterministically: integral values below 9e18 in
/// magnitude print as integers, everything else as `%.15g`, else `%.16g`,
/// else `%.17g` — the first precision that parses back to the same double.
/// Throws std::invalid_argument on NaN/Inf (JSON has neither).
std::string json_number(double value);

/// Room format_json_number needs at `out`: json_number's longest text is 24
/// characters (`-d.dddddddddddddddde-308`).
inline constexpr std::size_t kJsonNumberMaxChars = 32;

/// Throws std::invalid_argument on NaN/Inf, as json_number does: a caller
/// that formats `value` later, or on another thread, can reject it now.
inline void check_json_number(double value) {
  if (!std::isfinite(value))
    throw std::invalid_argument("JSON cannot represent NaN/Inf");
}

/// Writes json_number(value)'s text at `out`, which must have room for
/// kJsonNumberMaxChars, and returns the end. Throws like json_number.
char* format_json_number(char* out, double value);

/// Appends json_number(value) to `out` without a temporary string.
void append_json_number(std::string& out, double value);

/// Appends the decimal digits of an integer: the text json_number prints for
/// an integral value, and what the ostream integer inserters print.
template <typename Int>
void append_json_int(std::string& out, Int value) {
  char buf[24];
  const std::to_chars_result res = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, res.ptr);
}

/// A JSON number as an Int, or nullopt unless it is integral and in range:
/// converting an out-of-range double is undefined, and a fractional one
/// would silently truncate. The upper bound 2^digits is exact in a double,
/// unlike numeric_limits<Int>::max() for the 64-bit types. NaN fails every
/// comparison, so it is rejected too.
template <typename Int>
std::optional<Int> json_integer(double v) {
  using Limits = std::numeric_limits<Int>;
  if (!(v == std::trunc(v) && v >= static_cast<double>(Limits::min()) &&
        v < std::ldexp(1.0, Limits::digits)))
    return std::nullopt;
  return static_cast<Int>(v);
}

/// SimTimeseries::write_csv hands its output stream blocks of whole lines
/// at least this large instead of one write per line.
inline constexpr std::size_t kOutputBlockBytes = std::size_t{1} << 20;

/// Parsed JSON value. Objects preserve key order.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue make_null();
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

  /// Canonical serialization (no whitespace, members in stored order).
  std::string serialize() const;

 private:
  void serialize_into(std::string& out) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses a complete JSON document. Throws std::runtime_error with a byte
/// offset on malformed input (trailing garbage included).
JsonValue parse_json(const std::string& text);

/// True iff `text` parses as JSON. Convenience for validation-only call
/// sites that do not need the value.
bool is_valid_json(const std::string& text);

}  // namespace perdnn::obs
