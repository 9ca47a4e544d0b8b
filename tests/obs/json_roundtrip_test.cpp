#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace perdnn::obs {
namespace {

TEST(JsonNumber, IntegralAndRoundTripFormatting) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(-7.0), "-7");
  EXPECT_EQ(json_number(0.5), "0.5");
  // Shortest form that still round-trips exactly.
  EXPECT_EQ(std::stod(json_number(0.1)), 0.1);
  EXPECT_EQ(std::stod(json_number(1.0 / 3.0)), 1.0 / 3.0);
  EXPECT_THROW(json_number(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(json_number(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

// The snprintf/sscanf json_number the to_chars formatter replaced, kept
// as its oracle. One edit: the magnitude test now runs before the int64
// cast, which is undefined for doubles outside the int64 range; the
// conjunction, and so the result, is unchanged.
std::string printf_json_number(double value) {
  if (!std::isfinite(value))
    throw std::invalid_argument("JSON cannot represent NaN/Inf");
  if (std::abs(value) < 9.0e18 &&
      value == static_cast<double>(static_cast<std::int64_t>(value))) {
    return std::to_string(static_cast<std::int64_t>(value));
  }
  // Shortest representation that round-trips a double.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  double parsed = 0.0;
  for (int precision = 15; precision <= 16; ++precision) {
    char candidate[32];
    std::snprintf(candidate, sizeof candidate, "%.*g", precision, value);
    std::sscanf(candidate, "%lf", &parsed);
    if (parsed == value) return candidate;
  }
  return buf;
}

/// Compares json_number and append_json_number with the oracle, keeping
/// the first few mismatches for the failure message.
class OracleCheck {
 public:
  void operator()(double v) {
    ++checked_;
    const std::string want = printf_json_number(v);
    std::string appended = "x";
    append_json_number(appended, v);
    if (json_number(v) == want && appended == "x" + want) return;
    if (mismatches_.size() < 8) {
      char hex[40];
      std::snprintf(hex, sizeof hex, "%a", v);
      mismatches_.push_back(std::string(hex) + ": want " + want + " got " +
                            json_number(v));
    }
  }

  void expect_clean(std::size_t at_least) const {
    EXPECT_GE(checked_, at_least);
    EXPECT_TRUE(mismatches_.empty()) << [this] {
      std::string all;
      for (const std::string& m : mismatches_) all += m + "\n";
      return all;
    }();
  }

 private:
  std::size_t checked_ = 0;
  std::vector<std::string> mismatches_;
};

// Six suites below compare 6.6M doubles with the oracle in all.

TEST(JsonNumberOracle, RandomFiniteBitPatterns) {
  OracleCheck check;
  std::mt19937_64 rng(1);
  std::size_t n = 0;
  while (n < 1'200'000) {
    const double v = std::bit_cast<double>(rng());
    if (!std::isfinite(v)) continue;
    check(v);
    ++n;
  }
  check.expect_clean(1'200'000);
}

TEST(JsonNumberOracle, UniformHundredsAndReciprocals) {
  OracleCheck check;
  std::mt19937_64 rng(2);
  std::uniform_real_distribution<double> uniform(0.0, 1000.0);
  for (int i = 0; i < 1'200'000; ++i) check(uniform(rng));
  for (int k = 1; k <= 1'000'000; ++k) check(1.0 / k);
  check.expect_clean(2'200'000);
}

TEST(JsonNumberOracle, PowersOfTwoNeighboursAndSubnormals) {
  OracleCheck check;
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (const double v : {p, std::nextafter(p, 0.0),
                           std::nextafter(p, HUGE_VAL)}) {
      if (v == 0.0 || !std::isfinite(v)) continue;
      check(v);
      check(-v);
    }
  }
  // Random subnormals: exponent bits zero, any mantissa.
  std::mt19937_64 rng(3);
  for (int i = 0; i < 400'000; ++i)
    check(std::bit_cast<double>(rng() & 0x800f'ffff'ffff'ffffULL));
  check(std::numeric_limits<double>::denorm_min());
  check(std::nextafter(std::numeric_limits<double>::min(), 0.0));
  check(std::numeric_limits<double>::min());
  check(std::numeric_limits<double>::max());
  check(-std::numeric_limits<double>::max());
  check.expect_clean(400'000);
}

TEST(JsonNumberOracle, AroundTheExponentFormSwitches) {
  // %g switches to exponent form below 1e-4 and at 10^precision: 1e15,
  // 1e16 and 1e17 for the three precisions tried.
  OracleCheck check;
  std::mt19937_64 rng(4);
  std::uniform_real_distribution<double> octave(-1.0, 1.0);
  for (const double base : {1e-5, 1e-4, 1e15, 1e16, 1e17}) {
    double up = base, down = base;
    for (int i = 0; i < 30'000; ++i) {
      check(up);
      check(down);
      up = std::nextafter(up, HUGE_VAL);
      down = std::nextafter(down, 0.0);
    }
    for (int i = 0; i < 50'000; ++i)
      check(base * std::exp2(octave(rng)));
  }
  check.expect_clean(550'000);
}

TEST(JsonNumberOracle, IntegerEdgesZerosAndNonFinite) {
  OracleCheck check;
  for (const double v : {0.0, -0.0, 9.0e18, -9.0e18, 1.0, -1.0, 0.5, 1e300,
                         -1e300, 9007199254740993.0, 4503599627370495.5}) {
    check(v);
    check(std::nextafter(v, HUGE_VAL));
    check(std::nextafter(v, -HUGE_VAL));
  }
  EXPECT_EQ(json_number(-0.0), "0");
  EXPECT_EQ(json_number(9.0e18), "9e+18");
  EXPECT_EQ(json_number(std::nextafter(9.0e18, 0.0)), "8999999999999998976");
  // 2^63 and beyond cannot be cast to int64; they take the %g path.
  EXPECT_EQ(json_number(9223372036854775808.0), "9.223372036854776e+18");
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<std::int64_t> ints(-9'000'000'000'000'000'000,
                                                   9'000'000'000'000'000'000);
  for (int i = 0; i < 850'000; ++i)
    check(static_cast<double>(ints(rng)) / (1 << (i % 24)));
  check.expect_clean(850'000);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(json_number(bad), std::invalid_argument);
    std::string out = "x";
    EXPECT_THROW(append_json_number(out, bad), std::invalid_argument);
    EXPECT_EQ(out, "x");
  }
}

/// Significant digits of v's shortest round-trip text.
int shortest_digits(double v) {
  char text[32];
  char* const end =
      std::to_chars(text, text + sizeof text, v, std::chars_format::scientific)
          .ptr;
  return static_cast<int>(std::count_if(
      text, std::find(text, end, 'e'),
      [](char c) { return c >= '0' && c <= '9'; }));
}

TEST(JsonNumberOracle, ByShortestDigitCount) {
  // A random double printed by the oracle's %.*g at k digits and parsed
  // back has a shortest form of at most k digits; its neighbours 1 to 3 ulp
  // away mostly need 16 or 17. So every count from 1 to 17 — the skip to
  // %.15g, %.16g and straight to %.17g — meets the oracle.
  OracleCheck check;
  std::mt19937_64 rng(6);
  std::uniform_real_distribution<double> hundreds(0.0, 1000.0);
  std::vector<int> by_digits(18, 0);
  const auto checked = [&](double v) {
    ++by_digits[static_cast<std::size_t>(shortest_digits(v))];
    check(v);
  };
  for (int k = 1; k <= 17; ++k) {
    for (int i = 0; i < 10'000; ++i) {
      double seed = hundreds(rng);
      if (i % 2 == 0)
        do seed = std::bit_cast<double>(rng()); while (!std::isfinite(seed));
      char text[40];
      std::snprintf(text, sizeof text, "%.*g", k, seed);
      const double v = std::strtod(text, nullptr);
      if (!std::isfinite(v)) continue;  // rounded past the largest double
      checked(v);
      checked(-v);
      double up = v, down = v;
      for (int step = 1; step <= 3; ++step) {
        up = std::nextafter(up, HUGE_VAL);
        down = std::nextafter(down, -HUGE_VAL);
        if (std::isfinite(up)) checked(up);
        if (std::isfinite(down)) checked(down);
      }
    }
  }
  check.expect_clean(1'300'000);
  for (int k = 1; k <= 17; ++k)
    EXPECT_GT(by_digits[static_cast<std::size_t>(k)], 1'000) << k;
}

TEST(JsonInteger, IntTakesExactlyItsRange) {
  EXPECT_EQ(json_integer<int>(0.0), 0);
  EXPECT_EQ(json_integer<int>(-0.0), 0);
  EXPECT_EQ(json_integer<int>(2147483647.0), 2147483647);
  EXPECT_EQ(json_integer<int>(2147483648.0), std::nullopt);
  EXPECT_EQ(json_integer<int>(-2147483648.0), std::numeric_limits<int>::min());
  EXPECT_EQ(json_integer<int>(-2147483649.0), std::nullopt);
}

TEST(JsonInteger, RejectsFractionsHugeValuesAndNaN) {
  EXPECT_EQ(json_integer<int>(2.5), std::nullopt);
  EXPECT_EQ(json_integer<int>(1e300), std::nullopt);
  EXPECT_EQ(json_integer<int>(-1e300), std::nullopt);
  EXPECT_EQ(json_integer<int>(std::numeric_limits<double>::quiet_NaN()),
            std::nullopt);
  EXPECT_EQ(json_integer<int>(std::numeric_limits<double>::infinity()),
            std::nullopt);
}

TEST(JsonInteger, SixtyFourBitBoundsAreExact) {
  // numeric_limits<int64_t>::max() rounds up to 2^63 as a double, so the
  // bound must be the exact 2^63, not max().
  EXPECT_EQ(json_integer<std::int64_t>(std::ldexp(1.0, 63)), std::nullopt);
  EXPECT_EQ(json_integer<std::int64_t>(-std::ldexp(1.0, 63)),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(json_integer<std::int64_t>(std::nextafter(std::ldexp(1.0, 63), 0)),
            std::numeric_limits<std::int64_t>::max() - 1023);
  EXPECT_EQ(json_integer<std::uint64_t>(std::ldexp(1.0, 64)), std::nullopt);
  EXPECT_EQ(json_integer<std::uint64_t>(-1.0), std::nullopt);
  EXPECT_EQ(json_integer<std::uint64_t>(std::ldexp(1.0, 63)),
            std::uint64_t{1} << 63);
}

TEST(JsonEscape, ControlCharactersAndQuotes) {
  std::string out;
  json_escape(out, "a\"b\\c\n\t\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\t\\u0001\"");
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_THROW(parse_json(""), std::runtime_error);
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\":1,}"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(parse_json("nul"), std::runtime_error);
  EXPECT_THROW(parse_json("1 2"), std::runtime_error);  // trailing garbage
  EXPECT_THROW(parse_json("\"unterminated"), std::runtime_error);
  EXPECT_THROW(parse_json("NaN"), std::runtime_error);
  EXPECT_FALSE(is_valid_json("{]"));
  EXPECT_TRUE(is_valid_json("{\"a\":[1,2,null,true,\"s\"]}"));
}

TEST(JsonParse, RoundTripsCanonicalText) {
  const std::string text =
      "{\"a\":1,\"b\":[true,false,null],\"c\":{\"nested\":\"x\\ny\"},"
      "\"d\":-2.5}";
  EXPECT_EQ(parse_json(text).serialize(), text);
}

// ---------------------------------------------------------------------------
// The exports the subsystem actually produces must round-trip through our
// own parser unchanged — the C++ self-check from the issue.

TEST(JsonRoundTrip, RegistryExport) {
  Registry::global().reset();
  set_enabled(true);
  count("roundtrip.counter", 3.0);
  count("roundtrip.labeled", 1.0, {{"model", "resnet"}, {"server", "4"}});
  set_gauge("roundtrip.gauge", 2.75);
  for (int i = 1; i <= 64; ++i) observe("roundtrip.histo", i * 1e-4);
  const std::string json = Registry::global().to_json();
  EXPECT_EQ(parse_json(json).serialize(), json);
  set_enabled(false);
  Registry::global().reset();
}

TEST(JsonRoundTrip, TimeseriesExport) {
  SimTimeseries ts;
  ts.start(2, 20.0);
  std::vector<TimeseriesRow> rows(2);
  rows[1].server = 1;
  rows[0].hits = 1;
  rows[0].cold_window_queries = 5;
  rows[0].cold_latency_sum_s = 1.25;
  rows[0].uplink_bytes = 12345;
  rows[0].migration_orders = 1;
  rows[1].downlink_bytes = 12345;
  rows[1].predictor_samples = 1;
  rows[1].predictor_error_sum_m = 33.5;
  rows[0].attached = 1;
  ts.append_interval(rows);
  const std::string json = ts.to_json();
  EXPECT_EQ(parse_json(json).serialize(), json);
}

TEST(JsonRoundTrip, ChromeTraceExport) {
  Tracer::global().start();
  {
    PERDNN_SPAN("roundtrip.span");
    { PERDNN_SPAN("roundtrip.nested"); }
  }
  Tracer::global().stop();
  const std::string json = Tracer::global().to_chrome_json();
  EXPECT_EQ(parse_json(json).serialize(), json);
  Tracer::global().clear();
}

}  // namespace
}  // namespace perdnn::obs
