#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

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
