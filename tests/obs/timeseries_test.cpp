#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "mobility/trace_gen.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "sim/simulator.hpp"

namespace perdnn {
namespace {

using obs::SimTimeseries;
using obs::TimeseriesRow;

// ---------------------------------------------------------------------------
// Unit-level recorder behaviour.

/// One interval's rows as an engine builds them: one per server, stamped
/// with the interval and the server id.
std::vector<TimeseriesRow> interval_rows(int interval, int num_servers) {
  std::vector<TimeseriesRow> rows(static_cast<std::size_t>(num_servers));
  for (int s = 0; s < num_servers; ++s)
    rows[static_cast<std::size_t>(s)] = {.interval = interval, .server = s};
  return rows;
}

TEST(SimTimeseriesUnit, DenseRowsAndAggregates) {
  SimTimeseries ts;
  ts.start(/*num_servers=*/3, /*interval_length_s=*/20.0);

  std::vector<TimeseriesRow> first = interval_rows(0, 3);
  first[1].hits = 1;
  first[1].cold_window_queries = 10;
  first[1].cold_latency_sum_s = 2.5;
  first[0].uplink_bytes = 1000;
  first[2].downlink_bytes = 1000;
  first[0].migration_orders = 2;
  first[1].attached = 2;
  first[2].attached = 1;
  ts.append_interval(first);
  ts.append_interval(interval_rows(1, 3));  // a quiet interval: zero rows

  EXPECT_EQ(ts.num_servers(), 3);
  EXPECT_EQ(ts.num_intervals(), 2);
  const std::vector<TimeseriesRow> rows = ts.rows();
  ASSERT_EQ(rows.size(), 6u);  // 2 intervals x 3 servers, dense
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(rows[i].interval, 0);
    EXPECT_EQ(rows[i].server, static_cast<int>(i));
    EXPECT_EQ(rows[i].hits, first[i].hits);
    EXPECT_EQ(rows[i].uplink_bytes, first[i].uplink_bytes);
    EXPECT_EQ(rows[i].attached, first[i].attached);
  }
  // Interval-1 rows are all zero but present.
  for (std::size_t i = 3; i < 6; ++i) {
    EXPECT_EQ(rows[i].interval, 1);
    EXPECT_EQ(rows[i].server, static_cast<int>(i - 3));
    EXPECT_EQ(rows[i].cold_window_queries, 0);
    EXPECT_EQ(rows[i].uplink_bytes, 0);
  }

  EXPECT_EQ(ts.total_hits(), 1);
  EXPECT_EQ(ts.total_cold_window_queries(), 10);
  EXPECT_EQ(ts.total_uplink_bytes(), 1000);
  EXPECT_EQ(ts.total_downlink_bytes(), 1000);
}

TEST(SimTimeseriesUnit, OutOfOrderIntervalsThrow) {
  SimTimeseries ts;
  ts.start(2, 20.0);
  EXPECT_THROW(ts.append_interval(interval_rows(1, 2)),
               std::logic_error);  // gap
  EXPECT_THROW(ts.append_interval(interval_rows(0, 1)),
               std::logic_error);  // wrong width
  std::vector<TimeseriesRow> swapped = interval_rows(0, 2);
  std::swap(swapped[0], swapped[1]);
  EXPECT_THROW(ts.append_interval(swapped), std::logic_error);  // server order
  EXPECT_EQ(ts.num_intervals(), 0);
  ts.append_interval(interval_rows(0, 2));
  EXPECT_THROW(ts.append_interval(interval_rows(0, 2)),
               std::logic_error);  // not monotone
  EXPECT_THROW(ts.append_interval(interval_rows(2, 2)),
               std::logic_error);  // gap
  ts.append_interval(interval_rows(1, 2));
  EXPECT_EQ(ts.num_intervals(), 2);

  // A restored recorder continues at the interval it was restored to.
  SimTimeseries resumed;
  resumed.restore(2, 20.0, ts.rows(), 2);
  EXPECT_THROW(resumed.append_interval(interval_rows(1, 2)),
               std::logic_error);
  resumed.append_interval(interval_rows(2, 2));
  EXPECT_EQ(resumed.num_intervals(), 3);
}

TEST(SimTimeseriesUnit, CsvShapeMatchesHeader) {
  SimTimeseries ts;
  ts.start(2, 20.0);
  std::vector<TimeseriesRow> rows = interval_rows(0, 2);
  rows[0].uplink_bytes = 42;
  rows[0].migration_orders = 1;
  rows[1].downlink_bytes = 42;
  ts.append_interval(rows);

  std::ostringstream out;
  ts.write_csv(out);
  const std::string csv = out.str();

  std::istringstream lines(csv);
  std::string line;
  // Comment lines (schema/model metadata) precede the header.
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "# schema=2");
  while (!line.empty() && line.front() == '#')
    ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, SimTimeseries::csv_header());
  const std::size_t columns =
      static_cast<std::size_t>(
          std::count(line.begin(), line.end(), ',')) + 1;
  int data_lines = 0;
  while (std::getline(lines, line)) {
    ++data_lines;
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(line.begin(), line.end(), ',')) + 1,
              columns)
        << line;
  }
  EXPECT_EQ(data_lines, 2);
}

/// The row formatter before its cursor rewrite: one append per field. Kept
/// here as the oracle for the cursor.
void append_row_per_field(std::string& out, const TimeseriesRow& r,
                          bool with_cache_columns) {
  obs::append_json_int(out, r.interval);
  out += ',';
  obs::append_json_int(out, r.server);
  out += ',';
  obs::append_json_int(out, r.attached);
  out += ',';
  obs::append_json_int(out, r.hits);
  out += ',';
  obs::append_json_int(out, r.partials);
  out += ',';
  obs::append_json_int(out, r.misses);
  out += ',';
  obs::append_json_int(out, r.cold_window_queries);
  out += ',';
  obs::append_json_number(out, r.cold_latency_sum_s);
  out += ',';
  obs::append_json_int(out, r.uplink_bytes);
  out += ',';
  obs::append_json_int(out, r.downlink_bytes);
  out += ',';
  obs::append_json_int(out, r.migration_orders);
  out += ',';
  obs::append_json_int(out, r.predictor_samples);
  out += ',';
  obs::append_json_number(out, r.predictor_error_sum_m);
  out += ',';
  obs::append_json_int(out, r.local_queries);
  out += ',';
  obs::append_json_number(out, r.local_latency_sum_s);
  out += ',';
  obs::append_json_int(out, r.deferred_bytes);
  out += ',';
  obs::append_json_int(out, r.degraded);
  if (with_cache_columns) {
    out += ',';
    obs::append_json_int(out, r.cache_bytes);
    out += ',';
    obs::append_json_int(out, r.cache_evictions);
    out += ',';
    obs::append_json_int(out, r.cache_partial_stores);
  }
}

/// Seeded row fields that reach every branch of the number formatting:
/// zeros, small and negative values, type extremes, and doubles with 17
/// significant digits or near a point where %g switches notation.
class RowFieldSource {
 public:
  explicit RowFieldSource(std::uint64_t seed) : rng_(seed) {}

  template <typename Int>
  Int integer() {
    using Limits = std::numeric_limits<Int>;
    switch (rng_.index(6)) {
      case 0: return 0;
      case 1: return Limits::min();
      case 2: return Limits::max();
      case 3: return -static_cast<Int>(rng_.index(1000));
      case 4: return static_cast<Int>(rng_());
      default: return static_cast<Int>(rng_.index(100));
    }
  }

  double number() {
    // The nearest doubles to the powers of ten around %g's switches: below
    // 1e-4 it prints an exponent, and at 10^precision for precisions 15-17.
    static constexpr double kSwitches[] = {1e-6, 1e-5, 1e-4, 1e14, 1e15,
                                           1e16, 1e17, 1e18, 9e18, 1e19};
    double d = 0.0;
    switch (rng_.index(7)) {
      case 0:
        d = 0.0;
        break;
      case 1:
        do {
          d = std::bit_cast<double>(rng_());
        } while (!std::isfinite(d));
        break;
      case 2: {
        d = kSwitches[rng_.index(std::size(kSwitches))];
        if (rng_.bernoulli(0.5)) {
          d *= 1.0 - static_cast<double>(rng_.index(20)) * 1e-16;
        } else {
          const double toward = rng_.bernoulli(0.5) ? 0.0 : 1e300;
          for (std::size_t n = rng_.index(4); n > 0; --n)
            d = std::nextafter(d, toward);
        }
        break;
      }
      case 3:
        d = static_cast<double>(static_cast<std::int64_t>(rng_()) >>
                                rng_.index(64));
        break;
      case 4:
        d = rng_.uniform(0.0, 1000.0);
        break;
      case 5: {
        static constexpr double kExtremes[] = {
            std::numeric_limits<double>::max(),
            std::numeric_limits<double>::min(),
            std::numeric_limits<double>::denorm_min(),
            std::numeric_limits<double>::epsilon()};
        d = kExtremes[rng_.index(std::size(kExtremes))];
        break;
      }
      default:
        d = static_cast<double>(rng_.index(100000)) / 64.0;
        break;
    }
    return rng_.bernoulli(0.5) ? -d : d;
  }

 private:
  Rng rng_;
};

TEST(SimTimeseriesUnit, CursorRowMatchesThePerFieldAppends) {
  RowFieldSource source(17);
  // Rows land after existing text, as they do in an exporter's block.
  const std::string prefix = "# schema=3\n";
  std::string got = prefix;
  std::string want = prefix;
  constexpr int kRows = 1 << 20;
  for (int i = 0; i < kRows; ++i) {
    TimeseriesRow r;
    r.interval = source.integer<int>();
    r.server = source.integer<int>();
    r.attached = source.integer<int>();
    r.hits = source.integer<int>();
    r.partials = source.integer<int>();
    r.misses = source.integer<int>();
    r.cold_window_queries = source.integer<long long>();
    r.cold_latency_sum_s = source.number();
    r.uplink_bytes = source.integer<std::int64_t>();
    r.downlink_bytes = source.integer<std::int64_t>();
    r.migration_orders = source.integer<int>();
    r.predictor_samples = source.integer<int>();
    r.predictor_error_sum_m = source.number();
    r.local_queries = source.integer<long long>();
    r.local_latency_sum_s = source.number();
    r.deferred_bytes = source.integer<std::int64_t>();
    r.degraded = source.integer<int>();
    r.cache_bytes = source.integer<std::int64_t>();
    r.cache_evictions = source.integer<int>();
    r.cache_partial_stores = source.integer<int>();
    const bool cache_columns = (i & 1) != 0;
    obs::append_timeseries_row_csv(got, r, cache_columns);
    append_row_per_field(want, r, cache_columns);
    got += '\n';
    want += '\n';
    if (got.size() < (std::size_t{1} << 16) && i + 1 < kRows) continue;
    if (got != want) {
      const auto diff = static_cast<std::size_t>(
          std::mismatch(got.begin(), got.end(), want.begin(), want.end())
              .first -
          got.begin());
      const std::size_t from = diff < 80 ? 0 : diff - 80;
      FAIL() << "rows up to " << i << " differ at byte " << diff
             << "\n  cursor:     " << got.substr(from, 160)
             << "\n  per field:  " << want.substr(from, 160);
    }
    got.resize(prefix.size());
    want.resize(prefix.size());
  }
}

TEST(SimTimeseriesUnit, NonFiniteRowThrowsAndLeavesTheBufferAlone) {
  std::string out = "kept";
  TimeseriesRow r;
  r.local_latency_sum_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(obs::append_timeseries_row_csv(out, r), std::invalid_argument);
  EXPECT_EQ(out, "kept");
  r.local_latency_sum_s = 0.0;
  r.cold_latency_sum_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(obs::append_timeseries_row_csv(out, r, true),
               std::invalid_argument);
  EXPECT_EQ(out, "kept");
}

// ---------------------------------------------------------------------------
// Simulator integration: the recorder must reconcile exactly with the
// aggregate SimulationMetrics of the same run.

class TimeseriesSimTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CampusTraceConfig train_config;
    train_config.num_users = 10;
    train_config.duration = 1.5 * 3600.0;
    train_config.sample_interval = 20.0;
    train_config.seed = 100;
    CampusTraceConfig test_config = train_config;
    test_config.num_users = 6;
    test_config.seed = 200;

    config_ = new SimulationConfig;
    config_->model = ModelName::kMobileNet;
    config_->policy = MigrationPolicy::kProactive;
    config_->migration_radius_m = 100.0;
    config_->seed = 5;

    world_ = new SimulationWorld(
        build_world(*config_, generate_campus_traces(train_config),
                    generate_campus_traces(test_config)));
  }

  static void TearDownTestSuite() {
    delete world_;
    delete config_;
    world_ = nullptr;
    config_ = nullptr;
  }

  static SimulationConfig* config_;
  static SimulationWorld* world_;
};

SimulationConfig* TimeseriesSimTest::config_ = nullptr;
SimulationWorld* TimeseriesSimTest::world_ = nullptr;

TEST_F(TimeseriesSimTest, RowsAreDenseAndReconcileWithMetrics) {
  SimTimeseries ts;
  const SimulationMetrics metrics = run_simulation(*config_, *world_, &ts);

  EXPECT_EQ(ts.num_servers(), metrics.num_servers);
  EXPECT_EQ(ts.num_intervals(), metrics.num_intervals);
  EXPECT_EQ(ts.rows().size(),
            static_cast<std::size_t>(metrics.num_intervals) *
                static_cast<std::size_t>(metrics.num_servers));
  EXPECT_DOUBLE_EQ(ts.interval_length_s(), world_->interval);

  // Cold-start classifications and query counts sum to the aggregates.
  EXPECT_EQ(ts.total_hits(), metrics.hits);
  EXPECT_EQ(ts.total_partials(), metrics.partials);
  EXPECT_EQ(ts.total_misses(), metrics.misses);
  EXPECT_EQ(ts.total_cold_window_queries(), metrics.cold_window_queries);

  // Backhaul bytes: uplink attributed at senders, downlink at receivers,
  // both summing to the total the simulator reports.
  EXPECT_EQ(ts.total_uplink_bytes(),
            static_cast<std::int64_t>(metrics.total_migrated_bytes));
  EXPECT_EQ(ts.total_downlink_bytes(), ts.total_uplink_bytes());
  EXPECT_GT(ts.total_uplink_bytes(), 0);
}

TEST_F(TimeseriesSimTest, DeduplicatedOrdersCountWithZeroBytes) {
  // A push the receiver fully deduplicates moves no bytes but is still one
  // migration order at its source. On a fault-free run every order is
  // delivered, so the rows' order count equals the journal's pushes.
  SimTimeseries ts;
  SimulationRunOptions options;
  options.journal_path =
      ::testing::TempDir() + "perdnn_timeseries_dedup_journal.jsonl";
  const SimulationMetrics metrics =
      run_simulation(*config_, *world_, &ts, options);
  std::ostringstream journal;
  journal << std::ifstream(options.journal_path, std::ios::binary).rdbuf();
  std::remove(options.journal_path.c_str());
  std::vector<long long> pushes(ts.rows().size(), 0);
  long long zero_byte_pushes = 0;
  std::int64_t pushed_bytes = 0;
  for (const obs::JournalEvent& e : obs::journal_from_jsonl(journal.str())) {
    if (e.kind != obs::JournalEventKind::kMigrationPushed) continue;
    ++pushes[static_cast<std::size_t>(e.interval) *
                 static_cast<std::size_t>(ts.num_servers()) +
             static_cast<std::size_t>(e.server)];
    if (e.bytes == 0) ++zero_byte_pushes;
    pushed_bytes += e.bytes;
  }
  EXPECT_GT(zero_byte_pushes, 0) << "no order was deduplicated";
  const std::vector<TimeseriesRow> rows = ts.rows();
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(rows[i].migration_orders, pushes[i])
        << "interval " << rows[i].interval << " server " << rows[i].server;
  EXPECT_EQ(pushed_bytes, ts.total_uplink_bytes());
  EXPECT_EQ(pushed_bytes,
            static_cast<std::int64_t>(metrics.total_migrated_bytes));
}

TEST_F(TimeseriesSimTest, RecorderDoesNotPerturbTheSimulation) {
  SimTimeseries ts;
  const SimulationMetrics with = run_simulation(*config_, *world_, &ts);
  const SimulationMetrics without = run_simulation(*config_, *world_);
  EXPECT_EQ(with.cold_window_queries, without.cold_window_queries);
  EXPECT_EQ(with.hits, without.hits);
  EXPECT_EQ(with.misses, without.misses);
  EXPECT_EQ(with.server_changes, without.server_changes);
  EXPECT_EQ(with.total_migrated_bytes, without.total_migrated_bytes);
}

TEST_F(TimeseriesSimTest, ExportsAreDeterministicAcrossRuns) {
  SimTimeseries a, b;
  run_simulation(*config_, *world_, &a);
  run_simulation(*config_, *world_, &b);

  std::ostringstream csv_a, csv_b;
  a.write_csv(csv_a);
  b.write_csv(csv_b);
  EXPECT_EQ(csv_a.str(), csv_b.str());
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST_F(TimeseriesSimTest, CsvHasHeaderPlusOneLinePerRow) {
  SimTimeseries ts;
  run_simulation(*config_, *world_, &ts);
  std::ostringstream out;
  ts.write_csv(out);
  const std::string csv = out.str();
  const long lines = std::count(csv.begin(), csv.end(), '\n');
  // schema comment + header + one line per row (no model set here).
  EXPECT_EQ(lines, static_cast<long>(ts.rows().size()) + 2);
}

TEST(SimTimeseriesUnit, CsvQuoteFollowsRfc4180) {
  // Plain identifiers pass through untouched.
  EXPECT_EQ(SimTimeseries::csv_quote("mobilenet"), "mobilenet");
  EXPECT_EQ(SimTimeseries::csv_quote(""), "");
  // Commas, quotes, newlines, '#' and edge whitespace force quoting, with
  // embedded quotes doubled.
  EXPECT_EQ(SimTimeseries::csv_quote("a,b"), "\"a,b\"");
  EXPECT_EQ(SimTimeseries::csv_quote("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(SimTimeseries::csv_quote("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(SimTimeseries::csv_quote("#comment"), "\"#comment\"");
  EXPECT_EQ(SimTimeseries::csv_quote(" padded "), "\" padded \"");
}

TEST(SimTimeseriesUnit, ModelMetadataSurvivesStartAndExports) {
  SimTimeseries ts;
  ts.set_model("mobile,net \"v2\"");
  ts.start(1, 20.0);  // must NOT clear the model
  ts.append_interval(interval_rows(0, 1));

  EXPECT_EQ(ts.model(), "mobile,net \"v2\"");
  std::ostringstream out;
  ts.write_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("# model=\"mobile,net \"\"v2\"\"\"\n"),
            std::string::npos);

  const obs::JsonValue doc = obs::parse_json(ts.to_json());
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("model"), nullptr);
  EXPECT_EQ(doc.find("model")->as_string(), "mobile,net \"v2\"");
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->as_number(),
            SimTimeseries::kCsvSchemaVersion);
}

TEST_F(TimeseriesSimTest, JsonExportIsValidAndShaped) {
  SimTimeseries ts;
  run_simulation(*config_, *world_, &ts);
  const obs::JsonValue doc = obs::parse_json(ts.to_json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.find("interval_length_s")->as_number(),
                   world_->interval);
  EXPECT_EQ(doc.find("num_servers")->as_number(), ts.num_servers());
  EXPECT_EQ(doc.find("num_intervals")->as_number(), ts.num_intervals());
  const obs::JsonValue* rows = doc.find("rows");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->items().size(), ts.rows().size());
}

}  // namespace
}  // namespace perdnn
