#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>

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
  obs::Journal journal;
  SimulationRunOptions options;
  options.journal = &journal;
  const SimulationMetrics metrics =
      run_simulation(*config_, *world_, &ts, options);
  std::vector<long long> pushes(ts.rows().size(), 0);
  long long zero_byte_pushes = 0;
  std::int64_t pushed_bytes = 0;
  for (const obs::JournalEvent& e : journal.events()) {
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
