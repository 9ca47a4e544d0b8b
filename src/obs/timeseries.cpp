#include "obs/timeseries.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>

#include "common/check.hpp"
#include "obs/json.hpp"

namespace perdnn::obs {

namespace {

// Room one CSV row can need: 20 columns, none longer than a json_number
// with its separator.
constexpr std::size_t kMaxCsvRow = 20 * kJsonNumberMaxChars;

/// Rows of a run of `num_intervals` intervals over `num_servers` servers.
std::size_t run_rows(int num_servers, int num_intervals) {
  PERDNN_CHECK(num_intervals >= 0);
  return static_cast<std::size_t>(num_servers) *
         static_cast<std::size_t>(num_intervals);
}

}  // namespace

void append_timeseries_csv_preamble(std::string& out, const std::string& model,
                                    bool with_cache_columns) {
  out += "# schema=";
  append_json_int(out, with_cache_columns
                           ? SimTimeseries::kCsvCacheSchemaVersion
                           : SimTimeseries::kCsvSchemaVersion);
  out += '\n';
  if (!model.empty())
    out += "# model=" + SimTimeseries::csv_quote(model) + '\n';
  out += SimTimeseries::csv_header(with_cache_columns);
  out += '\n';
}

void append_timeseries_row_csv(std::string& out, const TimeseriesRow& r,
                               bool with_cache_columns) {
  // The doubles are formatted first: a NaN throws before `out` changes.
  char cold[kJsonNumberMaxChars];
  char error[kJsonNumberMaxChars];
  char local[kJsonNumberMaxChars];
  const char* const cold_end = format_json_number(cold, r.cold_latency_sum_s);
  const char* const error_end =
      format_json_number(error, r.predictor_error_sum_m);
  const char* const local_end =
      format_json_number(local, r.local_latency_sum_s);

  // One resize, then a cursor: each column is one to_chars or one copy and
  // its separator, and the final resize cuts the last separator.
  const std::size_t start = out.size();
  out.resize(start + kMaxCsvRow);
  char* p = out.data() + start;
  const auto put = [&p](auto value) {
    p = std::to_chars(p, p + 20, value).ptr;
    *p++ = ',';
  };
  const auto put_text = [&p](const char* first, const char* last) {
    p = std::copy(first, last, p);
    *p++ = ',';
  };
  put(r.interval);
  put(r.server);
  put(r.attached);
  put(r.hits);
  put(r.partials);
  put(r.misses);
  put(r.cold_window_queries);
  put_text(cold, cold_end);
  put(r.uplink_bytes);
  put(r.downlink_bytes);
  put(r.migration_orders);
  put(r.predictor_samples);
  put_text(error, error_end);
  put(r.local_queries);
  put_text(local, local_end);
  put(r.deferred_bytes);
  put(r.degraded);
  if (with_cache_columns) {
    put(r.cache_bytes);
    put(r.cache_evictions);
    put(r.cache_partial_stores);
  }
  out.resize(static_cast<std::size_t>(p - 1 - out.data()));
}

void SimTimeseries::start(int num_servers, double interval_length_s,
                          int num_intervals) {
  PERDNN_CHECK(num_servers >= 0);
  std::lock_guard<std::mutex> lock(mu_);
  num_servers_ = num_servers;
  interval_length_s_ = interval_length_s;
  next_interval_ = 0;
  rows_.clear();
  rows_.reserve(run_rows(num_servers, num_intervals));
}

void SimTimeseries::restore(int num_servers, double interval_length_s,
                            std::vector<TimeseriesRow> rows,
                            int next_interval, int num_intervals) {
  PERDNN_CHECK(num_servers >= 0);
  PERDNN_CHECK(next_interval >= 0);
  PERDNN_CHECK_MSG(
      num_servers == 0 || rows.size() % static_cast<std::size_t>(num_servers) == 0,
      "restored timeseries rows must cover whole intervals");
  std::lock_guard<std::mutex> lock(mu_);
  num_servers_ = num_servers;
  interval_length_s_ = interval_length_s;
  next_interval_ = next_interval;
  rows_ = std::move(rows);
  rows_.reserve(run_rows(num_servers, num_intervals));
}

void SimTimeseries::set_model(std::string model_name) {
  std::lock_guard<std::mutex> lock(mu_);
  model_ = std::move(model_name);
}

std::string SimTimeseries::model() const {
  std::lock_guard<std::mutex> lock(mu_);
  return model_;
}

void SimTimeseries::append_interval(const std::vector<TimeseriesRow>& rows) {
  std::lock_guard<std::mutex> lock(mu_);
  PERDNN_CHECK_MSG(rows.size() == static_cast<std::size_t>(num_servers_),
                   "an interval needs one row per server");
  for (std::size_t s = 0; s < rows.size(); ++s)
    PERDNN_CHECK_MSG(rows[s].interval == next_interval_ &&
                         rows[s].server == static_cast<int>(s),
                     "intervals must be appended in order, one row per "
                     "server in server order");
  rows_.insert(rows_.end(), rows.begin(), rows.end());
  ++next_interval_;
}

void SimTimeseries::enable_cache_columns() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_columns_ = true;
}

bool SimTimeseries::cache_columns_enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_columns_;
}

int SimTimeseries::csv_schema() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_columns_ ? kCsvCacheSchemaVersion : kCsvSchemaVersion;
}

int SimTimeseries::num_servers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_servers_;
}

int SimTimeseries::num_intervals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_servers_ > 0
             ? static_cast<int>(rows_.size()) / num_servers_
             : 0;
}

double SimTimeseries::interval_length_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return interval_length_s_;
}

std::vector<TimeseriesRow> SimTimeseries::rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_;
}

#define PERDNN_TS_SUM(type, name, field)          \
  type SimTimeseries::name() const {              \
    std::lock_guard<std::mutex> lock(mu_);        \
    type total = 0;                               \
    for (const TimeseriesRow& r : rows_) total += r.field; \
    return total;                                 \
  }

PERDNN_TS_SUM(long long, total_hits, hits)
PERDNN_TS_SUM(long long, total_partials, partials)
PERDNN_TS_SUM(long long, total_misses, misses)
PERDNN_TS_SUM(long long, total_cold_window_queries, cold_window_queries)
PERDNN_TS_SUM(std::int64_t, total_uplink_bytes, uplink_bytes)
PERDNN_TS_SUM(std::int64_t, total_downlink_bytes, downlink_bytes)
PERDNN_TS_SUM(long long, total_local_queries, local_queries)
PERDNN_TS_SUM(std::int64_t, total_deferred_bytes, deferred_bytes)
PERDNN_TS_SUM(long long, total_degraded, degraded)
PERDNN_TS_SUM(long long, total_cache_evictions, cache_evictions)
PERDNN_TS_SUM(long long, total_cache_partial_stores, cache_partial_stores)

#undef PERDNN_TS_SUM

const char* SimTimeseries::csv_header(bool with_cache_columns) {
  return with_cache_columns
             ? "interval,server,attached,hits,partials,misses,"
               "cold_window_queries,cold_latency_sum_s,uplink_bytes,"
               "downlink_bytes,migration_orders,predictor_samples,"
               "predictor_error_sum_m,local_queries,local_latency_sum_s,"
               "deferred_bytes,degraded,cache_bytes,cache_evictions,"
               "cache_partial_stores"
             : "interval,server,attached,hits,partials,misses,"
               "cold_window_queries,cold_latency_sum_s,uplink_bytes,"
               "downlink_bytes,migration_orders,predictor_samples,"
               "predictor_error_sum_m,local_queries,local_latency_sum_s,"
               "deferred_bytes,degraded";
}

std::string SimTimeseries::csv_quote(const std::string& value) {
  bool needs_quotes = false;
  for (const char ch : value)
    if (ch == ',' || ch == '"' || ch == '\n' || ch == '\r' || ch == '#')
      needs_quotes = true;
  if (!value.empty() && (value.front() == ' ' || value.back() == ' '))
    needs_quotes = true;
  if (!needs_quotes) return value;
  std::string out = "\"";
  for (const char ch : value) {
    if (ch == '"') out.push_back('"');  // RFC 4180: double embedded quotes
    out.push_back(ch);
  }
  out.push_back('"');
  return out;
}

void SimTimeseries::write_csv(std::ostream& out) const {
  // Formatted under the lock straight from rows_: a copy of the store would
  // double the exporter's memory on long runs.
  std::lock_guard<std::mutex> lock(mu_);
  std::string block;
  append_timeseries_csv_preamble(block, model_, cache_columns_);
  for (const TimeseriesRow& r : rows_) {
    append_timeseries_row_csv(block, r, cache_columns_);
    block += '\n';
    if (block.size() >= kOutputBlockBytes) {
      out.write(block.data(), static_cast<std::streamsize>(block.size()));
      block.clear();
    }
  }
  out.write(block.data(), static_cast<std::streamsize>(block.size()));
}

std::string SimTimeseries::to_json() const {
  std::vector<TimeseriesRow> rows;
  std::string model;
  int num_servers;
  double interval_length;
  bool cache_columns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rows = rows_;
    model = model_;
    num_servers = num_servers_;
    interval_length = interval_length_s_;
    cache_columns = cache_columns_;
  }
  std::vector<JsonValue> items;
  items.reserve(rows.size());
  for (const TimeseriesRow& r : rows) {
    std::vector<std::pair<std::string, JsonValue>> m;
    m.emplace_back("interval", JsonValue::make_number(r.interval));
    m.emplace_back("server", JsonValue::make_number(r.server));
    m.emplace_back("attached", JsonValue::make_number(r.attached));
    m.emplace_back("hits", JsonValue::make_number(r.hits));
    m.emplace_back("partials", JsonValue::make_number(r.partials));
    m.emplace_back("misses", JsonValue::make_number(r.misses));
    m.emplace_back("cold_window_queries",
                   JsonValue::make_number(
                       static_cast<double>(r.cold_window_queries)));
    m.emplace_back("cold_latency_sum_s",
                   JsonValue::make_number(r.cold_latency_sum_s));
    m.emplace_back("uplink_bytes",
                   JsonValue::make_number(
                       static_cast<double>(r.uplink_bytes)));
    m.emplace_back("downlink_bytes",
                   JsonValue::make_number(
                       static_cast<double>(r.downlink_bytes)));
    m.emplace_back("migration_orders",
                   JsonValue::make_number(r.migration_orders));
    m.emplace_back("predictor_samples",
                   JsonValue::make_number(r.predictor_samples));
    m.emplace_back("predictor_error_sum_m",
                   JsonValue::make_number(r.predictor_error_sum_m));
    m.emplace_back("local_queries",
                   JsonValue::make_number(
                       static_cast<double>(r.local_queries)));
    m.emplace_back("local_latency_sum_s",
                   JsonValue::make_number(r.local_latency_sum_s));
    m.emplace_back("deferred_bytes",
                   JsonValue::make_number(
                       static_cast<double>(r.deferred_bytes)));
    m.emplace_back("degraded", JsonValue::make_number(r.degraded));
    if (cache_columns) {
      m.emplace_back("cache_bytes",
                     JsonValue::make_number(
                         static_cast<double>(r.cache_bytes)));
      m.emplace_back("cache_evictions",
                     JsonValue::make_number(r.cache_evictions));
      m.emplace_back("cache_partial_stores",
                     JsonValue::make_number(r.cache_partial_stores));
    }
    items.push_back(JsonValue::make_object(std::move(m)));
  }
  std::vector<std::pair<std::string, JsonValue>> doc;
  doc.emplace_back("schema",
                   JsonValue::make_number(cache_columns
                                              ? kCsvCacheSchemaVersion
                                              : kCsvSchemaVersion));
  doc.emplace_back("model", JsonValue::make_string(model));
  doc.emplace_back("interval_length_s",
                   JsonValue::make_number(interval_length));
  doc.emplace_back("num_servers", JsonValue::make_number(num_servers));
  doc.emplace_back("num_intervals",
                   JsonValue::make_number(
                       num_servers > 0
                           ? static_cast<double>(rows.size()) / num_servers
                           : 0.0));
  doc.emplace_back("rows", JsonValue::make_array(std::move(items)));
  return JsonValue::make_object(std::move(doc)).serialize();
}

void SimTimeseries::write_json(std::ostream& out) const { out << to_json(); }

}  // namespace perdnn::obs
