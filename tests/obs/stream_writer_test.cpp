// The streamed journal and timeseries writers against the buffered
// encoders. The journals here run to several MiB, dozens of batches, so the
// ring of queued batches fills and drains many times; the simulator tests
// stream far less. The multi-batch journal cases run at 1, 2 and 4 threads:
// inline formatting, then batches formatted by drain tasks on pool workers
// (and by the recording thread when its ring is full) and written in record
// order.
#include "obs/stream_writer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/timeseries.hpp"

namespace perdnn::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Byte equality for multi-MiB texts: on failure, reports the first
/// differing byte with some context instead of printing both texts.
::testing::AssertionResult same_text(const std::string& got,
                                     const std::string& want) {
  const auto [g, w] =
      std::mismatch(got.begin(), got.end(), want.begin(), want.end());
  if (g == got.end() && w == want.end())
    return ::testing::AssertionSuccess();
  const auto at = static_cast<std::size_t>(g - got.begin());
  const std::size_t from = at < 80 ? 0 : at - 80;
  return ::testing::AssertionFailure()
         << "texts differ at byte " << at << " (sizes " << got.size()
         << " and " << want.size() << ")\n got: " << got.substr(from, 160)
         << "\nwant: " << want.substr(from, 160);
}

// Named per test case: ctest runs each case as its own process.
std::string case_path(const char* suffix) {
  return ::testing::TempDir() +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         suffix;
}

/// One step of a seeded journal: either a chain start for `client` or an
/// event (chain 0, to be filled from the client's binding).
struct Step {
  bool begin_chain = false;
  JournalEvent event;
};

/// Seeded steps shaped like a simulator journal: attaches open chains, most
/// events name a client, some name none (-1), and a third carry a
/// fractional value with 16-17 significant digits, as latencies do.
std::vector<Step> seeded_steps(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> client(-1, 4999);
  std::uniform_int_distribution<int> kind(
      0, static_cast<int>(JournalEventKind::kCachePartial));
  std::uniform_real_distribution<double> latency(0.0, 2.0);
  std::vector<Step> steps;
  steps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Step s;
    s.event.interval = static_cast<int>(i / 2000);
    s.event.kind = static_cast<JournalEventKind>(kind(rng));
    s.event.client = client(rng);
    s.event.server = static_cast<ServerId>(rng() % 400);
    s.event.peer = rng() % 4 == 0 ? static_cast<ServerId>(rng() % 400)
                                  : kNoServer;
    s.event.bytes = static_cast<Bytes>(rng() % 50'000'000);
    s.event.detail = static_cast<std::int32_t>(rng() % 8);
    s.event.aux = static_cast<std::int32_t>(rng() % 100);
    s.event.value = rng() % 3 == 0 ? latency(rng) : 0.0;
    s.begin_chain =
        s.event.kind == JournalEventKind::kAttach && s.event.client >= 0;
    steps.push_back(s);
  }
  return steps;
}

template <typename Sink>
void play(const std::vector<Step>& steps, std::size_t from, std::size_t to,
          Sink& sink) {
  for (std::size_t i = from; i < to; ++i) {
    JournalEvent e = steps[i].event;
    if (steps[i].begin_chain) e.chain = sink.begin_chain(e.client);
    sink.record(e);
  }
}

/// The reference bytes: the steps' chains filled by the documented rules
/// (numbered from 1 in begin order, a zero chain taken from the client's
/// latest binding), encoded in one piece by journal_to_jsonl.
std::string buffered_jsonl(const std::vector<Step>& steps) {
  std::map<ClientId, std::uint64_t> bound;
  std::uint64_t next_chain = 1;
  std::vector<JournalEvent> events;
  events.reserve(steps.size());
  for (const Step& step : steps) {
    JournalEvent e = step.event;
    if (step.begin_chain) {
      e.chain = bound[e.client] = next_chain++;
    } else if (e.chain == 0 && bound.count(e.client) != 0) {
      e.chain = bound[e.client];
    }
    events.push_back(e);
  }
  return journal_to_jsonl(events);
}

constexpr std::size_t kEvents = 40'000;  // ~5 MiB of JSONL
// Neither a whole number of batches: the last one is partial.
static_assert(kEvents % JournalStreamWriter::kBatchEvents != 0);

/// The thread counts the multi-block cases run at: the caller formats every
/// batch at 1; at 2 one batch and at 4 up to three are on workers at once.
constexpr int kThreadLegs[] = {1, 2, 4};

/// Fixes the pool size for one leg and restores automatic sizing after it.
/// Declare it before the writer, so the writer is gone first.
class ThreadLeg {
 public:
  explicit ThreadLeg(int threads) { par::set_num_threads(threads); }
  ~ThreadLeg() { par::set_num_threads(0); }
  ThreadLeg(const ThreadLeg&) = delete;
  ThreadLeg& operator=(const ThreadLeg&) = delete;
};

TEST(JournalStreamWriterTest, MultiBlockStreamEqualsBufferedExport) {
  const std::vector<Step> steps = seeded_steps(kEvents, 11);
  const std::string want = buffered_jsonl(steps);
  ASSERT_GT(want.size(), 4u * kOutputBlockBytes);

  std::optional<JournalStreamState> first_leg;
  for (const int threads : kThreadLegs) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const ThreadLeg leg(threads);
    const std::string path = case_path(".jsonl");
    JournalStreamWriter writer(path);
    play(steps, 0, steps.size(), writer);
    writer.flush();
    EXPECT_EQ(writer.events_written(), steps.size());
    EXPECT_EQ(writer.bytes_written(), want.size());
    EXPECT_EQ(writer.bytes_written(), std::filesystem::file_size(path));
    EXPECT_TRUE(same_text(slurp(path), want));
    const JournalStreamState state = writer.state();
    if (!first_leg) first_leg = state;
    EXPECT_EQ(state, *first_leg);
  }
}

TEST(JournalStreamWriterTest, BytesWrittenCountsEveryRecordedLine) {
  const std::vector<Step> steps = seeded_steps(2'000, 12);
  const std::string want = buffered_jsonl(steps);
  for (const int threads : kThreadLegs) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const ThreadLeg leg(threads);
    const std::string path = case_path(".jsonl");
    JournalStreamWriter writer(path);
    play(steps, 0, steps.size(), writer);
    // Before a flush the count already covers every line, the open
    // partial batch included.
    EXPECT_EQ(writer.bytes_written(), want.size());
    writer.flush();
    EXPECT_TRUE(same_text(slurp(path), want));
  }
}

TEST(JournalStreamWriterTest, DestructionWithoutFlushLosesNothing) {
  for (const int threads : kThreadLegs) {
    // The last count is 64 full batches and a partial one, recorded back to
    // back: with workers, the writer is destroyed with its ring full.
    for (const std::size_t n :
         {std::size_t{1'500}, kEvents,
          64 * JournalStreamWriter::kBatchEvents + 500}) {
      const std::vector<Step> steps = seeded_steps(n, 13);
      const std::string path = case_path(".jsonl");
      {
        const ThreadLeg leg(threads);
        JournalStreamWriter writer(path);
        play(steps, 0, steps.size(), writer);
        // Destroyed at once: with workers, the last full batch is still
        // being formatted and the partial one was never handed off.
      }
      EXPECT_TRUE(same_text(slurp(path), buffered_jsonl(steps)))
          << n << " events, " << threads << " threads";
    }
  }
}

TEST(JournalStreamWriterTest, BusyPoolLeavesTheRecordingThreadToDrain) {
  const std::vector<Step> steps = seeded_steps(kEvents, 16);
  const std::string want = buffered_jsonl(steps);
  const ThreadLeg leg(2);
  // Every pool worker blocks on a latch, so the drain tasks the writer
  // submits wait in the queue behind them.
  struct Gate {
    explicit Gate(int workers) : started(workers) {}
    std::latch started;
    std::latch release{1};
  };
  par::ThreadPool& pool = par::ThreadPool::global();
  const auto gate = std::make_shared<Gate>(pool.size());
  for (int w = 0; w < pool.size(); ++w)
    pool.submit([gate] {
      gate->started.count_down();
      gate->release.wait();
    });
  gate->started.wait();

  const std::string path = case_path(".jsonl");
  {
    JournalStreamWriter writer(path);
    // Far more batches than the ring holds: once it is full, the recording
    // thread formats and commits on its own, so whole batches reach the
    // file.
    play(steps, 0, steps.size(), writer);
    // What has not reached the file, the ring's batches, the open one and
    // the file stream's own buffer, is less than 1 MiB.
    EXPECT_GE(std::filesystem::file_size(path) + kOutputBlockBytes,
              want.size());
    // Draining does not wait for the queued tasks either.
    EXPECT_EQ(writer.bytes_written(), want.size());
    gate->release.count_down();
    writer.flush();
    EXPECT_EQ(writer.events_written(), steps.size());
    EXPECT_EQ(writer.bytes_written(), std::filesystem::file_size(path));
  }
  EXPECT_TRUE(same_text(slurp(path), want));
}

TEST(JournalStreamWriterTest, ResumeAtMidFileOffsetReproducesStraightFile) {
  const std::vector<Step> steps = seeded_steps(kEvents, 14);
  const std::size_t split = steps.size() / 2 + 123;
  // The checkpoint falls inside a batch.
  ASSERT_NE(split % JournalStreamWriter::kBatchEvents, 0u);
  const std::string want = buffered_jsonl(steps);

  std::optional<JournalStreamState> first_leg;
  for (const int threads : kThreadLegs) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const ThreadLeg leg(threads);
    const std::string path = case_path(".jsonl");

    JournalStreamState checkpoint;
    {
      JournalStreamWriter writer(path);
      play(steps, 0, split, writer);
      writer.flush();  // the checkpoint
      checkpoint = writer.state();
      EXPECT_EQ(checkpoint.bytes, writer.bytes_written());
      EXPECT_EQ(checkpoint.events, split);
      EXPECT_EQ(checkpoint.next_chain, writer.next_chain());
      EXPECT_EQ(checkpoint.client_chains, writer.client_chains());
      if (!first_leg) first_leg = checkpoint;
      EXPECT_EQ(checkpoint, *first_leg);
      // The killed run got further: more than 1 MiB past the checkpoint.
      play(steps, split, steps.size() - 100, writer);
    }
    const std::string torn_line = "{\"interval\":999,\"kind\":\"atta";
    {
      // ...and was cut off inside a line.
      std::ofstream torn(path, std::ios::binary | std::ios::app);
      torn << torn_line;
    }
    // Every line the killed run recorded reached the file before the torn
    // one.
    const std::string killed = buffered_jsonl(
        std::vector<Step>(steps.begin(), steps.end() - 100));
    ASSERT_GT(killed.size(), checkpoint.bytes + kOutputBlockBytes);
    ASSERT_EQ(std::filesystem::file_size(path),
              killed.size() + torn_line.size());

    {
      JournalStreamWriter resumed(path, checkpoint);
      EXPECT_EQ(resumed.state(), checkpoint);
      play(steps, split, steps.size(), resumed);
      resumed.flush();
      EXPECT_EQ(resumed.events_written(), steps.size());
      EXPECT_EQ(resumed.bytes_written(), want.size());
      EXPECT_EQ(resumed.bytes_written(), std::filesystem::file_size(path));
    }
    EXPECT_TRUE(same_text(slurp(path), want));

    // A checkpoint offset past the end of the file is refused.
    JournalStreamState past_end;
    past_end.bytes = 1u << 30;
    EXPECT_THROW(JournalStreamWriter(path, past_end), std::runtime_error);
  }
}

TEST(JournalStreamWriterTest, NonFiniteValueThrowsOnTheCaller) {
  const std::vector<Step> steps =
      seeded_steps(2 * JournalStreamWriter::kBatchEvents + 300, 15);
  const std::string want = buffered_jsonl(steps);
  for (const int threads : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const ThreadLeg leg(threads);
    const std::string path = case_path(".jsonl");
    JournalStreamWriter writer(path);
    play(steps, 0, steps.size(), writer);
    // Every batch so far is in the file, so the flush below hands the next
    // batch to an idle worker: a value that got past record() would throw
    // there and terminate the process.
    const std::uint64_t bytes = writer.bytes_written();
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
      JournalEvent event = steps.front().event;
      event.value = bad;
      EXPECT_THROW(writer.record(event), std::invalid_argument) << bad;
      EXPECT_EQ(writer.events_written(), steps.size()) << bad;
    }
    writer.flush();
    EXPECT_EQ(writer.bytes_written(), bytes);
    EXPECT_TRUE(same_text(slurp(path), want));
  }
}

TEST(JournalStreamWriterTest, ClientChainsAreSortedForSparseAndNegativeIds) {
  const std::string path = case_path(".jsonl");
  JournalStreamWriter writer(path);
  EXPECT_EQ(writer.begin_chain(1000), 1u);
  EXPECT_EQ(writer.begin_chain(3), 2u);
  EXPECT_EQ(writer.begin_chain(-1), 3u);  // numbered, never bound
  EXPECT_EQ(writer.begin_chain(70'000), 4u);
  EXPECT_EQ(writer.begin_chain(3), 5u);  // rebinding replaces
  EXPECT_EQ(writer.next_chain(), 6u);

  const std::vector<std::pair<ClientId, std::uint64_t>> want = {
      {3, 5}, {1000, 1}, {70'000, 4}};
  EXPECT_EQ(writer.client_chains(), want);
  EXPECT_EQ(writer.chain_of(3), 5u);
  EXPECT_EQ(writer.chain_of(-1), 0u);
  EXPECT_EQ(writer.chain_of(4), 0u);
  EXPECT_EQ(writer.chain_of(1'000'000), 0u);

  // Auto-fill reads the binding; client -1 keeps chain 0; an explicit chain
  // is left alone.
  writer.record({.interval = 0, .kind = JournalEventKind::kColdServe,
                 .client = 1000});
  writer.record({.interval = 0, .kind = JournalEventKind::kFaultApplied,
                 .client = -1});
  writer.record({.interval = 0, .kind = JournalEventKind::kPlan, .chain = 9,
                 .client = 3});
  writer.flush();
  const std::vector<JournalEvent> events = journal_from_jsonl(slurp(path));
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].chain, 1u);
  EXPECT_EQ(events[1].chain, 0u);
  EXPECT_EQ(events[2].chain, 9u);

  // A resume restores exactly these bindings; a negative id in the list is
  // dropped like any other.
  JournalStreamState stored = writer.state();
  stored.client_chains.insert(stored.client_chains.begin(), {-1, 3});
  JournalStreamWriter resumed(path, stored);
  EXPECT_EQ(resumed.client_chains(), want);
  EXPECT_EQ(resumed.chain_of(70'000), 4u);
  EXPECT_EQ(resumed.begin_chain(5), 6u);
}

/// Seeded rows, one per server per interval, with fractional sums.
std::vector<TimeseriesRow> seeded_rows(int servers, int intervals,
                                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> real(0.0, 50.0);
  std::vector<TimeseriesRow> rows;
  for (int t = 0; t < intervals; ++t) {
    for (int s = 0; s < servers; ++s) {
      TimeseriesRow r{.interval = t, .server = s};
      r.attached = static_cast<int>(rng() % 300);
      r.hits = static_cast<int>(rng() % 5);
      r.misses = static_cast<int>(rng() % 9);
      r.cold_window_queries = static_cast<long long>(rng() % 1000);
      r.cold_latency_sum_s = real(rng);
      r.uplink_bytes = static_cast<std::int64_t>(rng() % 90'000'000);
      r.downlink_bytes = static_cast<std::int64_t>(rng() % 90'000'000);
      r.predictor_samples = static_cast<int>(rng() % 40);
      r.predictor_error_sum_m = real(rng) * 10.0;
      r.local_latency_sum_s = rng() % 2 == 0 ? real(rng) : 0.0;
      r.cache_bytes = static_cast<std::int64_t>(rng() % 9'000'000'000);
      r.cache_evictions = static_cast<int>(rng() % 3);
      rows.push_back(r);
    }
  }
  return rows;
}

TEST(TimeseriesStreamWriterTest, StreamEqualsWriteCsv) {
  constexpr int kServers = 400;
  // ~1.6 MiB of CSV: more than one of write_csv's 1 MiB blocks.
  constexpr int kIntervals = 40;
  const std::vector<TimeseriesRow> rows =
      seeded_rows(kServers, kIntervals, 21);
  std::vector<std::vector<TimeseriesRow>> intervals;
  for (int t = 0; t < kIntervals; ++t)
    intervals.emplace_back(rows.begin() + t * kServers,
                           rows.begin() + (t + 1) * kServers);
  for (const bool cache_columns : {false, true}) {
    SimTimeseries ts;
    ts.set_model("mobile,net \"v2\"");
    ts.start(kServers, 20.0);
    if (cache_columns) ts.enable_cache_columns();
    for (const std::vector<TimeseriesRow>& interval : intervals)
      ts.append_interval(interval);
    std::ostringstream buffered;
    ts.write_csv(buffered);
    ASSERT_GT(buffered.str().size(), kOutputBlockBytes);

    const std::string path = case_path(".csv");
    {
      TimeseriesStreamWriter writer(path, ts.model(), cache_columns);
      for (const std::vector<TimeseriesRow>& interval : intervals)
        writer.append_interval(interval);
      writer.flush();
      EXPECT_EQ(writer.rows_written(), rows.size());
      EXPECT_EQ(writer.bytes_written(), std::filesystem::file_size(path));
    }
    EXPECT_TRUE(same_text(slurp(path), buffered.str()))
        << "cache columns " << cache_columns;

    // Resume from the middle, past a torn row, then destroy unflushed.
    const std::size_t split = intervals.size() / 3;
    std::uint64_t bytes = 0;
    {
      TimeseriesStreamWriter writer(path, ts.model(), cache_columns);
      for (std::size_t t = 0; t < split; ++t)
        writer.append_interval(intervals[t]);
      writer.flush();
      bytes = writer.bytes_written();
      for (std::size_t t = split; t < intervals.size(); ++t)
        writer.append_interval(intervals[t]);
    }
    {
      std::ofstream torn(path, std::ios::binary | std::ios::app);
      torn << "9,9,9,garbage";
    }
    {
      TimeseriesStreamWriter writer(path, Resume{bytes}, split * kServers,
                                    cache_columns);
      for (std::size_t t = split; t < intervals.size(); ++t)
        writer.append_interval(intervals[t]);
      EXPECT_EQ(writer.rows_written(), rows.size());
    }
    EXPECT_TRUE(same_text(slurp(path), buffered.str()))
        << "cache columns " << cache_columns;
  }
}

}  // namespace
}  // namespace perdnn::obs
