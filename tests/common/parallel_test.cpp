#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace perdnn::par {
namespace {

/// Sets the pool size for one test and reverts to automatic resolution on
/// exit, so tests don't leak their thread count into each other.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { set_num_threads(n); }
  ~ScopedThreads() { set_num_threads(0); }
};

TEST(ParallelForTest, EmptyRangeNeverCallsBody) {
  ScopedThreads threads(4);
  std::atomic<int> calls{0};
  parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_TRUE(parallel_map(0, [](std::size_t i) { return i; }).empty());
}

TEST(ParallelForTest, RangeSmallerThanPoolCoversEveryIndexOnce) {
  ScopedThreads threads(8);
  std::vector<int> visits(3, 0);
  parallel_for(visits.size(), [&](std::size_t i) { ++visits[i]; });
  EXPECT_EQ(visits, (std::vector<int>{1, 1, 1}));
}

TEST(ParallelForTest, CoversLargeRangeExactlyOnce) {
  ScopedThreads threads(4);
  std::vector<int> visits(1000, 0);
  parallel_for(visits.size(), [&](std::size_t i) { ++visits[i]; });
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 1000);
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  ScopedThreads threads(4);
  EXPECT_THROW(parallel_for(100,
                            [&](std::size_t i) {
                              if (i == 37)
                                throw std::runtime_error("boom at 37");
                            }),
               std::runtime_error);
}

TEST(ParallelForTest, FirstErrorInChunkOrderWins) {
  ScopedThreads threads(4);
  // Two chunks throw; the caller must see the error from the earlier chunk
  // regardless of which worker finishes first.
  try {
    parallel_for(100, [&](std::size_t i) {
      if (i == 5) throw std::runtime_error("early");
      if (i == 95) throw std::runtime_error("late");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "early");
  }
}

TEST(ParallelMapTest, ResultsLandInSubmissionOrder) {
  ScopedThreads threads(4);
  const auto out = parallel_map(257, [](std::size_t i) { return 3 * i + 1; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 3 * i + 1);
}

TEST(ParallelMapTest, IdenticalAcrossThreadCounts) {
  auto run = [] {
    return parallel_map(100, [](std::size_t i) {
      double acc = 0.0;
      for (std::size_t k = 0; k <= i; ++k) acc += 0.1 * static_cast<double>(k);
      return acc;
    });
  };
  set_num_threads(1);
  const auto serial = run();
  set_num_threads(2);
  const auto two = run();
  set_num_threads(8);
  const auto eight = run();
  set_num_threads(0);
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
}

TEST(ParallelRuntimeTest, SingleThreadBypassesThePool) {
  ScopedThreads threads(1);
  EXPECT_EQ(num_threads(), 1);
  const auto caller = std::this_thread::get_id();
  parallel_for(16, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_FALSE(ThreadPool::on_worker_thread());
  });
}

TEST(ParallelRuntimeTest, NestedRegionsRunInlineAndStayCorrect) {
  ScopedThreads threads(4);
  const auto out = parallel_map(8, [](std::size_t i) {
    // Inner region runs inline on whichever thread executes `i`.
    const auto inner =
        parallel_map(10, [i](std::size_t j) { return i * 100 + j; });
    std::size_t sum = 0;
    for (std::size_t v : inner) sum += v;
    return sum;
  });
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], i * 1000 + 45);
}

TEST(ParallelRuntimeTest, NumThreadsHonoursOverride) {
  set_num_threads(5);
  EXPECT_EQ(num_threads(), 5);
  set_num_threads(0);
  EXPECT_GE(num_threads(), 1);
  EXPECT_GE(hardware_threads(), 1);
}

TEST(ParallelRuntimeTest, InitThreadsFromCliStripsFlag) {
  char prog[] = "prog";
  char flag[] = "--threads";
  char value[] = "3";
  char other[] = "positional";
  char* argv[] = {prog, flag, value, other, nullptr};
  const int argc = init_threads_from_cli(4, argv);
  EXPECT_EQ(argc, 2);
  EXPECT_STREQ(argv[0], "prog");
  EXPECT_STREQ(argv[1], "positional");
  EXPECT_EQ(num_threads(), 3);

  char eq[] = "--threads=2";
  char* argv2[] = {prog, eq, nullptr};
  EXPECT_EQ(init_threads_from_cli(2, argv2), 1);
  EXPECT_EQ(num_threads(), 2);
  set_num_threads(0);
}

TEST(ParallelRuntimeDeathTest, InitThreadsFromCliRejectsValuesOutsideInt) {
  // Each value used to reach set_num_threads truncated to int: 2^32 + 1 ran
  // one thread, and 2^31 wrapped negative and aborted on a check. Trailing
  // characters were rejected already.
  for (const char* value : {"4294967297", "2147483648", "2x"}) {
    std::string flag = std::string("--threads=") + value;
    char prog[] = "prog";
    char* argv[] = {prog, flag.data(), nullptr};
    EXPECT_EXIT(init_threads_from_cli(2, argv), ::testing::ExitedWithCode(2),
                "--threads expects an integer >= 1")
        << value;
  }
}

TEST(ParallelRuntimeTest, EnvThreadsOutsideIntFallBackToAutomatic) {
  // A PERDNN_THREADS value that is not a whole int >= 1 is ignored, as
  // garbage is: the count resolves as if it were unset.
  set_num_threads(0);
  const char* saved = std::getenv("PERDNN_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  ::unsetenv("PERDNN_THREADS");
  const int automatic = num_threads();
  for (const char* value : {"4294967298", "2147483648", "2x", "0", ""}) {
    ::setenv("PERDNN_THREADS", value, 1);
    EXPECT_EQ(num_threads(), automatic) << "PERDNN_THREADS=" << value;
  }
  ::setenv("PERDNN_THREADS", "3", 1);
  EXPECT_EQ(num_threads(), 3);
  if (saved != nullptr) {
    ::setenv("PERDNN_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("PERDNN_THREADS");
  }
}

}  // namespace
}  // namespace perdnn::par
