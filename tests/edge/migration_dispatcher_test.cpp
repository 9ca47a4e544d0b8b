#include "edge/migration_dispatcher.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace perdnn {
namespace {

TEST(MigrationDispatcherTest, ValidatesConfig) {
  EXPECT_THROW(MigrationDispatcher({.max_attempts = 0}), std::logic_error);
  EXPECT_THROW(MigrationDispatcher({.initial_backoff_intervals = 0}),
               std::logic_error);
  EXPECT_THROW(MigrationDispatcher({.initial_backoff_intervals = 8,
                                    .max_backoff_intervals = 4}),
               std::logic_error);
  EXPECT_NO_THROW(MigrationDispatcher{});
}

TEST(MigrationDispatcherTest, BackoffDoublesPerFailureUpToTheCap) {
  MigrationDispatcher dispatcher(
      {.max_attempts = 6, .initial_backoff_intervals = 1,
       .max_backoff_intervals = 4});
  dispatcher.defer(/*client=*/0, /*source=*/0, /*target=*/1, {2, 3},
                   /*bytes=*/100, /*now_interval=*/10);

  // First retry after the initial backoff: due at 11, not 10.
  EXPECT_TRUE(dispatcher.due(10).empty());
  auto due = dispatcher.due(11);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].attempts, 2);

  // Each failure doubles the wait: 1, 2, 4, then capped at 4.
  int expected_backoff = 2;
  int now = 11;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(dispatcher.fail(std::move(due[0]), now));
    EXPECT_TRUE(dispatcher.due(now + expected_backoff - 1).empty());
    due = dispatcher.due(now + expected_backoff);
    ASSERT_EQ(due.size(), 1u);
    now += expected_backoff;
    expected_backoff = std::min(expected_backoff * 2, 4);
  }
  EXPECT_EQ(due[0].attempts, 5);
}

TEST(MigrationDispatcherTest, AbandonsAfterAttemptBudgetAndTracksBytes) {
  MigrationDispatcher dispatcher(
      {.max_attempts = 3, .initial_backoff_intervals = 1,
       .max_backoff_intervals = 16});
  dispatcher.defer(0, 0, 1, {5}, 40, 0);
  dispatcher.defer(1, 2, 3, {6}, 60, 0);
  EXPECT_EQ(dispatcher.backlog_bytes(), 100);
  EXPECT_EQ(dispatcher.backlog_orders(), 2);
  EXPECT_EQ(dispatcher.total_deferred_bytes(), 100);
  EXPECT_EQ(dispatcher.deferred_orders(), 2);

  // Attempt 2 for both: one succeeds, one fails (re-parked).
  auto due = dispatcher.due(1);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(dispatcher.backlog_bytes(), 0);  // popped orders leave the backlog
  EXPECT_EQ(dispatcher.retries(), 2);
  dispatcher.succeed(due[0]);
  EXPECT_TRUE(dispatcher.fail(std::move(due[1]), 1));
  EXPECT_EQ(dispatcher.backlog_bytes(), 60);

  // Attempt 3 fails too: the budget is spent, the order is abandoned.
  due = dispatcher.due(10);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].attempts, 3);
  EXPECT_FALSE(dispatcher.fail(std::move(due[0]), 10));
  EXPECT_EQ(dispatcher.backlog_bytes(), 0);
  EXPECT_EQ(dispatcher.backlog_orders(), 0);
  EXPECT_EQ(dispatcher.abandoned_bytes(), 60);
  EXPECT_EQ(dispatcher.abandoned_orders(), 1);
  EXPECT_EQ(dispatcher.total_deferred_bytes(), 100);
}

TEST(MigrationDispatcherTest, MaxAttemptsOneAbandonsImmediately) {
  MigrationDispatcher dispatcher({.max_attempts = 1});
  dispatcher.defer(0, 0, 1, {2}, 25, 0);
  EXPECT_EQ(dispatcher.backlog_orders(), 0);
  EXPECT_EQ(dispatcher.backlog_bytes(), 0);
  EXPECT_EQ(dispatcher.abandoned_orders(), 1);
  EXPECT_EQ(dispatcher.abandoned_bytes(), 25);
  EXPECT_EQ(dispatcher.total_deferred_bytes(), 25);
  EXPECT_TRUE(dispatcher.due(100).empty());
}

TEST(MigrationDispatcherTest, DueIsFifoStable) {
  MigrationDispatcher dispatcher;
  dispatcher.defer(0, 0, 1, {1}, 10, 0);
  dispatcher.defer(1, 0, 1, {2}, 10, 0);
  dispatcher.defer(2, 0, 1, {3}, 10, 0);
  const auto due = dispatcher.due(5);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].client, 0);
  EXPECT_EQ(due[1].client, 1);
  EXPECT_EQ(due[2].client, 2);
}

TEST(MigrationDispatcherTest, DeadlineSaturatesAtIntMax) {
  // Accepted by validation, yet now + backoff no longer fits an int.
  constexpr int kMax = std::numeric_limits<int>::max();
  MigrationDispatcher dispatcher({.max_attempts = 3,
                                  .initial_backoff_intervals = kMax,
                                  .max_backoff_intervals = kMax});
  dispatcher.defer(0, 0, 1, {2}, /*bytes=*/50, /*now_interval=*/5);
  ASSERT_EQ(dispatcher.state().queue.size(), 1u);
  EXPECT_EQ(dispatcher.state().queue[0].next_attempt_interval, kMax);
  EXPECT_TRUE(dispatcher.due(kMax - 1).empty());
}

}  // namespace
}  // namespace perdnn
