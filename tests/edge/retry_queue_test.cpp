#include "edge/retry_queue.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perdnn {
namespace {

constexpr MigrationRetryConfig kConfig{.max_attempts = 4,
                                       .initial_backoff_intervals = 1,
                                       .max_backoff_intervals = 8};

/// A payload that names its client, so a test can tell whether each order
/// kept its own payload through parking, compaction and restore.
template <typename Payload>
Payload payload_for(ClientId client);
template <>
std::vector<LayerId> payload_for(ClientId client) {
  return {client, client + 1};
}
template <>
std::uint16_t payload_for(ClientId client) {
  return static_cast<std::uint16_t>(client);
}

template <typename Payload>
class RetryQueueTest : public ::testing::Test {
 protected:
  using Queue = RetryQueue<Payload>;
  using Order = RetryOrder<Payload>;

  static Order order(ClientId client, ServerId source, int due,
                     Bytes bytes = 10) {
    return {.client = client,
            .source = source,
            .target = (source + 1) % 3,
            .payload = payload_for<Payload>(client),
            .bytes = bytes,
            .attempts = 1,
            .next_attempt_interval = due};
  }

  static std::vector<ClientId> clients(const std::vector<Order>& orders) {
    std::vector<ClientId> out;
    for (const Order& o : orders) {
      EXPECT_EQ(o.payload, payload_for<Payload>(o.client))
          << "client " << o.client << " lost its payload";
      out.push_back(o.client);
    }
    return out;
  }
};

using Payloads = ::testing::Types<std::vector<LayerId>, std::uint16_t>;
TYPED_TEST_SUITE(RetryQueueTest, Payloads);

TYPED_TEST(RetryQueueTest, ValidatesConfig) {
  using Queue = typename TestFixture::Queue;
  EXPECT_THROW(Queue({.max_attempts = 0}, 3, 8), std::logic_error);
  EXPECT_THROW(Queue({.initial_backoff_intervals = 0}, 3, 8),
               std::logic_error);
  EXPECT_THROW(Queue({.initial_backoff_intervals = 8,
                      .max_backoff_intervals = 4},
                     3, 8),
               std::logic_error);
  EXPECT_THROW(Queue(kConfig, 3, /*per_source_cap=*/0), std::logic_error);
  EXPECT_NO_THROW(Queue({}, 3, 8));
}

TYPED_TEST(RetryQueueTest, BackoffDoublesPerFailureUpToTheCap) {
  typename TestFixture::Queue queue({.max_attempts = 6,
                                     .initial_backoff_intervals = 1,
                                     .max_backoff_intervals = 4},
                                    3, 8);
  auto first = TestFixture::order(0, 0, 0);
  ASSERT_EQ(queue.try_park(first, /*now=*/10), std::nullopt);

  // First retry after the initial backoff: due at 11, not 10.
  EXPECT_TRUE(queue.take_due(10).empty());
  auto due = queue.take_due(11);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].attempts, 2);

  // Each failure doubles the wait: 1, 2, 4, then capped at 4.
  int expected_backoff = 2;
  int now = 11;
  for (int round = 0; round < 3; ++round) {
    ASSERT_EQ(queue.try_park(due[0], now), std::nullopt);
    EXPECT_TRUE(queue.take_due(now + expected_backoff - 1).empty());
    due = queue.take_due(now + expected_backoff);
    ASSERT_EQ(due.size(), 1u);
    now += expected_backoff;
    expected_backoff = std::min(expected_backoff * 2, 4);
  }
  EXPECT_EQ(due[0].attempts, 5);
  EXPECT_EQ(TestFixture::clients(due), std::vector<ClientId>{0});
}

TYPED_TEST(RetryQueueTest, SpentBudgetIsRefusedAndDrainsTheBacklog) {
  typename TestFixture::Queue queue({.max_attempts = 3,
                                     .initial_backoff_intervals = 1,
                                     .max_backoff_intervals = 16},
                                    3, 8);
  auto a = TestFixture::order(0, 0, 0, /*bytes=*/40);
  auto b = TestFixture::order(1, 2, 0, /*bytes=*/60);
  ASSERT_EQ(queue.try_park(a, 0), std::nullopt);
  ASSERT_EQ(queue.try_park(b, 0), std::nullopt);
  EXPECT_EQ(queue.backlog_bytes(), 100);
  EXPECT_EQ(queue.backlog_orders(), 2);

  // Attempt 2 for both: one is delivered, one fails and is re-parked.
  auto due = queue.take_due(1);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(queue.backlog_bytes(), 0);  // handed-out orders leave the backlog
  ASSERT_EQ(queue.try_park(due[1], 1), std::nullopt);
  EXPECT_EQ(queue.backlog_bytes(), 60);

  // Attempt 3 fails too: the budget is spent, so the order is refused and
  // left as it was.
  due = queue.take_due(10);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].attempts, 3);
  const int stamped = due[0].next_attempt_interval;
  EXPECT_EQ(queue.try_park(due[0], 10), obs::kDropRetryBudget);
  EXPECT_EQ(due[0].next_attempt_interval, stamped);
  EXPECT_EQ(TestFixture::clients(due), std::vector<ClientId>{1});
  EXPECT_EQ(queue.backlog_bytes(), 0);
  EXPECT_EQ(queue.backlog_orders(), 0);
}

TYPED_TEST(RetryQueueTest, MaxAttemptsOneRefusesEveryOrder) {
  typename TestFixture::Queue queue({.max_attempts = 1}, 3, 8);
  EXPECT_TRUE(queue.budget_spent(1));
  auto order = TestFixture::order(0, 0, 0, /*bytes=*/25);
  EXPECT_EQ(queue.try_park(order, 0), obs::kDropRetryBudget);
  EXPECT_EQ(queue.backlog_orders(), 0);
  EXPECT_EQ(queue.backlog_bytes(), 0);
  EXPECT_TRUE(queue.take_due(100).empty());
}

TYPED_TEST(RetryQueueTest, TakeDueReturnsSourceServerThenFifoOrder) {
  typename TestFixture::Queue queue(kConfig, /*num_servers=*/3,
                                    /*per_source_cap=*/8);
  // Server 1 holds an older long-backoff order (client 10) and a re-parked
  // one (client 11) that comes due first, then a third (client 14) that
  // stays: a stable extraction keeps 10 ahead of 14. Server 0's order was
  // parked last.
  queue.park(TestFixture::order(10, 1, /*due=*/9));
  queue.park(TestFixture::order(11, 1, /*due=*/4));
  queue.park(TestFixture::order(14, 1, /*due=*/12));
  queue.park(TestFixture::order(12, 2, /*due=*/4));
  queue.park(TestFixture::order(13, 0, /*due=*/3));

  EXPECT_EQ(TestFixture::clients(queue.take_due(4)),
            (std::vector<ClientId>{13, 11, 12}));
  EXPECT_EQ(TestFixture::clients(queue.flatten()),
            (std::vector<ClientId>{10, 14}));
  EXPECT_TRUE(queue.take_due(8).empty());
  EXPECT_EQ(TestFixture::clients(queue.take_due(12)),
            (std::vector<ClientId>{10, 14}));
}

TYPED_TEST(RetryQueueTest, TakeDueCountsTheAttemptAndDrainsTheBacklog) {
  typename TestFixture::Queue queue(kConfig, 3, 8);
  queue.park(TestFixture::order(0, 0, 2, /*bytes=*/100));
  queue.park(TestFixture::order(1, 2, 5, /*bytes=*/40));
  EXPECT_EQ(queue.backlog_bytes(), 140);
  EXPECT_EQ(queue.backlog_orders(), 2);

  const auto due = queue.take_due(2);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].attempts, 2);
  EXPECT_EQ(due[0].bytes, 100);
  EXPECT_EQ(queue.backlog_bytes(), 40);
  EXPECT_EQ(queue.backlog_orders(), 1);
}

TYPED_TEST(RetryQueueTest, PerSourceCapRefusesAnOrderIntoAFullFifo) {
  typename TestFixture::Queue queue(kConfig, 3, /*per_source_cap=*/2);
  queue.park(TestFixture::order(0, 1, 5));
  EXPECT_FALSE(queue.full(1));
  queue.park(TestFixture::order(1, 1, 5));
  EXPECT_TRUE(queue.full(1));
  EXPECT_FALSE(queue.full(0));
  auto refused = TestFixture::order(2, 1, 0);
  EXPECT_EQ(queue.try_park(refused, 0), obs::kDropQueueFull);
  EXPECT_EQ(queue.backlog_orders(), 2);
  // The budget is checked first.
  auto spent = TestFixture::order(3, 1, 0);
  spent.attempts = kConfig.max_attempts;
  EXPECT_EQ(queue.try_park(spent, 0), obs::kDropRetryBudget);

  queue.take_due(5);
  EXPECT_FALSE(queue.full(1));
  EXPECT_EQ(queue.try_park(refused, 5), std::nullopt);
  EXPECT_EQ(refused.next_attempt_interval, 6);

  EXPECT_FALSE(queue.budget_spent(3));
  EXPECT_TRUE(queue.budget_spent(4));
}

TYPED_TEST(RetryQueueTest, FlattenRestoreRoundTrips) {
  typename TestFixture::Queue queue(kConfig, 3, 8);
  queue.park(TestFixture::order(5, 2, 7, 30));
  queue.park(TestFixture::order(6, 0, 3, 20));
  queue.park(TestFixture::order(7, 2, 1, 10));
  const auto flat = queue.flatten();
  EXPECT_EQ(TestFixture::clients(flat), (std::vector<ClientId>{6, 5, 7}));

  typename TestFixture::Queue restored(kConfig, 3, 8);
  restored.park(TestFixture::order(99, 1, 0));  // replaced by restore()
  restored.restore(flat);
  EXPECT_EQ(restored.backlog_bytes(), 60);
  EXPECT_EQ(restored.backlog_orders(), 3);
  EXPECT_EQ(TestFixture::clients(restored.flatten()),
            TestFixture::clients(flat));
  EXPECT_EQ(TestFixture::clients(restored.take_due(7)),
            TestFixture::clients(queue.take_due(7)));

  // A list in one global FIFO (the older classic encoding) restores with
  // each source keeping its relative order.
  restored.restore({TestFixture::order(1, 2, 0), TestFixture::order(2, 0, 0),
                    TestFixture::order(3, 2, 0), TestFixture::order(4, 0, 0)});
  EXPECT_EQ(TestFixture::clients(restored.flatten()),
            (std::vector<ClientId>{2, 4, 1, 3}));
}

TYPED_TEST(RetryQueueTest, RestoreRejectsUnknownSource) {
  typename TestFixture::Queue queue(kConfig, 3, 8);
  EXPECT_THROW(queue.restore({TestFixture::order(0, 3, 1)}), std::logic_error);
  EXPECT_THROW(queue.restore({TestFixture::order(0, -1, 1)}),
               std::logic_error);
}

TEST(RetryQueueDeadlineTest, SaturatesAtIntMax) {
  constexpr int kMax = std::numeric_limits<int>::max();
  // Accepted by validation; the second retry's doubled backoff no longer
  // fits an int.
  const MigrationRetryConfig wide{.max_attempts = 4,
                                  .initial_backoff_intervals = 1 << 30,
                                  .max_backoff_intervals = kMax};
  EXPECT_EQ(retry_deadline(wide, 1, 5), 5 + (1 << 30));
  EXPECT_EQ(retry_deadline(wide, 2, 5), kMax);
  EXPECT_EQ(retry_deadline(wide, 3, 5), kMax);
  // So does now + backoff with the widest initial backoff.
  const MigrationRetryConfig widest{.max_attempts = 3,
                                    .initial_backoff_intervals = kMax,
                                    .max_backoff_intervals = kMax};
  EXPECT_EQ(retry_deadline(widest, 1, 5), kMax);

  // An order parked at the saturated deadline never comes due.
  RetryQueue<std::uint16_t> queue(wide, 3, 8);
  PrefixRetryOrder order{.client = 0, .source = 1, .target = 2, .attempts = 2};
  ASSERT_EQ(queue.try_park(order, 5), std::nullopt);
  EXPECT_EQ(queue.flatten().at(0).next_attempt_interval, kMax);
  EXPECT_TRUE(queue.take_due(kMax - 1).empty());

  // Ordinary configs keep their doubling: 1, 2, 4, then the cap of 8.
  EXPECT_EQ(retry_deadline(kConfig, 1, 10), 11);
  EXPECT_EQ(retry_deadline(kConfig, 2, 10), 12);
  EXPECT_EQ(retry_deadline(kConfig, 3, 10), 14);
  EXPECT_EQ(retry_deadline(kConfig, 4, 10), 18);
  EXPECT_EQ(retry_deadline(kConfig, 9, 10), 18);
}

}  // namespace
}  // namespace perdnn
