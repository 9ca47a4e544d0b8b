#include "edge/shard_retry.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

namespace perdnn {
namespace {

constexpr MigrationRetryConfig kConfig{.max_attempts = 4,
                                       .initial_backoff_intervals = 1,
                                       .max_backoff_intervals = 8};

ShardRetryOrder order(ClientId client, ServerId source, int due,
                      Bytes bytes = 10) {
  return {.client = client,
          .source = source,
          .target = (source + 1) % 3,
          .prefix = 2,
          .bytes = bytes,
          .attempts = 1,
          .next_attempt_interval = due};
}

std::vector<ClientId> clients(const std::vector<ShardRetryOrder>& orders) {
  std::vector<ClientId> out;
  for (const ShardRetryOrder& o : orders) out.push_back(o.client);
  return out;
}

TEST(ShardRetryQueueTest, TakeDueReturnsSourceServerThenFifoOrder) {
  ShardRetryQueue queue(kConfig, /*num_servers=*/3, /*per_server_cap=*/8);
  // Server 1 holds an older long-backoff order (client 10) and a re-parked
  // one (client 11) that comes due first; server 0's order was parked last.
  queue.park(order(10, 1, /*due=*/9));
  queue.park(order(11, 1, /*due=*/4));
  queue.park(order(12, 2, /*due=*/4));
  queue.park(order(13, 0, /*due=*/3));

  EXPECT_EQ(clients(queue.take_due(4)), (std::vector<ClientId>{13, 11, 12}));
  EXPECT_TRUE(queue.take_due(8).empty());
  EXPECT_EQ(clients(queue.take_due(9)), std::vector<ClientId>{10});
}

TEST(ShardRetryQueueTest, TakeDueCountsTheAttemptAndDrainsTheBacklog) {
  ShardRetryQueue queue(kConfig, 3, 8);
  queue.park(order(0, 0, 2, /*bytes=*/100));
  queue.park(order(1, 2, 5, /*bytes=*/40));
  EXPECT_EQ(queue.backlog_bytes(), 140);
  EXPECT_EQ(queue.backlog_orders(), 2);

  const std::vector<ShardRetryOrder> due = queue.take_due(2);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].attempts, 2);
  EXPECT_EQ(due[0].bytes, 100);
  EXPECT_EQ(queue.backlog_bytes(), 40);
  EXPECT_EQ(queue.backlog_orders(), 1);
}

TEST(ShardRetryQueueTest, FullAtThePerServerCap) {
  ShardRetryQueue queue(kConfig, 3, /*per_server_cap=*/2);
  queue.park(order(0, 1, 5));
  EXPECT_FALSE(queue.full(1));
  queue.park(order(1, 1, 5));
  EXPECT_TRUE(queue.full(1));
  EXPECT_FALSE(queue.full(0));
  queue.take_due(5);
  EXPECT_FALSE(queue.full(1));

  EXPECT_FALSE(queue.budget_spent(3));
  EXPECT_TRUE(queue.budget_spent(4));
}

TEST(ShardRetryQueueTest, FlattenRestoreRoundTrips) {
  ShardRetryQueue queue(kConfig, 3, 8);
  queue.park(order(5, 2, 7, 30));
  queue.park(order(6, 0, 3, 20));
  queue.park(order(7, 2, 1, 10));
  const std::vector<ShardRetryOrder> flat = queue.flatten();
  EXPECT_EQ(clients(flat), (std::vector<ClientId>{6, 5, 7}));

  ShardRetryQueue restored(kConfig, 3, 8);
  restored.park(order(99, 1, 0));  // replaced by restore()
  restored.restore(flat);
  EXPECT_EQ(restored.backlog_bytes(), 60);
  EXPECT_EQ(restored.backlog_orders(), 3);
  EXPECT_EQ(clients(restored.flatten()), clients(flat));
  EXPECT_EQ(clients(restored.take_due(7)), clients(queue.take_due(7)));
}

TEST(ShardRetryQueueTest, RestoreRejectsUnknownSource) {
  ShardRetryQueue queue(kConfig, 3, 8);
  EXPECT_THROW(queue.restore({order(0, 3, 1)}), std::logic_error);
  EXPECT_THROW(queue.restore({order(0, -1, 1)}), std::logic_error);
}

TEST(ShardRetryQueueTest, DeadlineSaturatesAtIntMax) {
  constexpr int kMax = std::numeric_limits<int>::max();
  // Accepted by validation; the second retry's doubled backoff no longer
  // fits an int.
  const MigrationRetryConfig wide{.max_attempts = 4,
                                  .initial_backoff_intervals = 1 << 30,
                                  .max_backoff_intervals = kMax};
  ShardRetryQueue queue(wide, 3, 8);
  EXPECT_EQ(retry_deadline(queue.config(), 1, 5), 5 + (1 << 30));
  EXPECT_EQ(retry_deadline(queue.config(), 2, 5), kMax);
  EXPECT_EQ(retry_deadline(queue.config(), 3, 5), kMax);

  // An order parked at the saturated deadline never comes due.
  queue.park(order(0, 1, retry_deadline(queue.config(), 2, 5)));
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
