// Deterministic per-server retry queues for the sharded engine's deferred
// migration orders.
//
// The classic MigrationDispatcher carries an explicit layer list per order —
// too heavy at city scale, where canonical-prefix uploads describe an order
// with two integers. Here an order is (client, source, target, prefix the
// target should reach, bytes outstanding), parked in its *source* server's
// FIFO deque with the same exponential backoff the dispatcher uses
// (initial_backoff doubling per failed attempt up to max_backoff, abandoned
// after max_attempts). take_due() scans every server's deque in server order
// and each deque stably, so due orders always come back in (source server,
// FIFO position) order — the canonical sequence every shard/thread count
// reproduces, which is what lets retries run on the serial Phase B path
// without breaking the byte-identity matrix.
//
// Backlog is bounded two ways: the per-order attempt budget, and a
// per-server capacity cap on parked orders (a deferral into a full queue is
// refused; the caller abandons the order with kDropQueueFull). flatten() /
// restore() move the whole queue through snapshots in canonical order.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hpp"
#include "edge/migration_dispatcher.hpp"

namespace perdnn {

struct ShardRetryOrder {
  ClientId client = -1;
  ServerId source = kNoServer;
  ServerId target = kNoServer;
  std::uint16_t prefix = 0;  ///< canonical prefix the target should reach
  Bytes bytes = 0;           ///< bytes outstanding when parked
  int attempts = 1;          ///< delivery attempts already made
  int next_attempt_interval = 0;
};

class ShardRetryQueue {
 public:
  ShardRetryQueue() = default;
  ShardRetryQueue(const MigrationRetryConfig& config, int num_servers,
                  int per_server_cap);

  /// True when an order with this many attempts has no retry budget left.
  bool budget_spent(int attempts) const {
    return attempts >= config_.max_attempts;
  }
  /// True when `server`'s queue is at the per-server cap.
  bool full(ServerId server) const;

  /// Parks `order` (caller already stamped next_attempt_interval with
  /// retry_deadline() and checked budget_spent()/full()).
  void park(ShardRetryOrder order);

  /// Removes and returns every order due at `now`, in (source server, FIFO
  /// position) order, with each order's attempt count already incremented
  /// for the retry being handed out.
  std::vector<ShardRetryOrder> take_due(int now);

  Bytes backlog_bytes() const { return backlog_bytes_; }
  int backlog_orders() const { return backlog_orders_; }

  /// Every parked order in (source server, FIFO position) order — the
  /// canonical snapshot encoding.
  std::vector<ShardRetryOrder> flatten() const;
  /// Replaces the queue contents with `orders` (a flatten() result).
  void restore(const std::vector<ShardRetryOrder>& orders);

  const MigrationRetryConfig& config() const { return config_; }

 private:
  MigrationRetryConfig config_{};
  int per_server_cap_ = 0;
  std::vector<std::deque<ShardRetryOrder>> queues_;  // per source server
  Bytes backlog_bytes_ = 0;
  int backlog_orders_ = 0;
};

}  // namespace perdnn
