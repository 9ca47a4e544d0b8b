// Deterministic per-source retry queues for deferred migration pushes, one
// type for both engines.
//
// A push that a fault blocks (the backhaul to the target is out, an endpoint
// is down, or a degraded link fits none of it) is parked, not lost: the
// queue keeps the order in its *source* server's FIFO with a retry deadline
// and hands it back once the backoff elapses. Each failed attempt doubles
// the backoff up to a cap; an order whose attempt budget is spent, or whose
// source FIFO is at its cap, cannot be parked and is abandoned by the
// caller. take_due() scans the sources in id order and each FIFO stably, so
// due orders always come back in (source server, FIFO position) order: the
// canonical sequence every shard/thread count and every resume reproduces.
//
// The payload is what an order carries: the classic engine's layer list, or
// the sharded engine's canonical prefix. The queue neither journals nor
// counts metrics; the engines do both, by one rule (DESIGN.md §14).
//
// Not thread-safe: retries run on each engine's serial control path.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "obs/journal.hpp"

namespace perdnn {

struct MigrationRetryConfig {
  /// Total delivery attempts per order, the initial send included. 1 means
  /// "never retry"; must be >= 1.
  int max_attempts = 4;
  /// Backoff before the first retry, in intervals; doubles per failure.
  int initial_backoff_intervals = 1;
  /// Backoff ceiling, in intervals.
  int max_backoff_intervals = 16;
};

/// Interval of the next delivery attempt for an order that has made
/// `attempts` failed deliveries by interval `now`: the initial backoff
/// doubled per prior attempt, capped at max_backoff_intervals. Computed in
/// 64 bits and saturated at INT_MAX (an order that far out never comes due).
int retry_deadline(const MigrationRetryConfig& config, int attempts, int now);

/// One parked migration order. `attempts` counts deliveries already tried.
template <typename Payload>
struct RetryOrder {
  ClientId client = -1;
  ServerId source = kNoServer;
  ServerId target = kNoServer;
  Payload payload{};
  Bytes bytes = 0;  ///< bytes outstanding when parked
  int attempts = 1;
  int next_attempt_interval = 0;
};

template <typename Payload>
class RetryQueue {
 public:
  using Order = RetryOrder<Payload>;

  RetryQueue(const MigrationRetryConfig& config, int num_servers,
             int per_source_cap);

  /// True when an order with this many attempts has no retry budget left.
  bool budget_spent(int attempts) const {
    return attempts >= config_.max_attempts;
  }
  /// True when `source`'s FIFO is at the per-source cap.
  bool full(ServerId source) const {
    return static_cast<int>(
               fifos_[static_cast<std::size_t>(source)].size()) >=
           per_source_cap_;
  }

  /// Appends `order` to its source's FIFO as it is.
  void park(Order order);

  /// Stamps `order`'s next attempt and parks it, or returns why it cannot
  /// be parked (kDropRetryBudget, kDropQueueFull) and leaves it untouched.
  /// A parked order's payload has moved into the queue; its other fields
  /// stay readable.
  std::optional<obs::DropReason> try_park(Order& order, int now);

  /// Removes and returns every order due at `now`, in (source server, FIFO
  /// position) order, with each order's attempt count already incremented
  /// for the retry being handed out.
  std::vector<Order> take_due(int now);

  Bytes backlog_bytes() const { return backlog_bytes_; }
  int backlog_orders() const { return backlog_orders_; }

  /// Every parked order in (source server, FIFO position) order: the
  /// canonical snapshot encoding.
  std::vector<Order> flatten() const;
  /// Replaces the queue contents by parking `orders` in list order, so each
  /// source keeps the relative order the list gives its orders.
  void restore(const std::vector<Order>& orders);

 private:
  MigrationRetryConfig config_;
  int per_source_cap_;
  std::vector<std::vector<Order>> fifos_;  // per source server
  Bytes backlog_bytes_ = 0;
  int backlog_orders_ = 0;
};

/// The classic engine's orders carry the layers still to send; the sharded
/// engine's carry the canonical prefix the target should reach.
using LayerRetryOrder = RetryOrder<std::vector<LayerId>>;
using PrefixRetryOrder = RetryOrder<std::uint16_t>;
extern template class RetryQueue<std::vector<LayerId>>;
extern template class RetryQueue<std::uint16_t>;

}  // namespace perdnn
