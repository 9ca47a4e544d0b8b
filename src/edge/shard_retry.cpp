#include "edge/shard_retry.hpp"

#include "common/check.hpp"

namespace perdnn {

ShardRetryQueue::ShardRetryQueue(const MigrationRetryConfig& config,
                                 int num_servers, int per_server_cap)
    : config_(config), per_server_cap_(per_server_cap) {
  PERDNN_CHECK_MSG(config.max_attempts >= 1, "max_attempts must be >= 1");
  PERDNN_CHECK_MSG(config.initial_backoff_intervals >= 1,
                   "initial_backoff_intervals must be >= 1");
  PERDNN_CHECK_MSG(
      config.max_backoff_intervals >= config.initial_backoff_intervals,
      "max_backoff_intervals must be >= initial_backoff_intervals");
  PERDNN_CHECK_MSG(per_server_cap >= 1, "per_server_cap must be >= 1");
  queues_.resize(static_cast<std::size_t>(num_servers));
}

bool ShardRetryQueue::full(ServerId server) const {
  return static_cast<int>(
             queues_[static_cast<std::size_t>(server)].size()) >=
         per_server_cap_;
}

void ShardRetryQueue::park(ShardRetryOrder order) {
  backlog_bytes_ += order.bytes;
  ++backlog_orders_;
  queues_[static_cast<std::size_t>(order.source)].push_back(order);
}

std::vector<ShardRetryOrder> ShardRetryQueue::take_due(int now) {
  std::vector<ShardRetryOrder> due;
  for (std::deque<ShardRetryOrder>& queue : queues_) {
    // Stable extraction: deadlines are not monotonic in FIFO order (a
    // re-parked order can come due before an older long-backoff one), so
    // scan the whole deque, keeping relative order of what stays.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      ShardRetryOrder& order = queue[i];
      if (order.next_attempt_interval <= now) {
        backlog_bytes_ -= order.bytes;
        --backlog_orders_;
        ++order.attempts;
        due.push_back(order);
      } else {
        queue[kept++] = order;
      }
    }
    queue.resize(kept);
  }
  return due;
}

std::vector<ShardRetryOrder> ShardRetryQueue::flatten() const {
  std::vector<ShardRetryOrder> out;
  out.reserve(static_cast<std::size_t>(backlog_orders_));
  for (const std::deque<ShardRetryOrder>& queue : queues_)
    out.insert(out.end(), queue.begin(), queue.end());
  return out;
}

void ShardRetryQueue::restore(const std::vector<ShardRetryOrder>& orders) {
  for (std::deque<ShardRetryOrder>& queue : queues_) queue.clear();
  backlog_bytes_ = 0;
  backlog_orders_ = 0;
  for (const ShardRetryOrder& order : orders) {
    PERDNN_CHECK_MSG(order.source >= 0 &&
                         static_cast<std::size_t>(order.source) <
                             queues_.size(),
                     "restored retry order names an unknown source server");
    park(order);
  }
}

}  // namespace perdnn
