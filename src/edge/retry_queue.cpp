#include "edge/retry_queue.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"

namespace perdnn {

int retry_deadline(const MigrationRetryConfig& config, int attempts,
                   int now) {
  // attempts = deliveries already tried; first retry (attempts == 1) waits
  // the initial backoff, each further failure doubles it up to the cap.
  std::int64_t backoff = config.initial_backoff_intervals;
  for (int i = 1; i < attempts && backoff < config.max_backoff_intervals; ++i)
    backoff *= 2;
  backoff = std::min<std::int64_t>(backoff, config.max_backoff_intervals);
  return static_cast<int>(std::min<std::int64_t>(
      std::int64_t{now} + backoff, std::numeric_limits<int>::max()));
}

template <typename Payload>
RetryQueue<Payload>::RetryQueue(const MigrationRetryConfig& config,
                                int num_servers, int per_source_cap)
    : config_(config),
      per_source_cap_(per_source_cap),
      fifos_(static_cast<std::size_t>(num_servers)) {
  PERDNN_CHECK_MSG(config.max_attempts >= 1,
                   "migration max_attempts must be >= 1 (got "
                       << config.max_attempts << ")");
  PERDNN_CHECK_MSG(config.initial_backoff_intervals >= 1,
                   "migration initial_backoff_intervals must be >= 1 (got "
                       << config.initial_backoff_intervals << ")");
  PERDNN_CHECK_MSG(
      config.max_backoff_intervals >= config.initial_backoff_intervals,
      "migration max_backoff_intervals must be >= the initial backoff");
  PERDNN_CHECK_MSG(per_source_cap >= 1, "per_source_cap must be >= 1");
}

template <typename Payload>
void RetryQueue<Payload>::park(Order order) {
  backlog_bytes_ += order.bytes;
  ++backlog_orders_;
  fifos_[static_cast<std::size_t>(order.source)].push_back(std::move(order));
}

template <typename Payload>
std::optional<obs::DropReason> RetryQueue<Payload>::try_park(Order& order,
                                                             int now) {
  if (budget_spent(order.attempts)) return obs::kDropRetryBudget;
  if (full(order.source)) return obs::kDropQueueFull;
  order.next_attempt_interval = retry_deadline(config_, order.attempts, now);
  park(std::move(order));
  return std::nullopt;
}

template <typename Payload>
std::vector<RetryOrder<Payload>> RetryQueue<Payload>::take_due(int now) {
  std::vector<Order> due;
  if (backlog_orders_ == 0) return due;
  for (std::vector<Order>& fifo : fifos_) {
    // Stable extraction: deadlines are not monotonic in FIFO order (a
    // re-parked order can come due before an older long-backoff one), so
    // scan the whole FIFO and compact what stays in place.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < fifo.size(); ++i) {
      Order& order = fifo[i];
      if (order.next_attempt_interval <= now) {
        backlog_bytes_ -= order.bytes;
        --backlog_orders_;
        ++order.attempts;
        due.push_back(std::move(order));
      } else {
        if (kept != i) fifo[kept] = std::move(order);  // never self-move
        ++kept;
      }
    }
    fifo.erase(fifo.begin() + static_cast<std::ptrdiff_t>(kept), fifo.end());
  }
  return due;
}

template <typename Payload>
std::vector<RetryOrder<Payload>> RetryQueue<Payload>::flatten() const {
  std::vector<Order> out;
  out.reserve(static_cast<std::size_t>(backlog_orders_));
  for (const std::vector<Order>& fifo : fifos_)
    out.insert(out.end(), fifo.begin(), fifo.end());
  return out;
}

template <typename Payload>
void RetryQueue<Payload>::restore(const std::vector<Order>& orders) {
  for (std::vector<Order>& fifo : fifos_) fifo.clear();
  backlog_bytes_ = 0;
  backlog_orders_ = 0;
  for (const Order& order : orders) {
    PERDNN_CHECK_MSG(order.source >= 0 &&
                         static_cast<std::size_t>(order.source) <
                             fifos_.size(),
                     "restored retry order names an unknown source server");
    park(order);
  }
}

template class RetryQueue<std::vector<LayerId>>;
template class RetryQueue<std::uint16_t>;

}  // namespace perdnn
