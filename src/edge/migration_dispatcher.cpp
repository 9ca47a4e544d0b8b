#include "edge/migration_dispatcher.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/check.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace perdnn {

MigrationDispatcher::MigrationDispatcher(MigrationRetryConfig config)
    : config_(config) {
  PERDNN_CHECK_MSG(config_.max_attempts >= 1,
                   "migration max_attempts must be >= 1 (got "
                       << config_.max_attempts << ")");
  PERDNN_CHECK_MSG(config_.initial_backoff_intervals >= 1,
                   "migration initial_backoff_intervals must be >= 1 (got "
                       << config_.initial_backoff_intervals << ")");
  PERDNN_CHECK_MSG(
      config_.max_backoff_intervals >= config_.initial_backoff_intervals,
      "migration max_backoff_intervals must be >= the initial backoff");
}

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

void MigrationDispatcher::defer(ClientId client, ServerId source,
                                ServerId target, std::vector<LayerId> layers,
                                Bytes bytes, int now_interval) {
  PERDNN_CHECK(bytes >= 0);
  DeferredMigration order;
  order.client = client;
  order.source = source;
  order.target = target;
  order.layers = std::move(layers);
  order.bytes = bytes;
  order.attempts = 1;
  order.next_attempt_interval = retry_deadline(config_, 1, now_interval);
  backlog_bytes_ += bytes;
  total_deferred_bytes_ += bytes;
  ++deferred_orders_;
  obs::count("migration.deferred_orders");
  obs::count("migration.deferred_bytes", static_cast<double>(bytes));
  if (order.attempts >= config_.max_attempts) {
    // No retry budget at all: account the order as abandoned immediately.
    backlog_bytes_ -= bytes;
    abandoned_bytes_ += bytes;
    ++abandoned_orders_;
    obs::count("migration.abandoned_orders");
    if (journal_ != nullptr)
      journal_->record({.interval = now_interval,
                        .kind = obs::JournalEventKind::kMigrationDropped,
                        .client = client,
                        .server = source,
                        .peer = target,
                        .bytes = bytes,
                        .detail = order.attempts,
                        .aux = obs::kDropRetryBudget});
    return;
  }
  if (journal_ != nullptr)
    journal_->record({.interval = now_interval,
                      .kind = obs::JournalEventKind::kMigrationDeferred,
                      .client = client,
                      .server = source,
                      .peer = target,
                      .bytes = bytes,
                      .detail = order.attempts,
                      .aux = order.next_attempt_interval});
  queue_.push_back(std::move(order));
}

std::vector<DeferredMigration> MigrationDispatcher::due(int now_interval) {
  std::vector<DeferredMigration> ready;
  std::deque<DeferredMigration> keep;
  for (DeferredMigration& order : queue_) {
    if (order.next_attempt_interval <= now_interval) {
      ready.push_back(std::move(order));
    } else {
      keep.push_back(std::move(order));
    }
  }
  queue_ = std::move(keep);
  for (DeferredMigration& order : ready) {
    backlog_bytes_ -= order.bytes;
    ++retries_;
    ++order.attempts;
    if (journal_ != nullptr)
      journal_->record({.interval = now_interval,
                        .kind = obs::JournalEventKind::kMigrationRetried,
                        .client = order.client,
                        .server = order.source,
                        .peer = order.target,
                        .bytes = order.bytes,
                        .detail = order.attempts});
  }
  if (!ready.empty())
    obs::count("migration.retries", static_cast<double>(ready.size()));
  return ready;
}

MigrationDispatcher::State MigrationDispatcher::state() const {
  State st;
  st.queue.assign(queue_.begin(), queue_.end());
  st.backlog_bytes = backlog_bytes_;
  st.total_deferred_bytes = total_deferred_bytes_;
  st.abandoned_bytes = abandoned_bytes_;
  st.deferred_orders = deferred_orders_;
  st.abandoned_orders = abandoned_orders_;
  st.retries = retries_;
  return st;
}

void MigrationDispatcher::restore(const State& state) {
  queue_.assign(state.queue.begin(), state.queue.end());
  backlog_bytes_ = state.backlog_bytes;
  total_deferred_bytes_ = state.total_deferred_bytes;
  abandoned_bytes_ = state.abandoned_bytes;
  deferred_orders_ = state.deferred_orders;
  abandoned_orders_ = state.abandoned_orders;
  retries_ = state.retries;
}

void MigrationDispatcher::succeed(const DeferredMigration& order) {
  obs::count("migration.retry_success");
  obs::count("migration.retry_success_bytes", static_cast<double>(order.bytes));
}

bool MigrationDispatcher::fail(DeferredMigration order, int now_interval) {
  if (order.attempts >= config_.max_attempts) {
    abandoned_bytes_ += order.bytes;
    ++abandoned_orders_;
    obs::count("migration.abandoned_orders");
    obs::count("migration.abandoned_bytes", static_cast<double>(order.bytes));
    if (journal_ != nullptr)
      journal_->record({.interval = now_interval,
                        .kind = obs::JournalEventKind::kMigrationDropped,
                        .client = order.client,
                        .server = order.source,
                        .peer = order.target,
                        .bytes = order.bytes,
                        .detail = order.attempts,
                        .aux = obs::kDropRetryBudget});
    return false;
  }
  order.next_attempt_interval =
      retry_deadline(config_, order.attempts, now_interval);
  backlog_bytes_ += order.bytes;
  if (journal_ != nullptr)
    journal_->record({.interval = now_interval,
                      .kind = obs::JournalEventKind::kMigrationDeferred,
                      .client = order.client,
                      .server = order.source,
                      .peer = order.target,
                      .bytes = order.bytes,
                      .detail = order.attempts,
                      .aux = order.next_attempt_interval});
  queue_.push_back(std::move(order));
  return true;
}

}  // namespace perdnn
