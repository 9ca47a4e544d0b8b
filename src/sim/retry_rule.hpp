// The migration retry rule of both engines (DESIGN.md §14), written once:
// a failed first delivery counts as deferred, its bytes on the source row,
// then is parked or, with its attempt budget spent or its source FIFO full,
// dropped at once and counted as abandoned too. Each due order is recorded
// as retried just before its own outcome. What an order carries and how a
// retry re-delivers it stay with each engine. Serial control path only.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "edge/retry_queue.hpp"
#include "obs/metrics.hpp"
#include "obs/stream_writer.hpp"
#include "obs/timeseries.hpp"
#include "sim/simulator.hpp"

namespace perdnn {

template <typename Payload>
class RetryRule {
 public:
  using Order = RetryOrder<Payload>;

  /// `journal` is null while the run does not journal.
  RetryRule(RetryQueue<Payload>& queue, SimulationMetrics& metrics,
            std::vector<obs::TimeseriesRow>& rows,
            obs::JournalStreamWriter* journal)
      : queue_(queue), metrics_(metrics), rows_(rows), journal_(journal) {}

  /// A failed first delivery: counted as deferred, then parked or dropped.
  void defer(Order order, int t) {
    ++metrics_.migrations_deferred;
    rows_[static_cast<std::size_t>(order.source)].deferred_bytes +=
        order.bytes;
    obs::count("migration.deferred_orders");
    park_or_drop(std::move(order), t);
  }

  /// Parks `order` for its next attempt, or drops it when its attempt
  /// budget is spent or its source queue is full.
  void park_or_drop(Order order, int t) {
    if (const auto reason = queue_.try_park(order, t)) {
      drop(order, t, *reason);
      return;
    }
    record(obs::JournalEventKind::kMigrationDeferred, order, t,
           order.next_attempt_interval);
  }

  /// Abandons `order` for `reason`.
  void drop(const Order& order, int t, obs::DropReason reason) {
    ++metrics_.migrations_abandoned;
    metrics_.abandoned_migration_bytes += order.bytes;
    obs::count("migration.abandoned_orders");
    obs::count("migration.abandoned_bytes", static_cast<double>(order.bytes));
    record(obs::JournalEventKind::kMigrationDropped, order, t, reason);
  }

  /// A due order the queue handed back, before its outcome.
  void retried(const Order& order, int t) {
    ++metrics_.migration_retries;
    obs::count("migration.retries");
    record(obs::JournalEventKind::kMigrationRetried, order, t, 0);
  }

  /// A due order with nothing left to send: it ends without a transfer.
  void dissolved(const Order& order, int t) {
    record(obs::JournalEventKind::kMigrationDropped, order, t,
           obs::kDropDissolved);
    delivered(order);
  }

  /// A due order that reached its target; the engine defers what did not.
  void delivered(const Order& order) {
    obs::count("migration.retry_success");
    obs::count("migration.retry_success_bytes",
               static_cast<double>(order.bytes));
  }

 private:
  void record(obs::JournalEventKind kind, const Order& order, int t,
              std::int32_t aux) {
    if (journal_ == nullptr) return;
    journal_->record({.interval = t,
                      .kind = kind,
                      .client = order.client,
                      .server = order.source,
                      .peer = order.target,
                      .bytes = order.bytes,
                      .detail = order.attempts,
                      .aux = aux});
  }

  RetryQueue<Payload>& queue_;
  SimulationMetrics& metrics_;
  std::vector<obs::TimeseriesRow>& rows_;
  obs::JournalStreamWriter* journal_;
};

}  // namespace perdnn
