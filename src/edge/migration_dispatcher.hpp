// Bounded retry-with-exponential-backoff for proactive-migration pushes.
//
// A migration order that cannot be delivered — the backhaul to the target is
// out, or the target refused the transfer — is *deferred*, not lost: the
// dispatcher parks it with a retry deadline and re-offers it once the
// backoff elapses. Each failed attempt doubles the backoff (capped); after
// `max_attempts` total attempts the order is abandoned and its bytes move
// from the deferred backlog to the abandoned tally, so operators can tell
// "waiting for the link" apart from "gave up".
//
// The dispatcher is deliberately transport-agnostic: its caller (the
// classic engine's migration step) attempts the send itself and reports
// the outcome via succeed()/fail(). All state is deterministic — the retry
// queue is FIFO-stable, so the same fault schedule replays to the same byte.
//
// Not thread-safe: migration dispatch is a serial control-plane activity in
// every current consumer.
#pragma once

#include <deque>
#include <vector>

#include "common/types.hpp"

namespace perdnn {

namespace obs {
class Journal;
}  // namespace obs

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
struct DeferredMigration {
  ClientId client = -1;
  ServerId source = kNoServer;
  ServerId target = kNoServer;
  std::vector<LayerId> layers;
  Bytes bytes = 0;
  int attempts = 1;
  int next_attempt_interval = 0;
};

class MigrationDispatcher {
 public:
  explicit MigrationDispatcher(MigrationRetryConfig config = {});

  /// Attaches an event journal: defer/retry/abandon decisions are recorded
  /// with their backoff state and byte accounting (obs/journal.hpp).
  /// nullptr (the default) disables recording. The dispatcher runs on the
  /// serial control path, so recording keeps the determinism contract.
  void set_journal(obs::Journal* journal) { journal_ = journal; }

  /// Parks a freshly failed first attempt. The order's bytes enter the
  /// deferred backlog; the first retry is due after the initial backoff.
  void defer(ClientId client, ServerId source, ServerId target,
             std::vector<LayerId> layers, Bytes bytes, int now_interval);

  /// Pops every order whose retry deadline has passed, FIFO-stable. The
  /// caller attempts each and must report the outcome with succeed() or
  /// fail() — orders neither reported nor re-deferred are forgotten.
  std::vector<DeferredMigration> due(int now_interval);

  /// Delivery worked: the order's bytes leave the backlog.
  void succeed(const DeferredMigration& order);

  /// Delivery failed again: re-parks with doubled backoff, or abandons the
  /// order once its attempt budget is spent. Returns true if the order is
  /// still alive (parked), false if it was abandoned.
  bool fail(DeferredMigration order, int now_interval);

  /// Bytes currently parked awaiting retry.
  Bytes backlog_bytes() const { return backlog_bytes_; }
  int backlog_orders() const { return static_cast<int>(queue_.size()); }

  // Whole-run accounting.
  Bytes total_deferred_bytes() const { return total_deferred_bytes_; }
  Bytes abandoned_bytes() const { return abandoned_bytes_; }
  int deferred_orders() const { return deferred_orders_; }
  int abandoned_orders() const { return abandoned_orders_; }
  int retries() const { return retries_; }

  const MigrationRetryConfig& config() const { return config_; }

  /// Complete dispatcher state for checkpointing: the parked queue in FIFO
  /// order plus the whole-run byte/order tallies.
  struct State {
    std::vector<DeferredMigration> queue;
    Bytes backlog_bytes = 0;
    Bytes total_deferred_bytes = 0;
    Bytes abandoned_bytes = 0;
    int deferred_orders = 0;
    int abandoned_orders = 0;
    int retries = 0;
  };

  State state() const;
  void restore(const State& state);

 private:
  MigrationRetryConfig config_;
  obs::Journal* journal_ = nullptr;
  std::deque<DeferredMigration> queue_;
  Bytes backlog_bytes_ = 0;
  Bytes total_deferred_bytes_ = 0;
  Bytes abandoned_bytes_ = 0;
  int deferred_orders_ = 0;
  int abandoned_orders_ = 0;
  int retries_ = 0;
};

}  // namespace perdnn
