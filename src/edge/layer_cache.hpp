// Per-client DNN layer cache held by each edge server.
//
// Proactively migrated layers are kept for TTL time intervals and discarded
// afterwards; the TTL resets whenever another server attempts to send the
// same client's layers (which also suppresses duplicate transmission —
// Section 3.B.2). The cache stores layer *ids* per client; weight bytes are
// derived from the client's model when needed.
//
// With a byte budget configured (set_budget + set_cost_model), the cache is
// cost-aware: every entry tracks its cached weight bytes, and a store that
// would exceed the budget first evicts whole entries with the lowest
// latency-saved-per-byte (the same efficiency metric the E-IONN upload
// planner ranks runs by), then admits only the longest prefix of the
// incoming layers that fits ("partial residency" — incoming layers arrive
// in upload-schedule order, so a prefix is the highest-efficiency subset).
#pragma once

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "nn/model.hpp"

namespace perdnn {

namespace obs {
class JournalStreamWriter;
}  // namespace obs

class LayerCache {
 public:
  explicit LayerCache(int ttl_intervals);

  /// Attaches an event journal: store/touch/evict/TTL-expiry decisions are
  /// recorded as this server's cache events (obs/journal.hpp). `self` is
  /// the owning server's id, stamped on every event. nullptr disables
  /// recording. Expiry events are emitted in client-id order (not map
  /// order) so journals stay byte-identical across checkpoint/resume.
  void set_journal(obs::JournalStreamWriter* journal, ServerId self) {
    journal_ = journal;
    self_ = self;
  }

  /// Byte budget for all entries combined; 0 (the default) disables budget
  /// enforcement entirely, leaving behaviour identical to an unbudgeted
  /// cache. Enforcing a budget requires a cost model (set_cost_model).
  void set_budget(Bytes budget_bytes);

  /// Per-layer weight bytes and latency saved when the layer is resident
  /// (the upload schedule's per-layer benefit apportionment). Both vectors
  /// are indexed by LayerId; layers outside the schedule save 0 s.
  void set_cost_model(std::vector<Bytes> layer_bytes,
                      std::vector<double> layer_saved_s);

  /// Merges `layers` into the client's entry and resets its TTL.
  /// Returns the ids that were actually new (not already cached) AND
  /// admitted under the budget — the bytes that really crossed the
  /// backhaul, in incoming order. A fully-duplicate send refreshes the TTL
  /// like touch() (and journals a touch, not a zero-layer store). A
  /// negative layer id fails a PERDNN_CHECK.
  std::vector<LayerId> store(ClientId client,
                             const std::vector<LayerId>& layers,
                             int now_interval);

  /// Resets the TTL without adding layers (client actively attached, or a
  /// duplicate-suppressed send).
  void touch(ClientId client, int now_interval);

  /// Drops entries whose TTL elapsed before `now_interval`.
  void expire(int now_interval);

  /// Removes a client's entry entirely.
  void erase(ClientId client);

  /// Drops every entry (server crash). Journals one kCacheEvict per entry
  /// in client-id order, mirroring the entries a snapshot would list. TTL,
  /// journal binding, budget and cost model survive the wipe.
  void wipe(int now_interval);

  bool has_entry(ClientId client) const;

  /// Cached layer ids for the client (empty if none).
  std::vector<LayerId> layers(ClientId client) const;

  /// Availability mask sized to the model.
  std::vector<bool> mask(ClientId client, const DnnModel& model) const;

  /// Allocation-free variant for per-interval hot loops: re-assigns `out`
  /// in place (capacity is reused across calls).
  void mask_into(ClientId client, const DnnModel& model,
                 std::vector<bool>& out) const;

  /// Total cached weight bytes for the client under its model.
  Bytes cached_bytes(ClientId client, const DnnModel& model) const;

  std::size_t num_entries() const { return entries_.size(); }

  /// Cached weight bytes across all entries under the cost model (0 until
  /// set_cost_model is called).
  Bytes total_bytes() const { return total_bytes_; }

  /// Budget evictions and budget-trimmed stores since the last
  /// take_budget_counts() (or construction).
  struct BudgetCounts {
    int evictions = 0;       ///< entries displaced by the budget
    int partial_stores = 0;  ///< stores trimmed to a prefix
  };
  /// Hands over the counts and resets them to zero, so each interval close
  /// takes only its own. They are not checkpointed: a restored cache starts
  /// at zero, as one does right after an interval close.
  BudgetCounts take_budget_counts() {
    return std::exchange(budget_counts_, {});
  }

  /// One cache entry in checkpoint form.
  struct EntrySnapshot {
    ClientId client = 0;
    std::vector<LayerId> layers;
    int expires_at = 0;
    Bytes bytes = 0;  // cached weight bytes (0 when no cost model is set)

    bool operator==(const EntrySnapshot&) const = default;
  };

  /// All entries, sorted by client id so snapshots are byte-stable
  /// regardless of hash-map iteration order. Layers are ascending.
  std::vector<EntrySnapshot> export_entries() const;

  /// Replaces the cache contents with previously exported entries. Entry
  /// bytes are recomputed from the cost model when one is set (so pre-v5
  /// snapshots, which carry no byte counts, restore correctly); otherwise
  /// the snapshot's byte counts are trusted as-is.
  void restore_entries(const std::vector<EntrySnapshot>& entries);

 private:
  struct Entry {
    std::vector<LayerId> layers;  // sorted ascending, no duplicates
    int expires_at = 0;           // interval index at which the entry dies
    Bytes bytes = 0;              // weight bytes under the cost model
  };

  Bytes bytes_of(const std::vector<LayerId>& layers) const;
  double saved_of(const std::vector<LayerId>& layers) const;
  /// Evicts lowest-efficiency entries (excluding `incoming`) until at least
  /// `need_bytes` fit under the budget or no remaining victim is strictly
  /// less efficient than the incoming store.
  void make_room(ClientId incoming, Bytes need_bytes, double incoming_saved,
                 int now_interval);

  int ttl_;
  obs::JournalStreamWriter* journal_ = nullptr;
  ServerId self_ = kNoServer;
  Bytes budget_ = 0;  // 0 = unlimited
  std::vector<Bytes> layer_bytes_;
  std::vector<double> layer_saved_;
  Bytes total_bytes_ = 0;
  BudgetCounts budget_counts_;
  std::unordered_map<ClientId, Entry> entries_;
};

}  // namespace perdnn
