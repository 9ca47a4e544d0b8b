#include "edge/layer_cache.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/journal.hpp"
#include "obs/stream_writer.hpp"

namespace perdnn {

LayerCache::LayerCache(int ttl_intervals) : ttl_(ttl_intervals) {
  PERDNN_CHECK(ttl_intervals >= 1);
}

void LayerCache::set_budget(Bytes budget_bytes) {
  PERDNN_CHECK(budget_bytes >= 0);
  budget_ = budget_bytes;
}

void LayerCache::set_cost_model(std::vector<Bytes> layer_bytes,
                                std::vector<double> layer_saved_s) {
  PERDNN_CHECK(layer_bytes.size() == layer_saved_s.size());
  layer_bytes_ = std::move(layer_bytes);
  layer_saved_ = std::move(layer_saved_s);
  // Entries restored before the model arrived carried snapshot byte counts;
  // recompute them so accounting always reflects the current model.
  total_bytes_ = 0;
  for (auto& [client, entry] : entries_) {
    entry.bytes = bytes_of(entry.layers);
    total_bytes_ += entry.bytes;
  }
}

Bytes LayerCache::bytes_of(const std::vector<LayerId>& layers) const {
  if (layer_bytes_.empty()) return 0;
  Bytes total = 0;
  for (LayerId id : layers) {
    PERDNN_CHECK(id >= 0 &&
                 id < static_cast<LayerId>(layer_bytes_.size()));
    total += layer_bytes_[static_cast<std::size_t>(id)];
  }
  return total;
}

double LayerCache::saved_of(const std::vector<LayerId>& layers) const {
  if (layer_saved_.empty()) return 0.0;
  // Entry layers are kept sorted, so this fold has a fixed association
  // order — the sum is bit-identical across resume and replay.
  double total = 0.0;
  for (LayerId id : layers) total += layer_saved_[static_cast<std::size_t>(id)];
  return total;
}

void LayerCache::make_room(ClientId incoming, Bytes need_bytes,
                           double incoming_saved, int now_interval) {
  if (total_bytes_ + need_bytes <= budget_) return;
  // Victims are collected and sorted before any eviction: unordered_map
  // iteration order depends on insertion history, which differs between an
  // uninterrupted run and a checkpoint/resume reload.
  struct Victim {
    ClientId client;
    Bytes bytes;
    double saved;
  };
  std::vector<Victim> victims;
  victims.reserve(entries_.size());
  for (const auto& [client, entry] : entries_)
    if (client != incoming && entry.bytes > 0)
      victims.push_back({client, entry.bytes, saved_of(entry.layers)});
  // Lowest latency-saved-per-byte first; efficiency ratios are compared by
  // cross-multiplication so no division perturbs the ordering. Ties break
  // toward the higher client id so the order is total.
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) {
              const double lhs = a.saved * static_cast<double>(b.bytes);
              const double rhs = b.saved * static_cast<double>(a.bytes);
              if (lhs != rhs) return lhs < rhs;
              return a.client > b.client;
            });
  for (const Victim& v : victims) {
    if (total_bytes_ + need_bytes <= budget_) break;
    // Only displace entries strictly less efficient than the incoming
    // store; if the cache is full of better bytes, the partial-residency
    // trim in store() absorbs the overflow instead.
    if (v.saved * static_cast<double>(need_bytes) >=
        incoming_saved * static_cast<double>(v.bytes))
      break;
    const auto it = entries_.find(v.client);
    total_bytes_ -= it->second.bytes;
    const auto num_layers = static_cast<std::int32_t>(it->second.layers.size());
    entries_.erase(it);
    ++budget_counts_.evictions;
    if (journal_ != nullptr)
      journal_->record({.interval = now_interval,
                        .kind = obs::JournalEventKind::kCacheEvict,
                        .client = v.client,
                        .server = self_,
                        .bytes = v.bytes,
                        .aux = num_layers});
  }
}

std::vector<LayerId> LayerCache::store(ClientId client,
                                       const std::vector<LayerId>& layers,
                                       int now_interval) {
  if (layers.empty()) {
    // An empty (fully-deduplicated) send must not manufacture a zero-layer
    // entry for a client that never received anything — that would make
    // has_entry()/occupancy stats count phantom clients. Existing entries
    // still get their TTL refreshed, matching duplicate-suppression
    // semantics (Section 3.B.2).
    touch(client, now_interval);
    return {};
  }
  // One pass over a per-layer mark: the entry's layers are marked, then an
  // incoming layer is fresh iff its mark is clear, and marks it. Incoming
  // order is kept, so a budget trim still cuts the same prefix. The marks
  // are per thread, not per cache: every server holding a model-sized
  // vector would cost more than the one store it serves at a time.
  thread_local std::vector<char> marks;
  const auto it = entries_.find(client);
  const std::vector<LayerId>* cached =
      it != entries_.end() ? &it->second.layers : nullptr;
  LayerId max_id = cached != nullptr && !cached->empty() ? cached->back() : 0;
  for (LayerId id : layers) {
    PERDNN_CHECK(id >= 0);
    max_id = std::max(max_id, id);
  }
  if (static_cast<std::size_t>(max_id) >= marks.size())
    marks.resize(static_cast<std::size_t>(max_id) + 1, 0);
  // Nothing below can throw until every mark is clear again.
  std::vector<LayerId> fresh;
  fresh.reserve(layers.size());
  if (cached != nullptr)
    for (LayerId id : *cached) marks[static_cast<std::size_t>(id)] = 1;
  for (LayerId id : layers) {
    char& mark = marks[static_cast<std::size_t>(id)];
    if (mark != 0) continue;
    mark = 1;
    fresh.push_back(id);
  }
  if (cached != nullptr)
    for (LayerId id : *cached) marks[static_cast<std::size_t>(id)] = 0;
  for (LayerId id : fresh) marks[static_cast<std::size_t>(id)] = 0;
  if (fresh.empty()) {
    // A non-empty but fully-duplicate send is a duplicate-suppressed send:
    // it refreshes the TTL like any other contact, and journals as a touch
    // rather than a store of zero layers.
    touch(client, now_interval);
    return {};
  }

  std::vector<LayerId> admitted = std::move(fresh);
  if (budget_ > 0) {
    PERDNN_CHECK_MSG(!layer_bytes_.empty(),
                     "budgeted layer cache requires a cost model");
    const Bytes want_bytes = bytes_of(admitted);
    make_room(client, want_bytes, saved_of(admitted), now_interval);
    const Bytes room = budget_ - total_bytes_;
    if (want_bytes > room) {
      // Incoming layers arrive in upload-schedule (efficiency) order, so
      // the longest prefix that fits is the highest-value residency.
      std::size_t keep = 0;
      Bytes keep_bytes = 0;
      while (keep < admitted.size()) {
        const Bytes next =
            layer_bytes_[static_cast<std::size_t>(admitted[keep])];
        if (keep_bytes + next > room) break;
        keep_bytes += next;
        ++keep;
      }
      const auto refused =
          static_cast<std::int32_t>(admitted.size() - keep);
      ++budget_counts_.partial_stores;
      if (journal_ != nullptr)
        journal_->record({.interval = now_interval,
                          .kind = obs::JournalEventKind::kCachePartial,
                          .client = client,
                          .server = self_,
                          .bytes = want_bytes - keep_bytes,
                          .aux = refused});
      admitted.resize(keep);
      if (admitted.empty()) {
        touch(client, now_interval);
        return {};
      }
    }
  }

  Entry& entry = entries_[client];
  entry.expires_at = now_interval + ttl_;
  entry.layers.insert(entry.layers.end(), admitted.begin(), admitted.end());
  std::sort(entry.layers.begin(), entry.layers.end());
  const Bytes admitted_bytes = bytes_of(admitted);
  entry.bytes += admitted_bytes;
  total_bytes_ += admitted_bytes;
  if (journal_ != nullptr)
    journal_->record({.interval = now_interval,
                      .kind = obs::JournalEventKind::kCacheStore,
                      .client = client,
                      .server = self_,
                      .aux = static_cast<std::int32_t>(admitted.size())});
  return admitted;
}

void LayerCache::touch(ClientId client, int now_interval) {
  const auto it = entries_.find(client);
  if (it == entries_.end()) return;
  it->second.expires_at = now_interval + ttl_;
  if (journal_ != nullptr)
    journal_->record({.interval = now_interval,
                      .kind = obs::JournalEventKind::kCacheTouch,
                      .client = client,
                      .server = self_});
}

void LayerCache::expire(int now_interval) {
  // Expired (client, #layers) pairs are collected and journalled in client
  // order: map iteration order depends on insertion history, which differs
  // between an uninterrupted run and a restore_entries() re-load.
  std::vector<std::pair<ClientId, std::int32_t>> expired;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.expires_at <= now_interval) {
      if (journal_ != nullptr)
        expired.emplace_back(it->first,
                             static_cast<std::int32_t>(it->second.layers.size()));
      total_bytes_ -= it->second.bytes;
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  if (journal_ != nullptr && !expired.empty()) {
    std::sort(expired.begin(), expired.end());
    for (const auto& [client, num_layers] : expired)
      journal_->record({.interval = now_interval,
                        .kind = obs::JournalEventKind::kCacheExpire,
                        .client = client,
                        .server = self_,
                        .aux = num_layers});
  }
}

void LayerCache::erase(ClientId client) {
  const auto it = entries_.find(client);
  if (it == entries_.end()) return;
  total_bytes_ -= it->second.bytes;
  entries_.erase(it);
}

void LayerCache::wipe(int now_interval) {
  if (journal_ != nullptr && !entries_.empty()) {
    std::vector<std::pair<ClientId, std::int32_t>> wiped;
    wiped.reserve(entries_.size());
    for (const auto& [client, entry] : entries_)
      wiped.emplace_back(client,
                         static_cast<std::int32_t>(entry.layers.size()));
    std::sort(wiped.begin(), wiped.end());
    for (const auto& [client, num_layers] : wiped)
      journal_->record({.interval = now_interval,
                        .kind = obs::JournalEventKind::kCacheEvict,
                        .client = client,
                        .server = self_,
                        .aux = num_layers});
  }
  entries_.clear();
  total_bytes_ = 0;
}

bool LayerCache::has_entry(ClientId client) const {
  return entries_.count(client) > 0;
}

std::vector<LayerId> LayerCache::layers(ClientId client) const {
  const auto it = entries_.find(client);
  return it == entries_.end() ? std::vector<LayerId>{} : it->second.layers;
}

std::vector<bool> LayerCache::mask(ClientId client,
                                   const DnnModel& model) const {
  std::vector<bool> out;
  mask_into(client, model, out);
  return out;
}

void LayerCache::mask_into(ClientId client, const DnnModel& model,
                           std::vector<bool>& out) const {
  out.assign(static_cast<std::size_t>(model.num_layers()), false);
  const auto it = entries_.find(client);
  if (it == entries_.end()) return;
  for (LayerId id : it->second.layers) {
    PERDNN_CHECK(id >= 0 && id < model.num_layers());
    out[static_cast<std::size_t>(id)] = true;
  }
}

std::vector<LayerCache::EntrySnapshot> LayerCache::export_entries() const {
  std::vector<EntrySnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [client, entry] : entries_) {
    EntrySnapshot snap;
    snap.client = client;
    snap.layers = entry.layers;
    snap.expires_at = entry.expires_at;
    snap.bytes = entry.bytes;
    out.push_back(std::move(snap));
  }
  std::sort(out.begin(), out.end(),
            [](const EntrySnapshot& a, const EntrySnapshot& b) {
              return a.client < b.client;
            });
  return out;
}

void LayerCache::restore_entries(const std::vector<EntrySnapshot>& entries) {
  entries_.clear();
  total_bytes_ = 0;
  for (const EntrySnapshot& snap : entries) {
    Entry& entry = entries_[snap.client];
    entry.layers = snap.layers;
    std::sort(entry.layers.begin(), entry.layers.end());
    entry.layers.erase(std::unique(entry.layers.begin(), entry.layers.end()),
                       entry.layers.end());
    PERDNN_CHECK(entry.layers.empty() || entry.layers.front() >= 0);
    entry.expires_at = snap.expires_at;
    entry.bytes = layer_bytes_.empty() ? snap.bytes : bytes_of(entry.layers);
    total_bytes_ += entry.bytes;
  }
}

Bytes LayerCache::cached_bytes(ClientId client, const DnnModel& model) const {
  const auto it = entries_.find(client);
  if (it == entries_.end()) return 0;
  Bytes total = 0;
  for (LayerId id : it->second.layers) total += model.layer(id).weight_bytes;
  return total;
}

}  // namespace perdnn
