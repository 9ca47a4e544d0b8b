#include "edge/layer_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/model_zoo.hpp"
#include "obs/journal.hpp"
#include "obs/stream_writer.hpp"

namespace perdnn {
namespace {

TEST(LayerCache, StoreReportsOnlyNewLayers) {
  LayerCache cache(5);
  const auto first = cache.store(1, {3, 4, 5}, 0);
  EXPECT_EQ(first.size(), 3u);
  const auto second = cache.store(1, {4, 5, 6}, 0);
  EXPECT_EQ(second, std::vector<LayerId>{6});
  EXPECT_EQ(cache.layers(1).size(), 4u);
}

TEST(LayerCache, EntriesExpireAfterTtl) {
  LayerCache cache(3);
  cache.store(1, {0}, /*now=*/10);
  cache.expire(12);
  EXPECT_TRUE(cache.has_entry(1));
  cache.expire(13);  // 10 + 3 <= 13
  EXPECT_FALSE(cache.has_entry(1));
}

TEST(LayerCache, TouchResetsTtl) {
  LayerCache cache(3);
  cache.store(1, {0}, 0);
  cache.touch(1, 2);
  cache.expire(3);  // would have expired at 3 without the touch
  EXPECT_TRUE(cache.has_entry(1));
  cache.expire(5);
  EXPECT_FALSE(cache.has_entry(1));
}

TEST(LayerCache, DuplicateStoreAlsoResetsTtl) {
  LayerCache cache(3);
  cache.store(1, {0, 1}, 0);
  // A duplicate-suppressed send still refreshes the TTL (paper §3.B.2).
  const auto added = cache.store(1, {0, 1}, 2);
  EXPECT_TRUE(added.empty());
  cache.expire(4);
  EXPECT_TRUE(cache.has_entry(1));
}

TEST(LayerCache, ExpiryHappensExactlyAtTheBoundaryInterval) {
  // An entry stored at interval k with TTL t is alive through k + t - 1 and
  // dies the moment expire(k + t) runs — `expires_at <= now` is inclusive.
  LayerCache cache(4);
  cache.store(1, {0}, /*now=*/7);
  cache.expire(7);  // same interval: a fresh entry never dies immediately
  EXPECT_TRUE(cache.has_entry(1));
  cache.expire(10);  // k + t - 1
  EXPECT_TRUE(cache.has_entry(1));
  cache.expire(11);  // k + t, exactly
  EXPECT_FALSE(cache.has_entry(1));
}

TEST(LayerCache, TouchAtTheBoundaryMovesIt) {
  LayerCache cache(3);
  cache.store(1, {0}, 0);
  cache.touch(1, 3);  // touched at the interval it would have died
  cache.expire(3);
  EXPECT_TRUE(cache.has_entry(1));
  cache.expire(6);
  EXPECT_FALSE(cache.has_entry(1));
}

TEST(LayerCache, ReadsAndFailedSendsDoNotRefreshTtl) {
  // Only store() and touch() reset the clock. Queries don't — and a failed
  // or deferred migration send performs neither, so the receiver's TTL must
  // keep running as if the send never happened.
  LayerCache cache(3);
  cache.store(1, {0, 1}, 0);
  (void)cache.layers(1);
  (void)cache.has_entry(1);
  const DnnModel model = build_toy_model(1);
  (void)cache.mask(1, model);
  (void)cache.cached_bytes(1, model);
  cache.expire(2);  // repeated sweeps are not touches either
  cache.expire(3);
  EXPECT_FALSE(cache.has_entry(1));
}

TEST(LayerCache, EmptyStoreNeverCreatesAnEntry) {
  // Regression: a fully-deduplicated (empty) send to a client the cache has
  // never seen used to manufacture a phantom zero-layer entry with a live
  // TTL, inflating num_entries() and surviving expiry sweeps.
  LayerCache cache(3);
  const auto added = cache.store(1, {}, 0);
  EXPECT_TRUE(added.empty());
  EXPECT_FALSE(cache.has_entry(1));
  EXPECT_EQ(cache.num_entries(), 0u);
}

TEST(LayerCache, EmptyStoreStillRefreshesAnExistingEntry) {
  // The duplicate-transmission-suppression semantics must survive the
  // phantom-entry fix: an empty send to a client that *does* have an entry
  // is a TTL touch (paper §3.B.2).
  LayerCache cache(3);
  cache.store(1, {0, 1}, 0);
  const auto added = cache.store(1, {}, 2);
  EXPECT_TRUE(added.empty());
  cache.expire(4);  // would have died at 3 without the refresh
  EXPECT_TRUE(cache.has_entry(1));
  EXPECT_EQ(cache.layers(1).size(), 2u);  // and no layers appeared
  cache.expire(5);
  EXPECT_FALSE(cache.has_entry(1));
}

TEST(LayerCache, CrashWipeThenTtlBoundaryBehaviour) {
  // A server crash wipes its cache mid-TTL (fault plans do this via
  // erase()); re-stored entries restart the TTL clock from the re-store
  // interval, not the original one.
  LayerCache cache(4);
  cache.store(1, {0, 1}, 0);
  cache.store(2, {2}, 1);
  cache.erase(1);  // crash at interval 2 wipes client 1
  cache.erase(2);
  EXPECT_EQ(cache.num_entries(), 0u);
  cache.store(1, {0}, /*now=*/3);  // re-migrated after the server recovers
  cache.expire(6);                 // 3 + 4 - 1: still alive
  EXPECT_TRUE(cache.has_entry(1));
  cache.expire(7);  // 3 + 4: dies exactly at the boundary
  EXPECT_FALSE(cache.has_entry(1));
}

TEST(LayerCache, ExportRestoreRoundTripPreservesTtl) {
  LayerCache cache(3);
  cache.store(5, {1, 2}, 4);
  cache.store(2, {0}, 6);
  cache.touch(5, 7);  // TTL now runs from 7

  const auto entries = cache.export_entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].client, 2);  // sorted by client id
  EXPECT_EQ(entries[1].client, 5);

  LayerCache other(3);
  other.restore_entries(entries);
  EXPECT_EQ(other.export_entries(), entries);
  other.expire(9);  // client 2 died at 9; client 5 touched at 7 lives to 10
  EXPECT_FALSE(other.has_entry(2));
  EXPECT_TRUE(other.has_entry(5));
  other.expire(10);
  EXPECT_FALSE(other.has_entry(5));
}

TEST(LayerCache, TouchUnknownClientIsNoop) {
  LayerCache cache(3);
  cache.touch(99, 0);
  EXPECT_FALSE(cache.has_entry(99));
}

TEST(LayerCache, MaskAndBytesMatchModel) {
  const DnnModel model = build_toy_model(2);
  LayerCache cache(5);
  cache.store(7, {1, 2}, 0);
  const auto mask = cache.mask(7, model);
  ASSERT_EQ(mask.size(), static_cast<std::size_t>(model.num_layers()));
  EXPECT_TRUE(mask[1]);
  EXPECT_TRUE(mask[2]);
  EXPECT_FALSE(mask[0]);
  EXPECT_EQ(cache.cached_bytes(7, model),
            model.layer(1).weight_bytes + model.layer(2).weight_bytes);
  // Unknown client: empty mask, zero bytes.
  EXPECT_EQ(cache.cached_bytes(8, model), 0);
  for (bool b : cache.mask(8, model)) EXPECT_FALSE(b);
}

TEST(LayerCache, MaskRejectsOutOfRangeLayers) {
  const DnnModel model = build_toy_model(1);
  LayerCache cache(5);
  cache.store(1, {999}, 0);
  EXPECT_THROW(cache.mask(1, model), std::logic_error);
}

TEST(LayerCache, EraseRemovesEntry) {
  LayerCache cache(5);
  cache.store(1, {0}, 0);
  cache.erase(1);
  EXPECT_FALSE(cache.has_entry(1));
  EXPECT_EQ(cache.num_entries(), 0u);
}

TEST(LayerCache, EntriesAreIndependentPerClient) {
  LayerCache cache(2);
  cache.store(1, {0}, 0);
  cache.store(2, {1}, 5);
  cache.expire(3);
  EXPECT_FALSE(cache.has_entry(1));
  EXPECT_TRUE(cache.has_entry(2));
}

TEST(LayerCache, InvalidTtlRejected) {
  EXPECT_THROW(LayerCache(0), std::logic_error);
}

TEST(LayerCache, NegativeLayerIdIsRejectedAndLeavesNoMark) {
  LayerCache cache(5);
  cache.store(1, {2, 3}, 0);
  EXPECT_THROW(cache.store(1, {4, -1}, 0), std::logic_error);
  EXPECT_EQ(cache.layers(1), (std::vector<LayerId>{2, 3}));
  // The refused call set no mark: every layer of a new entry is fresh.
  EXPECT_EQ(cache.store(2, {4, 3, 2}, 0), (std::vector<LayerId>{4, 3, 2}));
}

/// The dedupe store() ran before its one-pass mark: a binary search over
/// the sorted entry and a linear scan over the layers kept so far. Kept
/// here as the oracle for the mark.
std::vector<LayerId> search_dedupe(const std::vector<LayerId>& cached,
                                   const std::vector<LayerId>& layers) {
  std::vector<LayerId> fresh;
  for (LayerId id : layers) {
    if (std::binary_search(cached.begin(), cached.end(), id)) continue;
    if (std::find(fresh.begin(), fresh.end(), id) != fresh.end()) continue;
    fresh.push_back(id);
  }
  return fresh;
}

TEST(LayerCache, OnePassStoreMatchesTheSearchDedupe) {
  // Seeded random stores over Inception-sized ids (0..301), with repeats
  // inside a call and overlap with the entry, interleaved with touch,
  // expire and wipe. Unbudgeted, store() returns exactly the oracle's fresh
  // list; budgeted, a prefix of it. Either way the entry becomes the sorted
  // union of what it held and what was admitted.
  constexpr int kLayers = 302;
  constexpr int kClients = 8;
  for (const bool budgeted : {false, true}) {
    SCOPED_TRACE(budgeted ? "budgeted" : "unbudgeted");
    LayerCache cache(3);
    if (budgeted) {
      std::vector<Bytes> bytes(kLayers);
      std::vector<double> saved(kLayers);
      for (int id = 0; id < kLayers; ++id) {
        bytes[static_cast<std::size_t>(id)] = 1 + (id * 7919) % 1000;
        saved[static_cast<std::size_t>(id)] = 0.01 + (id * 31 % 97) / 100.0;
      }
      cache.set_budget(40000);
      cache.set_cost_model(bytes, saved);
    }
    Rng rng(budgeted ? 2 : 1);
    std::vector<LayerId> incoming;
    for (int call = 0; call < 12000; ++call) {
      const int now = call / 40;
      const auto client = static_cast<ClientId>(rng.index(kClients));
      const std::vector<LayerId> before = cache.layers(client);
      incoming.clear();
      const std::size_t length = rng.index(48);
      while (incoming.size() < length) {
        const std::size_t pick = rng.index(3);
        if (pick == 0 && !before.empty()) {
          incoming.push_back(before[rng.index(before.size())]);
        } else if (pick == 1 && !incoming.empty()) {
          incoming.push_back(incoming[rng.index(incoming.size())]);
        } else {
          incoming.push_back(static_cast<LayerId>(rng.index(kLayers)));
        }
      }
      const std::vector<LayerId> expected = search_dedupe(before, incoming);
      const std::vector<LayerId> got = cache.store(client, incoming, now);
      if (budgeted) {
        ASSERT_LE(got.size(), expected.size()) << "call " << call;
        ASSERT_TRUE(std::equal(got.begin(), got.end(), expected.begin()))
            << "call " << call;
      } else {
        ASSERT_EQ(got, expected) << "call " << call;
      }
      std::vector<LayerId> merged = before;
      merged.insert(merged.end(), got.begin(), got.end());
      std::sort(merged.begin(), merged.end());
      ASSERT_EQ(cache.layers(client), merged) << "call " << call;

      const std::size_t event = rng.index(100);
      if (event < 5) {
        cache.touch(static_cast<ClientId>(rng.index(kClients)), now);
      } else if (event < 10) {
        cache.expire(now);
      } else if (event == 10) {
        cache.wipe(now);
      }
    }
    if (budgeted) {
      // Not vacuous: the budget both evicted entries and trimmed stores.
      EXPECT_GT(cache.evictions(), 0);
      EXPECT_GT(cache.partial_stores(), 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Budgeted (cost-aware) cache behaviour. Cost model: six 100-byte layers
// whose saved latency falls with the id, so the efficiency ordering is just
// the id ordering and every expectation below can be computed by hand.
// ---------------------------------------------------------------------------

LayerCache budgeted_cache(Bytes budget, int ttl = 10) {
  LayerCache cache(ttl);
  cache.set_budget(budget);
  cache.set_cost_model({100, 100, 100, 100, 100, 100},
                       {0.60, 0.50, 0.40, 0.30, 0.20, 0.10});
  return cache;
}

TEST(LayerCacheBudget, StoreWithoutCostModelIsRejected) {
  LayerCache cache(5);
  cache.set_budget(1000);
  EXPECT_THROW(cache.store(1, {0}, 0), std::logic_error);
}

TEST(LayerCacheBudget, EvictsLowestEfficiencyPerByteFirst) {
  LayerCache cache = budgeted_cache(400);
  cache.store(1, {4, 5}, 0);  // 200 B, saves 0.30 s -> least efficient
  cache.store(2, {0, 1}, 0);  // 200 B, saves 1.10 s -> most efficient
  EXPECT_EQ(cache.total_bytes(), 400);

  // Client 3 saves 0.70 s over 200 B: more efficient than client 1, less
  // than client 2 — only client 1 may be displaced.
  const auto added = cache.store(3, {2, 3}, 1);
  EXPECT_EQ(added, (std::vector<LayerId>{2, 3}));
  EXPECT_FALSE(cache.has_entry(1));
  EXPECT_TRUE(cache.has_entry(2));
  EXPECT_TRUE(cache.has_entry(3));
  EXPECT_EQ(cache.total_bytes(), 400);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.partial_stores(), 0);
}

TEST(LayerCacheBudget, NeverDisplacesMoreEfficientResidents) {
  LayerCache cache = budgeted_cache(400);
  cache.store(1, {0, 1}, 0);  // saves 1.10 s
  cache.store(2, {2, 3}, 0);  // saves 0.70 s
  // Client 3's 0.30 s / 200 B is worse than both residents: nothing is
  // evicted, no room exists, and the store admits nothing (the client
  // keeps the layers on-device instead).
  const auto added = cache.store(3, {4, 5}, 1);
  EXPECT_TRUE(added.empty());
  EXPECT_FALSE(cache.has_entry(3));
  EXPECT_TRUE(cache.has_entry(1));
  EXPECT_TRUE(cache.has_entry(2));
  EXPECT_EQ(cache.evictions(), 0);
  EXPECT_EQ(cache.partial_stores(), 1);
  EXPECT_EQ(cache.total_bytes(), 400);
}

TEST(LayerCacheBudget, PartialResidencyAdmitsTheLongestFittingPrefix) {
  LayerCache cache = budgeted_cache(250);
  // Incoming layers arrive in upload-schedule order; 250 B holds two of the
  // three 100-byte layers, so exactly the first two are admitted.
  const auto added = cache.store(1, {0, 1, 2}, 0);
  EXPECT_EQ(added, (std::vector<LayerId>{0, 1}));
  EXPECT_EQ(cache.layers(1), (std::vector<LayerId>{0, 1}));
  EXPECT_EQ(cache.total_bytes(), 200);
  EXPECT_EQ(cache.partial_stores(), 1);
  // The refused suffix can still arrive later once the budget allows.
  LayerCache roomy = budgeted_cache(600);
  roomy.store(1, {0, 1, 2}, 0);
  EXPECT_EQ(roomy.layers(1), (std::vector<LayerId>{0, 1, 2}));
  EXPECT_EQ(roomy.partial_stores(), 0);
}

TEST(LayerCacheBudget, TotalBytesNeverExceedsBudgetUnderChurn) {
  LayerCache cache = budgeted_cache(300, /*ttl=*/2);
  for (int t = 0; t < 12; ++t) {
    const ClientId c = t % 5;
    cache.store(c, {t % 6, (t + 1) % 6, (t + 2) % 6}, t);
    cache.expire(t);
    ASSERT_LE(cache.total_bytes(), 300) << "interval " << t;
  }
}

TEST(LayerCacheBudget, EvictionFreesRoomTrackedByTotalBytes) {
  LayerCache cache = budgeted_cache(300);
  cache.store(1, {5}, 0);  // 100 B, least efficient possible
  cache.store(2, {4}, 0);
  cache.store(3, {3}, 0);
  EXPECT_EQ(cache.total_bytes(), 300);
  // 0.60+0.50 over 200 B beats every resident; two victims must go.
  cache.store(4, {0, 1}, 1);
  EXPECT_EQ(cache.total_bytes(), 300);
  EXPECT_EQ(cache.evictions(), 2);
  EXPECT_FALSE(cache.has_entry(1));
  EXPECT_FALSE(cache.has_entry(2));
  EXPECT_TRUE(cache.has_entry(3));
  EXPECT_TRUE(cache.has_entry(4));
}

TEST(LayerCacheBudget, ExportRestoreCarriesEntryBytes) {
  LayerCache cache = budgeted_cache(1000);
  cache.store(1, {0, 1}, 0);
  cache.store(2, {5}, 3);
  const auto entries = cache.export_entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].bytes, 200);
  EXPECT_EQ(entries[1].bytes, 100);

  // Without a cost model the snapshot's byte counts are trusted as-is.
  LayerCache plain(10);
  plain.restore_entries(entries);
  EXPECT_EQ(plain.total_bytes(), 300);

  // With a cost model they are recomputed (pre-v5 snapshots carry zeros).
  auto zeroed = entries;
  for (auto& e : zeroed) e.bytes = 0;
  LayerCache budgeted = budgeted_cache(1000);
  budgeted.restore_entries(zeroed);
  EXPECT_EQ(budgeted.total_bytes(), 300);
  EXPECT_EQ(budgeted.export_entries(), entries);
}

// ---------------------------------------------------------------------------
// Journal pinning: the exact event stream the cache records.
// ---------------------------------------------------------------------------

/// A journal file per test case: ctest runs the cases as parallel processes.
std::string journal_path() {
  return ::testing::TempDir() + "perdnn_layer_cache_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".jsonl";
}

/// Flushes `journal` and reads back the events it streamed to `path`.
std::vector<obs::JournalEvent> streamed_events(
    obs::JournalStreamWriter& journal, const std::string& path) {
  journal.flush();
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  return obs::journal_from_jsonl(text.str());
}

TEST(LayerCacheJournal, FullyDuplicateSendRecordsATouchNotAZeroLayerStore) {
  // Regression: a non-empty but fully-duplicate send used to journal
  // kCacheStore with aux=0 while the equivalent empty send journalled
  // kCacheTouch — the same suppressed transmission, two different stories.
  const std::string path = journal_path();
  obs::JournalStreamWriter journal(path);
  LayerCache cache(5);
  cache.set_journal(&journal, /*self=*/7);

  cache.store(1, {0, 1}, 0);  // real store
  cache.store(1, {1, 0}, 1);  // non-empty, fully duplicate
  cache.store(1, {}, 2);      // empty (fully deduplicated upstream)

  const auto events = streamed_events(journal, path);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, obs::JournalEventKind::kCacheStore);
  EXPECT_EQ(events[0].aux, 2);
  EXPECT_EQ(events[1].kind, obs::JournalEventKind::kCacheTouch);
  EXPECT_EQ(events[2].kind, obs::JournalEventKind::kCacheTouch);
  for (const auto& event : events) {
    EXPECT_EQ(event.server, 7);
    if (event.kind == obs::JournalEventKind::kCacheStore) {
      EXPECT_GT(event.aux, 0) << "zero-layer store leaked into the journal";
    }
  }
  // And the JSONL stream pins the kind names downstream tools filter on.
  const std::string jsonl = obs::journal_to_jsonl(events);
  EXPECT_NE(jsonl.find("cache_store"), std::string::npos);
  EXPECT_NE(jsonl.find("cache_touch"), std::string::npos);
}

TEST(LayerCacheJournal, BudgetEvictionCarriesBytesCrashWipeDoesNot) {
  // Budget evictions and crash wipes share kCacheEvict; bytes > 0 is the
  // discriminator perdnn_obs uses to tell them apart.
  const std::string path = journal_path();
  obs::JournalStreamWriter journal(path);
  LayerCache cache = budgeted_cache(200);
  cache.set_journal(&journal, /*self=*/3);

  cache.store(1, {4, 5}, 0);      // resident, least efficient
  cache.store(2, {0, 1}, 1);      // displaces client 1
  cache.store(2, {0, 1, 2}, 2);   // duplicate prefix + one refused layer
  cache.wipe(3);                  // crash wipe: bytes stays 0

  const auto events = streamed_events(journal, path);
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].kind, obs::JournalEventKind::kCacheStore);
  // Budget eviction of client 1: 200 bytes, 2 layers, on server 3.
  EXPECT_EQ(events[1].kind, obs::JournalEventKind::kCacheEvict);
  EXPECT_EQ(events[1].client, 1);
  EXPECT_EQ(events[1].server, 3);
  EXPECT_EQ(events[1].bytes, 200);
  EXPECT_EQ(events[1].aux, 2);
  EXPECT_EQ(events[2].kind, obs::JournalEventKind::kCacheStore);
  // Over-budget remainder: one 100-byte layer refused; the fully-refused
  // send still refreshes the TTL, so a touch follows the partial record.
  EXPECT_EQ(events[3].kind, obs::JournalEventKind::kCachePartial);
  EXPECT_EQ(events[3].client, 2);
  EXPECT_EQ(events[3].bytes, 100);
  EXPECT_EQ(events[3].aux, 1);
  EXPECT_EQ(events[4].kind, obs::JournalEventKind::kCacheTouch);
  // Crash wipe keeps the legacy zero-byte form.
  EXPECT_EQ(events[5].kind, obs::JournalEventKind::kCacheEvict);
  EXPECT_EQ(events[5].client, 2);
  EXPECT_EQ(events[5].bytes, 0);
}

}  // namespace
}  // namespace perdnn
