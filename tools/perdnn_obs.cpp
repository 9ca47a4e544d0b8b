// perdnn_obs — query tool for the deterministic event journal.
//
//   perdnn_obs validate <journal>
//       Parse the journal (JSONL or binary .jnl, auto-detected) and print a
//       one-line summary. Malformed input exits 2.
//   perdnn_obs filter <journal> [--client C] [--server S] [--kind K]
//                     [--from I] [--to I]
//       Print matching events as JSONL (same schema --journal-out writes).
//       --server matches either endpoint (server or peer); --kind takes a
//       lower_snake_case event name; --from/--to bound the interval range
//       (inclusive).
//   perdnn_obs aggregate <journal> [--top N]
//       Per-kind event counts, migration byte accounting, and the top-N
//       servers by cache evictions + TTL expiries (default 5).
//   perdnn_obs chain <journal> (<chain-id> | --client C)
//       Reconstruct one causal chain — attach -> plan -> upload -> serve /
//       fallback — as an indented timeline with a latency breakdown. With
//       --client, every chain of that client is printed in order.
//   perdnn_obs diff <journal-a> <journal-b>
//       Compare two journals event by event; print the first divergence
//       with context. Identical journals exit 0, differing ones exit 1
//       (the debugging tool for determinism breaks).
//   perdnn_obs convert <in> <out>
//       Re-encode a journal; the output form is chosen by the extension of
//       <out> (.jnl = binary, anything else = JSONL).
//
// All input errors exit 2 with a message on stderr; `diff` reserves exit 1
// for "valid but different".
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/arg_parse.hpp"
#include "obs/journal.hpp"

namespace {

using namespace perdnn;
using obs::JournalEvent;
using obs::JournalEventKind;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  perdnn_obs validate <journal>\n"
      "  perdnn_obs filter <journal> [--client C] [--server S] [--kind K]\n"
      "                    [--from I] [--to I]\n"
      "  perdnn_obs aggregate <journal> [--top N]\n"
      "  perdnn_obs chain <journal> (<chain-id> | --client C)\n"
      "  perdnn_obs diff <journal-a> <journal-b>\n"
      "  perdnn_obs convert <in> <out>\n"
      "journals may be JSONL (--journal-out FILE) or binary (FILE.jnl);\n"
      "the format is auto-detected on read\n");
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Loads a journal in either encoding (binary magic sniffed first).
std::vector<JournalEvent> load_journal(const std::string& path) {
  const std::string bytes = read_file(path);
  if (obs::journal_is_binary(bytes)) return obs::journal_decode(bytes);
  return obs::journal_from_jsonl(bytes);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

const char* detach_reason_name(std::int32_t detail) {
  switch (detail) {
    case obs::kDetachMoved: return "moved";
    case obs::kDetachTraceEnd: return "trace_end";
    case obs::kDetachCrash: return "crash";
    case obs::kDetachDisconnect: return "disconnect";
    case obs::kDetachUnreachable: return "unreachable";
    default: return "?";
  }
}

const char* plan_class_name(std::int32_t detail) {
  switch (detail) {
    case obs::kPlanHit: return "hit";
    case obs::kPlanPartial: return "partial";
    case obs::kPlanMiss: return "miss";
    default: return "?";
  }
}

const char* fault_code_name(std::int32_t detail) {
  switch (detail) {
    case obs::kFaultServerCrash: return "server_crash";
    case obs::kFaultBackhaulDegrade: return "backhaul_degrade";
    case obs::kFaultTelemetryDropout: return "telemetry_dropout";
    case obs::kFaultClientDisconnect: return "client_disconnect";
    default: return "?";
  }
}

const char* drop_reason_name(std::int32_t aux) {
  switch (aux) {
    case obs::kDropRetryBudget: return "retry_budget";
    case obs::kDropDissolved: return "dissolved";
    case obs::kDropQueueFull: return "queue_full";
    default: return "?";
  }
}

/// One human-readable line for the `chain` timeline.
std::string describe(const JournalEvent& e) {
  char buf[256];
  switch (e.kind) {
    case JournalEventKind::kAttach:
      std::snprintf(buf, sizeof buf,
                    "attach to server %d (link factor %.3f)", e.server,
                    e.value);
      break;
    case JournalEventKind::kDetach:
      std::snprintf(buf, sizeof buf, "detach from server %d (%s)", e.server,
                    detach_reason_name(e.detail));
      break;
    case JournalEventKind::kPlan:
    case JournalEventKind::kDegradedPlan:
      std::snprintf(buf, sizeof buf,
                    "%s on server %d: %s, %d layer(s) / %lld bytes to upload",
                    e.kind == JournalEventKind::kDegradedPlan
                        ? "degraded plan"
                        : "plan",
                    e.server, plan_class_name(e.detail), e.aux,
                    static_cast<long long>(e.bytes));
      break;
    case JournalEventKind::kColdServe:
      std::snprintf(buf, sizeof buf,
                    "cold window on server %d: %d quer%s (%d routed), "
                    "latency sum %.3fs",
                    e.server, e.aux, e.aux == 1 ? "y" : "ies", e.detail,
                    e.value);
      break;
    case JournalEventKind::kLocalFallback:
      std::snprintf(buf, sizeof buf,
                    "local fallback near server %d: %d quer%s, latency sum "
                    "%.3fs",
                    e.server, e.aux, e.aux == 1 ? "y" : "ies", e.value);
      break;
    case JournalEventKind::kMigrationPlanned:
      std::snprintf(buf, sizeof buf,
                    "migration planned %d -> %d: %d layer(s) / %lld bytes",
                    e.server, e.peer, e.aux,
                    static_cast<long long>(e.bytes));
      break;
    case JournalEventKind::kMigrationPushed:
      std::snprintf(buf, sizeof buf,
                    "migration pushed %d -> %d: %d layer(s), %lld bytes "
                    "crossed",
                    e.server, e.peer, e.aux,
                    static_cast<long long>(e.bytes));
      break;
    case JournalEventKind::kMigrationDeferred:
      std::snprintf(buf, sizeof buf,
                    "migration deferred %d -> %d: %lld bytes, attempt %d, "
                    "retry at interval %d",
                    e.server, e.peer, static_cast<long long>(e.bytes),
                    e.detail, e.aux);
      break;
    case JournalEventKind::kMigrationRetried:
      std::snprintf(buf, sizeof buf,
                    "migration retried %d -> %d: %lld bytes, attempt %d",
                    e.server, e.peer, static_cast<long long>(e.bytes),
                    e.detail);
      break;
    case JournalEventKind::kMigrationDropped:
      std::snprintf(buf, sizeof buf,
                    "migration dropped %d -> %d: %lld bytes after %d "
                    "attempt(s) (%s)",
                    e.server, e.peer, static_cast<long long>(e.bytes),
                    e.detail, drop_reason_name(e.aux));
      break;
    case JournalEventKind::kFaultApplied:
      std::snprintf(buf, sizeof buf,
                    "fault applied: %s (server %d, %d interval(s), severity "
                    "%.2f)",
                    fault_code_name(e.detail), e.server, e.aux, e.value);
      break;
    case JournalEventKind::kFaultCleared:
      std::snprintf(buf, sizeof buf, "fault cleared: %s (server %d)",
                    fault_code_name(e.detail), e.server);
      break;
    case JournalEventKind::kCacheStore:
      std::snprintf(buf, sizeof buf, "cache store on server %d: %d new "
                    "layer(s)",
                    e.server, e.aux);
      break;
    case JournalEventKind::kCacheTouch:
      std::snprintf(buf, sizeof buf, "cache TTL refresh on server %d",
                    e.server);
      break;
    case JournalEventKind::kCacheEvict:
      // Crash wipes evict with bytes = 0; budget evictions carry the
      // victim's resident byte count.
      if (e.bytes > 0)
        std::snprintf(buf, sizeof buf,
                      "cache evicted on server %d (budget, %d layer(s), "
                      "%lld bytes)",
                      e.server, e.aux, static_cast<long long>(e.bytes));
      else
        std::snprintf(buf, sizeof buf,
                      "cache evicted on server %d (crash wipe, %d layer(s))",
                      e.server, e.aux);
      break;
    case JournalEventKind::kCacheExpire:
      std::snprintf(buf, sizeof buf,
                    "cache expired on server %d (TTL, %d layer(s))", e.server,
                    e.aux);
      break;
    case JournalEventKind::kCheckpointSave:
      std::snprintf(buf, sizeof buf, "checkpoint saved");
      break;
    case JournalEventKind::kCheckpointResume:
      std::snprintf(buf, sizeof buf, "resumed from checkpoint");
      break;
    case JournalEventKind::kAttachShed:
      std::snprintf(buf, sizeof buf,
                    "attach shed by server %d admission control "
                    "(queue depth %d, cached prefix %d)",
                    e.server, e.detail, e.aux);
      break;
    case JournalEventKind::kCachePartial:
      std::snprintf(buf, sizeof buf,
                    "cache store trimmed on server %d (budget, %d layer(s) "
                    "refused, %lld bytes)",
                    e.server, e.aux, static_cast<long long>(e.bytes));
      break;
  }
  return buf;
}

// ---------------------------------------------------------------------------
// Subcommands

int cmd_validate(const std::string& path) {
  const std::string bytes = read_file(path);
  const bool binary = obs::journal_is_binary(bytes);
  const std::vector<JournalEvent> events =
      binary ? obs::journal_decode(bytes) : obs::journal_from_jsonl(bytes);
  int min_interval = 0, max_interval = 0;
  std::uint64_t max_chain = 0;
  for (const JournalEvent& e : events) {
    min_interval = std::min(min_interval, e.interval);
    max_interval = std::max(max_interval, e.interval);
    max_chain = std::max(max_chain, e.chain);
  }
  std::printf("%s: valid %s journal, %zu event(s), intervals %d..%d, "
              "%llu chain(s)\n",
              path.c_str(), binary ? "binary" : "JSONL", events.size(),
              min_interval, max_interval,
              static_cast<unsigned long long>(max_chain));
  return 0;
}

struct Filter {
  std::optional<long long> client;
  std::optional<long long> server;
  std::optional<JournalEventKind> kind;
  std::optional<long long> from;
  std::optional<long long> to;

  bool matches(const JournalEvent& e) const {
    if (client && e.client != *client) return false;
    if (server && e.server != *server && e.peer != *server) return false;
    if (kind && e.kind != *kind) return false;
    if (from && e.interval < *from) return false;
    if (to && e.interval > *to) return false;
    return true;
  }
};

std::optional<Filter> parse_filter(int argc, char** argv) {
  Filter f;
  for (int i = 0; i < argc; ++i) {
    const std::string name = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: flag '%s' needs an argument\n",
                   name.c_str());
      return std::nullopt;
    }
    const std::string value = argv[++i];
    long long n = 0;
    if (name == "--kind") {
      JournalEventKind kind;
      if (!obs::journal_kind_from_name(value, &kind)) {
        std::fprintf(stderr, "error: unknown event kind '%s'\n",
                     value.c_str());
        return std::nullopt;
      }
      f.kind = kind;
      continue;
    }
    if (!parse_int(value, &n)) {
      std::fprintf(stderr, "error: flag '%s' got non-numeric value '%s'\n",
                   name.c_str(), value.c_str());
      return std::nullopt;
    }
    if (name == "--client") f.client = n;
    else if (name == "--server") f.server = n;
    else if (name == "--from") f.from = n;
    else if (name == "--to") f.to = n;
    else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", name.c_str());
      return std::nullopt;
    }
  }
  return f;
}

int cmd_filter(const std::string& path, int argc, char** argv) {
  const std::optional<Filter> filter = parse_filter(argc, argv);
  if (!filter) return 2;
  std::vector<JournalEvent> matched;
  for (const JournalEvent& e : load_journal(path))
    if (filter->matches(e)) matched.push_back(e);
  std::fputs(obs::journal_to_jsonl(matched).c_str(), stdout);
  std::fprintf(stderr, "%zu event(s) matched\n", matched.size());
  return 0;
}

int cmd_aggregate(const std::string& path, int argc, char** argv) {
  long long top_n = 5;
  for (int i = 0; i < argc; ++i) {
    const std::string name = argv[i];
    if (name == "--top" && i + 1 < argc && parse_int(argv[i + 1], &top_n) &&
        top_n > 0) {
      ++i;
      continue;
    }
    std::fprintf(stderr, "error: unknown flag or bad value '%s'\n",
                 name.c_str());
    return 2;
  }
  const std::vector<JournalEvent> events = load_journal(path);

  std::map<std::string, long long> by_kind;
  std::map<ServerId, long long> evictions;  // crash wipes + TTL expiries
  long long planned_bytes = 0, pushed_bytes = 0, deferred_bytes = 0,
            retried_bytes = 0, dropped_bytes = 0;
  long long shed_attaches = 0;
  long long budget_evictions = 0, budget_evicted_bytes = 0;
  long long partial_stores = 0, partial_refused_bytes = 0;
  for (const JournalEvent& e : events) {
    ++by_kind[obs::journal_kind_name(e.kind)];
    switch (e.kind) {
      case JournalEventKind::kCacheEvict:
      case JournalEventKind::kCacheExpire:
        ++evictions[e.server];
        if (e.kind == JournalEventKind::kCacheEvict && e.bytes > 0) {
          ++budget_evictions;
          budget_evicted_bytes += e.bytes;
        }
        break;
      case JournalEventKind::kCachePartial:
        ++partial_stores;
        partial_refused_bytes += e.bytes;
        break;
      case JournalEventKind::kMigrationPlanned:
        planned_bytes += e.bytes;
        break;
      case JournalEventKind::kMigrationPushed:
        pushed_bytes += e.bytes;
        break;
      case JournalEventKind::kMigrationDeferred:
        deferred_bytes += e.bytes;
        break;
      case JournalEventKind::kMigrationRetried:
        retried_bytes += e.bytes;
        break;
      case JournalEventKind::kMigrationDropped:
        dropped_bytes += e.bytes;
        break;
      case JournalEventKind::kAttachShed:
        ++shed_attaches;
        break;
      default:
        break;
    }
  }

  std::printf("%zu event(s)\n", events.size());
  std::printf("events by kind:\n");
  for (const auto& [kind, count] : by_kind)
    std::printf("  %-20s %lld\n", kind.c_str(), count);
  std::printf("migration bytes: planned %lld, pushed %lld, deferred %lld, "
              "retried %lld, dropped %lld\n",
              planned_bytes, pushed_bytes, deferred_bytes, retried_bytes,
              dropped_bytes);
  if (shed_attaches > 0)
    std::printf("admission control: %lld attach(es) shed\n", shed_attaches);
  if (budget_evictions > 0 || partial_stores > 0)
    std::printf("cache budget: %lld eviction(s) (%lld bytes), %lld partial "
                "store(s) (%lld bytes refused)\n",
                budget_evictions, budget_evicted_bytes, partial_stores,
                partial_refused_bytes);

  std::vector<std::pair<ServerId, long long>> ranked(evictions.begin(),
                                                     evictions.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (ranked.size() > static_cast<std::size_t>(top_n))
    ranked.resize(static_cast<std::size_t>(top_n));
  std::printf("top %lld server(s) by evictions + TTL expiries:\n", top_n);
  for (const auto& [server, count] : ranked)
    std::printf("  server %-4d %lld\n", server, count);
  return 0;
}

/// Prints one chain's causal sequence and its latency breakdown. Returns
/// false if no event carries the chain id.
bool print_chain(const std::vector<JournalEvent>& events,
                 std::uint64_t chain) {
  std::vector<const JournalEvent*> seq;
  for (const JournalEvent& e : events)
    if (e.chain == chain) seq.push_back(&e);
  if (seq.empty()) return false;

  std::printf("chain %llu (client %d), %zu event(s):\n",
              static_cast<unsigned long long>(chain), seq.front()->client,
              seq.size());
  long long cold_queries = 0, local_queries = 0;
  double cold_latency = 0.0, local_latency = 0.0;
  for (const JournalEvent* e : seq) {
    std::printf("  [interval %4d] %s\n", e->interval, describe(*e).c_str());
    if (e->kind == JournalEventKind::kColdServe) {
      cold_queries += e->aux;
      cold_latency += e->value;
    } else if (e->kind == JournalEventKind::kLocalFallback) {
      local_queries += e->aux;
      local_latency += e->value;
    }
  }
  std::printf("  latency breakdown: %lld cold-window quer%s",
              cold_queries, cold_queries == 1 ? "y" : "ies");
  if (cold_queries > 0)
    std::printf(" (mean %.3fs)",
                cold_latency / static_cast<double>(cold_queries));
  std::printf(", %lld local-fallback quer%s", local_queries,
              local_queries == 1 ? "y" : "ies");
  if (local_queries > 0)
    std::printf(" (mean %.3fs)",
                local_latency / static_cast<double>(local_queries));
  std::printf("\n");
  return true;
}

int cmd_chain(const std::string& path, int argc, char** argv) {
  const std::vector<JournalEvent> events = load_journal(path);
  if (argc == 2 && std::strcmp(argv[0], "--client") == 0) {
    long long client = 0;
    if (!parse_int(argv[1], &client)) {
      std::fprintf(stderr, "error: --client got non-numeric value '%s'\n",
                   argv[1]);
      return 2;
    }
    // Every chain this client ever opened, in chain order.
    std::vector<std::uint64_t> chains;
    for (const JournalEvent& e : events)
      if (e.client == client && e.chain != 0 &&
          (chains.empty() || chains.back() != e.chain))
        chains.push_back(e.chain);
    std::sort(chains.begin(), chains.end());
    chains.erase(std::unique(chains.begin(), chains.end()), chains.end());
    if (chains.empty()) {
      std::fprintf(stderr, "no chains recorded for client %lld\n", client);
      return 1;
    }
    for (const std::uint64_t chain : chains) print_chain(events, chain);
    return 0;
  }
  if (argc != 1) return usage();
  long long chain = 0;
  if (!parse_int(argv[0], &chain) || chain <= 0) {
    std::fprintf(stderr, "error: chain id must be a positive integer "
                 "(got '%s')\n",
                 argv[0]);
    return 2;
  }
  if (!print_chain(events, static_cast<std::uint64_t>(chain))) {
    std::fprintf(stderr, "chain %lld not found\n", chain);
    return 1;
  }
  return 0;
}

int cmd_diff(const std::string& path_a, const std::string& path_b) {
  const std::vector<JournalEvent> a = load_journal(path_a);
  const std::vector<JournalEvent> b = load_journal(path_b);
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] == b[i]) continue;
    std::printf("journals diverge at event %zu:\n", i);
    if (i > 0)
      std::printf("  last common: [interval %4d] %s\n", a[i - 1].interval,
                  describe(a[i - 1]).c_str());
    std::printf("  a: [interval %4d] %s\n", a[i].interval,
                describe(a[i]).c_str());
    std::printf("  b: [interval %4d] %s\n", b[i].interval,
                describe(b[i]).c_str());
    return 1;
  }
  if (a.size() != b.size()) {
    const auto& longer = a.size() > b.size() ? a : b;
    std::printf("journals agree on the first %zu event(s); %s has %zu "
                "extra, first: [interval %4d] %s\n",
                common, a.size() > b.size() ? "a" : "b",
                longer.size() - common, longer[common].interval,
                describe(longer[common]).c_str());
    return 1;
  }
  std::printf("journals identical (%zu event(s))\n", a.size());
  return 0;
}

int cmd_convert(const std::string& in_path, const std::string& out_path) {
  const std::vector<JournalEvent> events = load_journal(in_path);
  const std::string out_bytes = ends_with(out_path, ".jnl")
                                    ? obs::journal_encode(events)
                                    : obs::journal_to_jsonl(events);
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + out_path);
  out.write(out_bytes.data(),
            static_cast<std::streamsize>(out_bytes.size()));
  if (!out) throw std::runtime_error("error writing " + out_path);
  std::printf("%zu event(s) -> %s\n", events.size(), out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  try {
    if (command == "validate" && argc == 3) return cmd_validate(argv[2]);
    if (command == "filter")
      return cmd_filter(argv[2], argc - 3, argv + 3);
    if (command == "aggregate")
      return cmd_aggregate(argv[2], argc - 3, argv + 3);
    if (command == "chain" && argc >= 4)
      return cmd_chain(argv[2], argc - 3, argv + 3);
    if (command == "diff" && argc == 4) return cmd_diff(argv[2], argv[3]);
    if (command == "convert" && argc == 4)
      return cmd_convert(argv[2], argv[3]);
  } catch (const obs::JournalError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return usage();
}
