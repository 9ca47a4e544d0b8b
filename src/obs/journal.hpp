// Deterministic structured event journal: the explainability layer under
// both simulators. Components on the serial control path record typed
// events — attach/detach, the migration lifecycle, fault apply/clear, cache
// churn, degraded-estimation and local-fallback decisions — each stamped
// with the sim interval (never wall clock) and a causal chain id linking
// one client's attach -> plan -> upload -> serve path end to end.
//
// Events stream to a JSONL file through obs::JournalStreamWriter
// (obs/stream_writer.hpp), which numbers the chains; this header holds the
// event record, its codecs and format_journal_line, the one line formatter
// every JSONL encoding goes through. Determinism contract: every record
// sits on the serial control path of the simulation (worker threads never
// record; they may format batches of recorded events, which reach the file
// in record order), so the journal is byte-identical across thread counts
// and SIMD settings.
// A checkpoint stores the stream's byte offset and chain state, not its
// events, so a resumed run truncates the file back to the checkpoint and
// reproduces the uninterrupted journal exactly.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/json.hpp"

namespace perdnn::obs {

enum class JournalEventKind : std::uint8_t {
  kAttach = 0,         // client attached to server (starts a new chain)
  kDetach,             // detail: DetachReason
  kPlan,               // upload plan computed; detail: PlanClass, aux: #pending
  kDegradedPlan,       // plan computed from stale telemetry; aux: #pending
  kColdServe,          // cold-window queries served; aux: #queries, value: latency_s
  kLocalFallback,      // queries ran on-device; aux: #queries, value: latency_s
  kMigrationPlanned,   // proactive push decided; peer: target, aux: #layers
  kMigrationPushed,    // bytes delivered to peer; aux: #layers delivered
  kMigrationDeferred,  // parked for retry; detail: attempts, aux: next attempt
  kMigrationRetried,   // came up for retry; detail: attempts
  kMigrationDropped,   // abandoned; detail: attempts, aux: DropReason
  kFaultApplied,       // detail: FaultCode, aux: duration, value: severity
  kFaultCleared,       // detail: FaultCode
  kCacheStore,         // layers added on server; aux: #new layers
  kCacheTouch,         // TTL refreshed for a client's entry
  kCacheEvict,         // entry erased (crash wipe); aux: #layers
  kCacheExpire,        // entry aged out of TTL; aux: #layers
  kCheckpointSave,     // reserved: no engine records checkpoint markers, so
  kCheckpointResume,   // a resumed journal equals an uninterrupted one
  // Wire values are positional and frozen; new kinds append here.
  kAttachShed,         // admission control refused the attach; detail: server
                       // queue depth at the decision, aux: cached prefix
  kCachePartial,       // budgeted store admitted only a prefix of the send;
                       // bytes: refused bytes, aux: #layers refused
};

/// Stable lower_snake_case name used in JSONL and by perdnn_obs filters.
const char* journal_kind_name(JournalEventKind kind);

/// Inverse of journal_kind_name; returns false on an unknown name.
bool journal_kind_from_name(const std::string& name, JournalEventKind* out);

/// `detail` codes for kDetach.
enum DetachReason : std::int32_t {
  kDetachMoved = 0,        // handover to another server
  kDetachTraceEnd = 1,     // trajectory ended
  kDetachCrash = 2,        // attached server crashed
  kDetachDisconnect = 3,   // scripted client disconnect
  kDetachUnreachable = 4,  // no server in range
};

/// `detail` codes for kPlan (the cache-outcome class of the attach).
enum PlanClass : std::int32_t {
  kPlanHit = 0,      // every needed layer cached
  kPlanPartial = 1,  // some layers cached
  kPlanMiss = 2,     // nothing cached
};

/// `detail` codes for kFaultApplied / kFaultCleared.
enum FaultCode : std::int32_t {
  kFaultServerCrash = 0,
  kFaultBackhaulDegrade = 1,
  kFaultTelemetryDropout = 2,
  kFaultClientDisconnect = 3,
};

/// `aux` codes for kMigrationDropped.
enum DropReason : std::int32_t {
  kDropRetryBudget = 0,  // outlived max_attempts
  kDropDissolved = 1,    // layers arrived by other means; nothing left to send
  kDropQueueFull = 2,    // source server's retry queue was at capacity
};

/// One journal record. Fixed shape: unused fields keep their defaults so
/// the wire and JSONL encodings stay uniform. `detail`/`aux` are
/// kind-specific discriminants (see the per-kind comments above); `value`
/// carries latencies, severities and link factors.
struct JournalEvent {
  int interval = 0;
  JournalEventKind kind = JournalEventKind::kAttach;
  std::uint64_t chain = 0;  // 0 = not part of any client chain
  ClientId client = -1;
  ServerId server = kNoServer;
  ServerId peer = kNoServer;
  Bytes bytes = 0;
  std::int32_t detail = 0;
  std::int32_t aux = 0;
  double value = 0.0;

  bool operator==(const JournalEvent&) const = default;
};

/// Thrown by the binary decoder and the JSONL parser on malformed input.
class JournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Room one JSONL line can need (no trailing newline): 95 bytes of key
/// literals, eight integers of at most 20 characters, the longest kind name
/// and one number.
inline constexpr std::size_t kMaxJournalJsonlLine =
    95 + 8 * 20 + 18 + kJsonNumberMaxChars;

/// Writes the JSONL encoding of one event (no trailing newline) at `p`,
/// which must have room for kMaxJournalJsonlLine bytes, and returns the end
/// of the line; bytes of that room past the end may be overwritten. This is
/// the single line formatter behind append_journal_event_jsonl (and so
/// journal_to_jsonl) and the streaming journal writer, so every encoding is
/// byte-identical by construction. Throws like json_number on a NaN or
/// infinite `value`, leaving a partial line at `p`.
char* format_journal_line(char* p, const JournalEvent& event);

/// Appends format_journal_line's text to `out`. A NaN or infinite `value`
/// throws before `out` changes.
void append_journal_event_jsonl(std::string& out, const JournalEvent& event);

/// Serializes `events` as JSONL (the exact format the stream writer writes).
std::string journal_to_jsonl(const std::vector<JournalEvent>& events);

/// Parses JSONL produced by the stream writer / journal_to_jsonl. Blank lines
/// and `#` comment lines are skipped. Throws JournalError with the line
/// number on malformed input.
std::vector<JournalEvent> journal_from_jsonl(const std::string& text);

/// Binary codec over the shared wire framing (magic PDNNJNL1).
std::string journal_encode(const std::vector<JournalEvent>& events);
std::vector<JournalEvent> journal_decode(const std::string& bytes);

/// True when `bytes` starts with the binary journal magic — used by
/// perdnn_obs to auto-detect binary vs JSONL inputs.
bool journal_is_binary(const std::string& bytes);

}  // namespace perdnn::obs
