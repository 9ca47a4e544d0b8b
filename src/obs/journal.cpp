#include "obs/journal.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>

#include "common/wire.hpp"
#include "obs/json.hpp"

namespace perdnn::obs {

namespace {

constexpr char kJournalMagic[8] = {'P', 'D', 'N', 'N', 'J', 'N', 'L', '1'};
constexpr std::uint32_t kJournalVersion = 1;

struct KindName {
  JournalEventKind kind;
  std::string_view name;
};

// Indexed by the kind's wire value (checked below), so naming an event is
// one table load.
constexpr KindName kKindNames[] = {
    {JournalEventKind::kAttach, "attach"},
    {JournalEventKind::kDetach, "detach"},
    {JournalEventKind::kPlan, "plan"},
    {JournalEventKind::kDegradedPlan, "degraded_plan"},
    {JournalEventKind::kColdServe, "cold_serve"},
    {JournalEventKind::kLocalFallback, "local_fallback"},
    {JournalEventKind::kMigrationPlanned, "migration_planned"},
    {JournalEventKind::kMigrationPushed, "migration_pushed"},
    {JournalEventKind::kMigrationDeferred, "migration_deferred"},
    {JournalEventKind::kMigrationRetried, "migration_retried"},
    {JournalEventKind::kMigrationDropped, "migration_dropped"},
    {JournalEventKind::kFaultApplied, "fault_applied"},
    {JournalEventKind::kFaultCleared, "fault_cleared"},
    {JournalEventKind::kCacheStore, "cache_store"},
    {JournalEventKind::kCacheTouch, "cache_touch"},
    {JournalEventKind::kCacheEvict, "cache_evict"},
    {JournalEventKind::kCacheExpire, "cache_expire"},
    {JournalEventKind::kCheckpointSave, "checkpoint_save"},
    {JournalEventKind::kCheckpointResume, "checkpoint_resume"},
    {JournalEventKind::kAttachShed, "attach_shed"},
    {JournalEventKind::kCachePartial, "cache_partial"},
};

constexpr bool kind_table_is_indexed() {
  for (std::size_t i = 0; i < std::size(kKindNames); ++i)
    if (static_cast<std::size_t>(kKindNames[i].kind) != i) return false;
  return true;
}
static_assert(kind_table_is_indexed());

constexpr std::string_view kind_name(JournalEventKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kKindNames) ? kKindNames[i].name : "unknown";
}

/// `,"kind":"<name>","chain":` as one literal, padded to a fixed width so
/// the line formatter copies it with a constant-size memcpy (a name too
/// long for it fails the constant evaluation below).
struct KindField {
  char text[40];
  std::size_t size;
};

/// One field per kind, indexed like kKindNames, and a last one for a kind
/// outside the table ("unknown", as kind_name prints it).
constexpr auto kKindFields = [] {
  std::array<KindField, std::size(kKindNames) + 1> fields{};
  for (std::size_t i = 0; i < fields.size(); ++i) {
    KindField& f = fields[i];
    for (const std::string_view part :
         {std::string_view(",\"kind\":\""),
          kind_name(static_cast<JournalEventKind>(i)),
          std::string_view("\",\"chain\":")})
      for (const char c : part) f.text[f.size++] = c;
  }
  return fields;
}();

template <std::size_t N>
char* put(char* p, const char (&literal)[N]) {
  std::memcpy(p, literal, N - 1);
  return p + N - 1;
}

template <typename Int>
char* put_int(char* p, Int v) {
  return std::to_chars(p, p + 20, v).ptr;
}

}  // namespace

char* format_journal_line(char* p, const JournalEvent& e) {
  // Every key is a fixed-size memcpy of a literal, the kind and its
  // neighbouring keys one, and every integer one to_chars.
  p = put(p, "{\"interval\":");
  p = put_int(p, e.interval);
  const KindField& kind = kKindFields[std::min(
      static_cast<std::size_t>(e.kind), std::size(kKindNames))];
  std::memcpy(p, kind.text, sizeof kind.text);
  p += kind.size;
  p = put_int(p, e.chain);
  p = put(p, ",\"client\":");
  p = put_int(p, e.client);
  p = put(p, ",\"server\":");
  p = put_int(p, e.server);
  p = put(p, ",\"peer\":");
  p = put_int(p, e.peer);
  p = put(p, ",\"bytes\":");
  p = put_int(p, e.bytes);
  p = put(p, ",\"detail\":");
  p = put_int(p, e.detail);
  p = put(p, ",\"aux\":");
  p = put_int(p, e.aux);
  p = put(p, ",\"value\":");
  p = format_json_number(p, e.value);
  *p++ = '}';
  return p;
}

void append_journal_event_jsonl(std::string& out, const JournalEvent& e) {
  check_json_number(e.value);  // a NaN throws before `out` changes
  const std::size_t start = out.size();
  out.resize(start + kMaxJournalJsonlLine);
  char* const end = format_journal_line(out.data() + start, e);
  out.resize(static_cast<std::size_t>(end - out.data()));
}

namespace {

[[noreturn]] void line_error(std::size_t line, const std::string& what) {
  std::ostringstream msg;
  msg << "journal jsonl line " << line << ": " << what;
  throw JournalError(msg.str());
}

const JsonValue& require_field(const JsonValue& doc, const char* key,
                               std::size_t line) {
  const JsonValue* value = doc.find(key);
  if (value == nullptr) line_error(line, std::string("missing field ") + key);
  return *value;
}

double require_number(const JsonValue& doc, const char* key,
                      std::size_t line) {
  const JsonValue& value = require_field(doc, key, line);
  if (value.kind() != JsonValue::Kind::kNumber)
    line_error(line, std::string("field ") + key + " is not a number");
  return value.as_number();
}

/// The field `key` as an Int, rejected unless json_integer accepts it.
template <typename Int>
Int require_int(const JsonValue& doc, const char* key, std::size_t line) {
  using Limits = std::numeric_limits<Int>;
  const double v = require_number(doc, key, line);
  const std::optional<Int> value = json_integer<Int>(v);
  if (!value) {
    std::ostringstream msg;
    msg << "field " << key << " must be an integer in "
        << (Limits::is_signed ? "int" : "uint")
        << Limits::digits + Limits::is_signed << " range (got " << v << ")";
    line_error(line, msg.str());
  }
  return *value;
}

}  // namespace

const char* journal_kind_name(JournalEventKind kind) {
  return kind_name(kind).data();  // every table name is a literal
}

bool journal_kind_from_name(const std::string& name, JournalEventKind* out) {
  for (const KindName& entry : kKindNames) {
    if (name == entry.name) {
      *out = entry.kind;
      return true;
    }
  }
  return false;
}

std::string journal_to_jsonl(const std::vector<JournalEvent>& events) {
  std::string out;
  out.reserve(events.size() * 144);  // measured mean line is ~134 bytes
  for (const JournalEvent& e : events) {
    append_journal_event_jsonl(out, e);
    out += '\n';
  }
  return out;
}

std::vector<JournalEvent> journal_from_jsonl(const std::string& text) {
  std::vector<JournalEvent> events;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    JsonValue doc;
    try {
      doc = parse_json(line);
    } catch (const std::exception& e) {
      line_error(line_no, e.what());
    }
    if (!doc.is_object()) line_error(line_no, "not an object");
    JournalEvent e;
    e.interval = require_int<int>(doc, "interval", line_no);
    const JsonValue& kind = require_field(doc, "kind", line_no);
    if (kind.kind() != JsonValue::Kind::kString)
      line_error(line_no, "field kind is not a string");
    if (!journal_kind_from_name(kind.as_string(), &e.kind))
      line_error(line_no, "unknown kind '" + kind.as_string() + "'");
    e.chain = require_int<std::uint64_t>(doc, "chain", line_no);
    e.client = require_int<ClientId>(doc, "client", line_no);
    e.server = require_int<ServerId>(doc, "server", line_no);
    e.peer = require_int<ServerId>(doc, "peer", line_no);
    e.bytes = require_int<Bytes>(doc, "bytes", line_no);
    e.detail = require_int<std::int32_t>(doc, "detail", line_no);
    e.aux = require_int<std::int32_t>(doc, "aux", line_no);
    e.value = require_number(doc, "value", line_no);
    events.push_back(e);
  }
  return events;
}

std::string journal_encode(const std::vector<JournalEvent>& events) {
  wire::Writer payload;
  payload.count(events.size());
  for (const JournalEvent& e : events) {
    payload.i32(e.interval);
    payload.u8(static_cast<std::uint8_t>(e.kind));
    payload.u64(e.chain);
    payload.i32(e.client);
    payload.i32(e.server);
    payload.i32(e.peer);
    payload.i64(e.bytes);
    payload.i32(e.detail);
    payload.i32(e.aux);
    payload.f64(e.value);
  }
  return wire::frame(kJournalMagic, kJournalVersion, payload.bytes());
}

std::vector<JournalEvent> journal_decode(const std::string& bytes) {
  try {
    wire::Reader r =
        wire::unframe(bytes, kJournalMagic, kJournalVersion, "journal");
    // Per-event wire size: 4+1+8+4+4+4+8+4+4+8 bytes.
    std::vector<JournalEvent> events(r.count(49));
    for (JournalEvent& e : events) {
      e.interval = r.i32();
      const std::uint8_t kind = r.u8();
      if (kind > static_cast<std::uint8_t>(JournalEventKind::kCachePartial))
        throw wire::WireError("journal: event kind out of range");
      e.kind = static_cast<JournalEventKind>(kind);
      e.chain = r.u64();
      e.client = r.i32();
      e.server = r.i32();
      e.peer = r.i32();
      e.bytes = r.i64();
      e.detail = r.i32();
      e.aux = r.i32();
      e.value = r.f64();
    }
    if (!r.done())
      throw wire::WireError("journal: trailing bytes after the last event");
    return events;
  } catch (const wire::WireError& e) {
    throw JournalError(e.what());
  }
}

bool journal_is_binary(const std::string& bytes) {
  if (bytes.size() < 8) return false;
  for (std::size_t i = 0; i < 8; ++i)
    if (bytes[i] != kJournalMagic[i]) return false;
  return true;
}

}  // namespace perdnn::obs
