#include "obs/journal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/stream_writer.hpp"

namespace perdnn::obs {
namespace {

JournalEvent make_event(int interval, JournalEventKind kind,
                        ClientId client = 7) {
  JournalEvent e;
  e.interval = interval;
  e.kind = kind;
  e.client = client;
  e.server = 3;
  e.peer = 4;
  e.bytes = 123456789;
  e.detail = 2;
  e.aux = 5;
  e.value = 0.25;
  return e;
}

TEST(JournalEventKindNames, RoundTripEveryKind) {
  for (int k = 0; k <= static_cast<int>(JournalEventKind::kCheckpointResume);
       ++k) {
    const auto kind = static_cast<JournalEventKind>(k);
    JournalEventKind parsed;
    ASSERT_TRUE(journal_kind_from_name(journal_kind_name(kind), &parsed))
        << journal_kind_name(kind);
    EXPECT_EQ(parsed, kind);
  }
  JournalEventKind unused;
  EXPECT_FALSE(journal_kind_from_name("no_such_event", &unused));
  EXPECT_FALSE(journal_kind_from_name("", &unused));
}

// The chain book lives in the stream writer, the one journal of both
// engines; these cases read its file back.

/// A journal file per test case: ctest runs the cases as parallel processes.
std::string case_path() {
  return ::testing::TempDir() + "perdnn_journal_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".jsonl";
}

std::vector<JournalEvent> read_back(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return journal_from_jsonl(text.str());
}

TEST(JournalUnit, ChainsAreMonotoneAndAutoFilled) {
  const std::string path = case_path();
  JournalStreamWriter j(path);
  EXPECT_EQ(j.begin_chain(1), 1u);
  EXPECT_EQ(j.begin_chain(2), 2u);
  EXPECT_EQ(j.chain_of(1), 1u);
  EXPECT_EQ(j.chain_of(2), 2u);
  EXPECT_EQ(j.chain_of(99), 0u);  // never attached

  // record() stamps the client's open chain when none is given.
  j.record(make_event(0, JournalEventKind::kAttach, /*client=*/2));
  // An explicit chain wins over the binding.
  JournalEvent explicit_chain = make_event(0, JournalEventKind::kPlan, 2);
  explicit_chain.chain = 77;
  j.record(explicit_chain);
  // Clientless events stay chainless.
  j.record(make_event(1, JournalEventKind::kFaultApplied, /*client=*/-1));
  // Re-attaching opens a fresh chain; the binding follows it.
  EXPECT_EQ(j.begin_chain(2), 3u);
  j.record(make_event(2, JournalEventKind::kDetach, 2));
  j.flush();

  const std::vector<JournalEvent> events = read_back(path);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].chain, 2u);
  EXPECT_EQ(events[1].chain, 77u);
  EXPECT_EQ(events[2].chain, 0u);
  EXPECT_EQ(events[3].chain, 3u);
  std::remove(path.c_str());
}

TEST(JournalUnit, StateRestoreRoundTrips) {
  const std::string path = case_path();
  JournalStreamState state;
  std::vector<JournalEvent> before;
  {
    JournalStreamWriter j(path);
    j.begin_chain(1);
    j.record(make_event(0, JournalEventKind::kAttach, 1));
    j.record(make_event(3, JournalEventKind::kCacheStore, 1));
    j.flush();
    state = j.state();
    before = read_back(path);
    // Written after the checkpoint: the resume must drop it.
    j.begin_chain(5);
    j.record(make_event(9, JournalEventKind::kDetach, 5));
  }
  EXPECT_EQ(state.events, 2u);
  EXPECT_EQ(state.next_chain, 2u);

  JournalStreamWriter restored(path, state);
  EXPECT_EQ(restored.state(), state);
  EXPECT_EQ(restored.chain_of(1), 1u);
  EXPECT_EQ(restored.chain_of(5), 0u);
  // The chain counter resumes where it left off — no id reuse.
  EXPECT_EQ(restored.begin_chain(2), 2u);
  restored.flush();
  EXPECT_EQ(read_back(path), before);
  std::remove(path.c_str());
}

TEST(JournalCodec, JsonlRoundTripsEveryKind) {
  std::vector<JournalEvent> events;
  for (int k = 0; k <= static_cast<int>(JournalEventKind::kCheckpointResume);
       ++k)
    events.push_back(make_event(k, static_cast<JournalEventKind>(k)));
  events.front().chain = 42;
  events.front().value = -1.5e-9;  // exercise the float formatter

  const std::string text = journal_to_jsonl(events);
  EXPECT_EQ(journal_from_jsonl(text), events);
}

// The per-field formatter format_journal_line replaced, kept as its
// oracle: the value formatted first, one resize per line, then every key a
// literal and every field its own copy or to_chars.
void oracle_jsonl_line(std::string& out, const JournalEvent& e) {
  char value[kJsonNumberMaxChars];
  const char* const value_end = format_json_number(value, e.value);
  const std::string_view kind = journal_kind_name(e.kind);
  const auto put = [](char* p, std::string_view literal) {
    return std::copy(literal.begin(), literal.end(), p);
  };
  const auto put_int = [](char* p, auto v) {
    return std::to_chars(p, p + 20, v).ptr;
  };
  const std::size_t start = out.size();
  out.resize(start + kMaxJournalJsonlLine);
  char* p = out.data() + start;
  p = put(p, "{\"interval\":");
  p = put_int(p, e.interval);
  p = put(p, ",\"kind\":\"");
  p = std::copy(kind.begin(), kind.end(), p);
  p = put(p, "\",\"chain\":");
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
  p = std::copy(static_cast<const char*>(value), value_end, p);
  *p++ = '}';
  out.resize(static_cast<std::size_t>(p - out.data()));
}

/// Half the draws an edge of Int's range (its minimum, maximum, -1, 0 or
/// 1), the rest small or any bit pattern.
template <typename Int>
Int edgy_int(std::mt19937_64& rng) {
  using Limits = std::numeric_limits<Int>;
  switch (rng() % 10) {
    case 0: return Limits::min();
    case 1: return Limits::max();
    case 2: return static_cast<Int>(-1);
    case 3: return 0;
    case 4: return 1;
    case 5: return static_cast<Int>(rng() % 1000);
    case 6: return static_cast<Int>(-static_cast<Int>(rng() % 1000));
    default: return static_cast<Int>(rng());
  }
}

/// A value from the classes the number formatter branches on: zeros, the
/// integer range's edges (+-2^53, +-9e18) and their neighbours, fractions
/// whose shortest form has 15, 16 or 17 significant digits, subnormals,
/// and any finite bit pattern.
double edgy_value(std::mt19937_64& rng) {
  static const double kEdges[] = {0.0, -0.0, 0x1p53, -0x1p53, 9.0e18,
                                  -9.0e18};
  std::uniform_real_distribution<double> latency(0.0, 2.0);
  const double sign = rng() % 2 == 0 ? 1.0 : -1.0;
  switch (rng() % 6) {
    case 0: {
      const double edge = kEdges[rng() % std::size(kEdges)];
      switch (rng() % 3) {
        case 0: return edge;
        case 1: return std::nextafter(edge, HUGE_VAL);
        default: return std::nextafter(edge, -HUGE_VAL);
      }
    }
    case 1: {
      // Printed at 15 or 16 digits and parsed back: at most that many.
      char text[32];
      std::snprintf(text, sizeof text, "%.*g", 15 + static_cast<int>(rng() % 2),
                    latency(rng));
      return sign * std::strtod(text, nullptr);
    }
    case 2: return sign * latency(rng);  // mostly 16 or 17 digits
    case 3:
      return std::bit_cast<double>(rng() & 0x800f'ffff'ffff'ffffULL);
    default: {
      double v = 0.0;
      do v = std::bit_cast<double>(rng()); while (!std::isfinite(v));
      return v;
    }
  }
}

TEST(JournalLineFormatter, MatchesThePerFieldOracle) {
  constexpr std::size_t kChunk = 1024;
  constexpr std::size_t kChunks = 1024;  // 1,048,576 events in all
  // Every kind, and two values outside the table, which print "unknown".
  constexpr int kKinds = static_cast<int>(JournalEventKind::kCachePartial) + 1;
  std::mt19937_64 rng(31);
  std::unique_ptr<char[]> cursor_text(
      new char[kChunk * (kMaxJournalJsonlLine + 1)]);
  std::vector<JournalEvent> events(kChunk);
  std::vector<int> kinds_seen(kKinds + 2, 0);
  std::size_t mismatches = 0;
  for (std::size_t chunk = 0; chunk < kChunks; ++chunk) {
    std::string want;
    for (JournalEvent& e : events) {
      const int k = static_cast<int>(rng() % (kKinds + 2));
      ++kinds_seen[static_cast<std::size_t>(k)];
      e.kind = static_cast<JournalEventKind>(
          k < kKinds ? k : k == kKinds ? kKinds : 255);
      e.interval = edgy_int<int>(rng);
      e.chain = edgy_int<std::uint64_t>(rng);
      e.client = edgy_int<ClientId>(rng);
      e.server = edgy_int<ServerId>(rng);
      e.peer = edgy_int<ServerId>(rng);
      e.bytes = edgy_int<Bytes>(rng);
      e.detail = edgy_int<std::int32_t>(rng);
      e.aux = edgy_int<std::int32_t>(rng);
      e.value = edgy_value(rng);
      oracle_jsonl_line(want, e);
      want += '\n';
    }
    // Through one cursor, as the stream writer formats a batch...
    char* const begin = cursor_text.get();
    char* p = begin;
    for (const JournalEvent& e : events) {
      p = format_journal_line(p, e);
      *p++ = '\n';
    }
    const std::string_view cursor(begin, static_cast<std::size_t>(p - begin));
    // ...and line by line into a string, as journal_to_jsonl does.
    const std::string appended = journal_to_jsonl(events);
    if (cursor == want && appended == want) continue;
    if (++mismatches > 4) continue;
    const auto at = static_cast<std::size_t>(
        std::mismatch(want.begin(), want.end(), cursor.begin(), cursor.end())
            .first -
        want.begin());
    const std::size_t line_start = want.rfind('\n', at) + 1;  // npos + 1 = 0
    ADD_FAILURE() << "chunk " << chunk << ": want "
                  << want.substr(line_start, want.find('\n', at) - line_start)
                  << "\ncursor: " << cursor.substr(line_start, 300)
                  << "\nappended matches: " << (appended == want);
  }
  EXPECT_EQ(mismatches, 0u);
  for (const int seen : kinds_seen) EXPECT_GT(seen, 0);
}

TEST(JournalLineFormatter, WorstCaseLineFitsTheBound) {
  // The longest kind name, every integer at its longest text, and a value
  // with a 17-digit mantissa and a three-digit negative exponent.
  JournalEvent e;
  e.interval = std::numeric_limits<int>::min();
  e.kind = JournalEventKind::kMigrationDeferred;
  e.chain = std::numeric_limits<std::uint64_t>::max();
  e.client = std::numeric_limits<ClientId>::min();
  e.server = std::numeric_limits<ServerId>::min();
  e.peer = std::numeric_limits<ServerId>::min();
  e.bytes = std::numeric_limits<Bytes>::min();
  e.detail = std::numeric_limits<std::int32_t>::min();
  e.aux = std::numeric_limits<std::int32_t>::min();
  e.value = -std::numeric_limits<double>::min();  // -2.2250738585072014e-308
  ASSERT_EQ(std::strlen(journal_kind_name(e.kind)), 18u);
  std::string want;
  oracle_jsonl_line(want, e);
  // Exactly the bound's room, on the heap: a sanitizer build reports any
  // write past it.
  const std::unique_ptr<char[]> line(new char[kMaxJournalJsonlLine]);
  const char* const end = format_journal_line(line.get(), e);
  EXPECT_EQ(std::string_view(line.get(),
                             static_cast<std::size_t>(end - line.get())),
            want);
  EXPECT_LE(want.size(), kMaxJournalJsonlLine);
}

TEST(JournalCodec, JsonlSkipsBlankAndCommentLines) {
  const std::vector<JournalEvent> one = {
      make_event(0, JournalEventKind::kAttach)};
  const std::string text =
      "# produced by a test\n\n" + journal_to_jsonl(one) + "\n# trailer\n";
  EXPECT_EQ(journal_from_jsonl(text), one);
}

TEST(JournalCodec, JsonlErrorsCarryLineNumbers) {
  const std::string valid = journal_to_jsonl(
      {make_event(0, JournalEventKind::kAttach)});  // one full line
  try {
    journal_from_jsonl("# fine\n" + valid + "not json\n");
    FAIL() << "expected JournalError";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
  // Partial events and unknown kinds are rejected too.
  EXPECT_THROW(journal_from_jsonl("{\"interval\":0,\"kind\":\"attach\"}\n"),
               JournalError);
  EXPECT_THROW(journal_from_jsonl("{\"interval\":0,\"kind\":\"bogus\"}\n"),
               JournalError);
}

// A journal line whose integer fields are 0 except `field`, which holds the
// JSON number text `value`.
std::string line_with(const std::string& field, const std::string& value) {
  std::string line = "{\"kind\":\"attach\",\"value\":0";
  for (const char* key : {"interval", "chain", "client", "server", "peer",
                          "bytes", "detail", "aux"})
    line += std::string(",\"") + key + "\":" + (key == field ? value : "0");
  return line + "}\n";
}

TEST(JournalCodec, JsonlRejectsOutOfRangeAndFractionalIntegers) {
  // Casting these straight from double would be undefined behaviour (or a
  // silent truncation); each must be a JournalError naming the line.
  const std::vector<std::pair<const char*, std::vector<const char*>>> bad = {
      {"interval", {"1e300", "-1e300", "2147483648", "-2147483649", "0.5"}},
      {"chain", {"-1", "1e300", "18446744073709551616", "2.5"}},
      {"client", {"2147483648", "-2147483649", "1e300", "-0.5"}},
      {"server", {"2147483648", "-1e300", "3.25"}},
      {"peer", {"-2147483649", "1e300", "1.5"}},
      {"bytes", {"9223372036854775808", "-1e19", "1e300", "0.1"}},
      {"detail", {"2147483648", "-2147483649", "1e300", "7.5"}},
      {"aux", {"2147483648", "-2147483649", "-1e300", "1e-3"}},
  };
  for (const auto& [field, values] : bad) {
    for (const char* value : values) {
      try {
        journal_from_jsonl("# header\n" + line_with(field, value));
        ADD_FAILURE() << field << "=" << value << " was accepted";
      } catch (const JournalError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
        EXPECT_NE(what.find(field), std::string::npos) << what;
      }
    }
  }
  // Non-numbers are line errors too, not bare JSON type errors.
  EXPECT_THROW(journal_from_jsonl(line_with("chain", "\"7\"")),
               JournalError);
  EXPECT_THROW(journal_from_jsonl("{\"interval\":0,\"kind\":3}\n"),
               JournalError);

  // The extremes of each range still decode.
  JournalEvent e = journal_from_jsonl(line_with("interval", "-2147483648"))[0];
  EXPECT_EQ(e.interval, std::numeric_limits<int>::min());
  e = journal_from_jsonl(line_with("aux", "2147483647"))[0];
  EXPECT_EQ(e.aux, std::numeric_limits<std::int32_t>::max());
  // The largest double below 2^64.
  e = journal_from_jsonl(line_with("chain", "18446744073709549568"))[0];
  EXPECT_EQ(e.chain, 18446744073709549568ULL);
  e = journal_from_jsonl(line_with("bytes", "-9223372036854775808"))[0];
  EXPECT_EQ(e.bytes, std::numeric_limits<Bytes>::min());
  e = journal_from_jsonl(line_with("client", "-0"))[0];
  EXPECT_EQ(e.client, 0);
}

TEST(JournalCodec, BinaryRoundTripsAndRejectsCorruption) {
  std::vector<JournalEvent> events;
  for (int i = 0; i < 100; ++i)
    events.push_back(make_event(
        i, static_cast<JournalEventKind>(
               i % (static_cast<int>(JournalEventKind::kCheckpointResume) +
                    1))));
  const std::string bytes = journal_encode(events);
  ASSERT_TRUE(journal_is_binary(bytes));
  EXPECT_FALSE(journal_is_binary(journal_to_jsonl(events)));
  EXPECT_EQ(journal_decode(bytes), events);

  // Truncation and bit flips must be rejected, not misparsed.
  EXPECT_THROW(journal_decode(bytes.substr(0, bytes.size() - 1)),
               JournalError);
  EXPECT_THROW(journal_decode(bytes.substr(0, 10)), JournalError);
  std::string flipped = bytes;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x40);
  EXPECT_THROW(journal_decode(flipped), JournalError);
}

}  // namespace
}  // namespace perdnn::obs
