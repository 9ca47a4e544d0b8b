#include "obs/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
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
