// Incremental on-disk writers for the two large simulation outputs: the
// per-interval timeseries CSV and the event-journal JSONL. The buffered
// timeseries exporter (SimTimeseries::write_csv) holds every row in memory
// until the run ends, which is O(intervals * servers) resident state —
// untenable for the city-scale sharded runs. These writers format each
// row/event with the exact shared formatters (append_timeseries_csv_preamble,
// append_timeseries_row_csv, format_journal_line), so a streamed CSV is
// byte-identical to the buffered export of the same run and a streamed
// journal to journal_to_jsonl of its events. Each writer hands the file the
// text it formatted once, in large writes: the timeseries writer one whole
// interval, the journal writer one batch of kBatchEvents lines. Both engines
// journal only through JournalStreamWriter.
//
// Checkpoint/resume contract: both writers count the bytes they have handed
// to the file (the CSV preamble included), and flush() flushes the file's
// stream, so after a flush the count is the file size. A checkpoint flushes
// and stores those offsets; a resumed run reopens the file with
// `Resume{offset}`, which truncates it back to the checkpoint boundary and
// appends from there. Whatever a killed run wrote after the checkpoint —
// possibly ending in a partial line cut off mid-write by kill -9 — is
// discarded by the truncation, so the resumed file ends up byte-identical
// to an uninterrupted run's. A writer destroyed without flush(), say while
// an exception unwinds the engine, still leaves every line it was handed
// in the file.
//
// Threads: both simulators call the writers only from their serial control
// path (which is what makes the output deterministic in the first place), and
// a writer's methods must not be called from two threads at once. The
// journal writer formats on drain tasks behind that path: see
// JournalStreamWriter.
#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "obs/journal.hpp"
#include "obs/timeseries.hpp"

namespace perdnn::obs {

/// Tag selecting the resume-at-offset constructor paths below.
struct Resume {
  std::uint64_t bytes = 0;
};

/// An append-only file that counts the bytes handed to it, shared by both
/// stream writers.
class AppendFile {
 public:
  /// Fresh file: truncates `path`.
  explicit AppendFile(const std::string& path);
  /// Resumed file: truncates `path` back to `resume.bytes` and appends.
  /// Throws std::runtime_error if the file is shorter than that.
  AppendFile(const std::string& path, Resume resume);

  void write(const char* data, std::size_t size) {
    out_.write(data, static_cast<std::streamsize>(size));
    bytes_ += size;
  }
  /// Flushes the file; throws std::logic_error with `error` if any write
  /// since the last flush failed.
  void flush(const char* error);

  /// Bytes handed to the file so far.
  std::uint64_t bytes() const { return bytes_; }

 private:
  std::ofstream out_;
  std::uint64_t bytes_ = 0;
};

/// Streams TimeseriesRow lines into a CSV file with the same preamble and
/// row encoding as SimTimeseries::write_csv, one interval per write.
class TimeseriesStreamWriter {
 public:
  /// Fresh run: truncates `path` and writes the preamble.
  /// `cache_columns` selects the schema-3 budgeted-cache layout (must match
  /// the recording engine's budget setting).
  TimeseriesStreamWriter(const std::string& path, const std::string& model,
                         bool cache_columns = false);
  /// Resumed run: truncates `path` back to `resume.bytes` (the preamble and
  /// all pre-checkpoint rows are already on disk) and appends. `rows` is the
  /// checkpointed row count. Throws std::runtime_error if the file is
  /// shorter than the checkpoint offset.
  TimeseriesStreamWriter(const std::string& path, Resume resume,
                         std::uint64_t rows, bool cache_columns = false);

  /// Appends one finished interval, as SimTimeseries::append_interval
  /// takes it: formats its rows into one buffer, reused across intervals,
  /// and hands the file that buffer.
  void append_interval(const std::vector<TimeseriesRow>& rows);
  void flush();

  /// Total file bytes written so far (preamble included).
  std::uint64_t bytes_written() const { return file_.bytes(); }
  std::uint64_t rows_written() const { return rows_; }

 private:
  AppendFile file_;
  std::uint64_t rows_ = 0;
  bool cache_columns_ = false;
  std::string text_;  // the interval being written
};

/// A journal stream's position and chain state at a checkpoint: what a
/// resumed writer needs to continue the file exactly.
struct JournalStreamState {
  std::uint64_t bytes = 0;   // file offset the resumed writer truncates to
  std::uint64_t events = 0;  // records written up to that offset
  std::uint64_t next_chain = 1;
  /// Client -> chain id of its most recent attach, sorted by client (the
  /// canonical snapshot encoding).
  std::vector<std::pair<ClientId, std::uint64_t>> client_chains;

  bool operator==(const JournalStreamState&) const = default;
};

/// Streams JournalEvent lines into a JSONL file (the journal_to_jsonl
/// format) and keeps the chain book: begin_chain() numbers chains from 1 in
/// record order, record() auto-fills a zero chain from the client's current
/// binding, which survives detach so fallback events still link to the last
/// attach. Bindings live in a vector indexed by client, grown on demand;
/// negative client ids are never bound.
///
/// A two-stage pipeline. record() runs on the calling thread (the recording
/// thread): it keeps the chain book and appends the resolved event to an
/// open batch of kBatchEvents. A full batch joins a ring of kSlots queued
/// batches, and while fewer than num_threads() - 1 drain tasks are running
/// the recording thread submits one (par::ThreadPool::submit). A drain task
/// claims the oldest unclaimed batch and formats it, commits every
/// formatted batch at the head of the ring, in record order, by writing its
/// text to the file, and returns once nothing is left to claim or commit.
/// The recording thread formats only when the ring is full: it then claims
/// the oldest unclaimed batch itself, or, when every batch is claimed,
/// waits for one a running task is formatting, and it commits whenever
/// nobody else is. It never waits for a task that has not started, so a
/// pool busy with other work cannot stall it, and the busy threads never
/// outnumber the thread count. At one thread, or when called on a pool
/// worker, the caller formats every batch itself, through one free slot,
/// and writes it to the file, and the pool is never touched.
/// bytes_written(), state(), flush() and the destructor first format and
/// commit every recorded event the same way.
class JournalStreamWriter {
 public:
  /// Events per batch handed to a worker.
  static constexpr std::size_t kBatchEvents = 1024;

  /// Fresh run: truncates `path`.
  explicit JournalStreamWriter(const std::string& path);
  /// Resumed run: truncates `path` back to `state.bytes` and appends,
  /// restoring the event count, chain counter and bindings. Throws
  /// std::runtime_error if the file is shorter than the checkpoint offset.
  JournalStreamWriter(const std::string& path, const JournalStreamState& state);
  /// Commits every recorded event to the file, then waits for the drain
  /// tasks it submitted to return (with nothing left, each returns as soon
  /// as it starts). Never throws.
  ~JournalStreamWriter();
  JournalStreamWriter(const JournalStreamWriter&) = delete;
  JournalStreamWriter& operator=(const JournalStreamWriter&) = delete;

  std::uint64_t begin_chain(ClientId client);
  std::uint64_t chain_of(ClientId client) const;
  /// Throws std::invalid_argument, and records nothing, if `event.value` is
  /// NaN or infinite.
  void record(JournalEvent event);
  void flush();

  std::uint64_t bytes_written() {
    drain();
    return file_.bytes();
  }
  std::uint64_t events_written() const { return events_; }
  std::uint64_t next_chain() const { return next_chain_; }
  /// Client -> current chain bindings, sorted by client.
  std::vector<std::pair<ClientId, std::uint64_t>> client_chains() const;
  /// Position and chain state so far; call after flush() for a checkpoint.
  JournalStreamState state();

 private:
  /// One queued batch. The recording thread fills `events`; the thread that
  /// claims the batch formats it into `text` and owns it until `formatted`
  /// is set, and the committer after that.
  struct Slot {
    std::vector<JournalEvent> events;
    std::unique_ptr<char[]> text;  // kSlotText bytes, left uninitialised
    std::size_t size = 0;          // bytes of `text` formatted
    bool formatted = false;        // guarded by mu_
  };
  /// Batches queued but not yet written, at most. On city_pressure at two
  /// threads a ring of two left the recording thread more batches to
  /// format, and one of eight cost RSS for no measurable gain.
  static constexpr std::size_t kSlots = 4;
  /// Room one batch's text can need.
  static constexpr std::size_t kSlotText =
      kBatchEvents * (kMaxJournalJsonlLine + 1);

  void bind(ClientId client, std::uint64_t chain);
  /// Queues the open batch (or formats it inline), helping first while the
  /// ring is full.
  void dispatch();
  /// Writes the JSONL lines of `events` into `slot.text`, through its
  /// buffer's one cursor, and empties `events`.
  static void format(std::vector<JournalEvent>& events, Slot& slot);
  Slot& slot(std::uint64_t seq) { return slots_[seq % kSlots]; }
  /// Under mu_: when nobody holds the commit role and the oldest batch is
  /// formatted, takes the role, writes every formatted batch at the head of
  /// the ring, in record order, to the file, gives the role up and returns
  /// true.
  bool try_commit(std::unique_lock<std::mutex>& lock);
  /// Under mu_: claims the oldest unclaimed batch, if any, and formats it
  /// with mu_ released, then try_commit(). False when it did neither.
  bool step(std::unique_lock<std::mutex>& lock);
  /// Under mu_, on the recording thread: one step(), or, with every batch
  /// claimed and nothing to commit, a wait until a batch in progress is
  /// committed.
  void help(std::unique_lock<std::mutex>& lock);
  /// A pool task: steps until nothing is left to claim or commit.
  void drain_task();
  /// Queues the open batch and formats and commits every queued batch.
  void drain();

  AppendFile file_;
  std::uint64_t events_ = 0;
  std::uint64_t next_chain_ = 1;
  std::vector<std::uint64_t> chains_;  // by client; 0 = unbound
  std::vector<JournalEvent> open_;     // the batch being recorded

  std::mutex mu_;
  std::condition_variable cv_;      // a batch committed or a task returned
  std::array<Slot, kSlots> slots_;  // batch `seq` uses slot(seq)
  // Guarded by mu_:
  std::uint64_t next_seq_ = 0;     // batches queued so far
  std::uint64_t next_claim_ = 0;   // batches claimed for formatting so far
  std::uint64_t next_commit_ = 0;  // batches written so far
  int drain_tasks_ = 0;            // submitted tasks not yet returned
  bool committing_ = false;        // a thread holds the commit role
};

}  // namespace perdnn::obs
