#include "obs/stream_writer.hpp"

#include <filesystem>
#include <stdexcept>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "obs/json.hpp"

namespace perdnn::obs {

namespace {

void truncate_to(const std::string& path, std::uint64_t offset) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec)
    throw std::runtime_error("stream writer: cannot stat " + path + ": " +
                             ec.message());
  if (size < offset)
    throw std::runtime_error(
        "stream writer: " + path + " is shorter than the checkpoint offset (" +
        std::to_string(size) + " < " + std::to_string(offset) +
        "); refusing to resume into it");
  std::filesystem::resize_file(path, offset, ec);
  if (ec)
    throw std::runtime_error("stream writer: cannot truncate " + path + ": " +
                             ec.message());
}

std::ofstream open_file(const std::string& path, std::ios::openmode mode) {
  std::ofstream out(path, std::ios::binary | mode);
  if (!out)
    throw std::runtime_error("stream writer: cannot open " + path);
  return out;
}

}  // namespace

AppendFile::AppendFile(const std::string& path)
    : out_(open_file(path, std::ios::trunc)) {}

AppendFile::AppendFile(const std::string& path, Resume resume)
    : bytes_(resume.bytes) {
  truncate_to(path, resume.bytes);
  out_ = open_file(path, std::ios::app);
}

void AppendFile::flush(const char* error) {
  out_.flush();
  PERDNN_CHECK_MSG(out_.good(), error);
}

TimeseriesStreamWriter::TimeseriesStreamWriter(const std::string& path,
                                               const std::string& model,
                                               bool cache_columns)
    : file_(path), cache_columns_(cache_columns) {
  append_timeseries_csv_preamble(text_, model, cache_columns_);
  file_.write(text_.data(), text_.size());
}

TimeseriesStreamWriter::TimeseriesStreamWriter(const std::string& path,
                                               Resume resume,
                                               std::uint64_t rows,
                                               bool cache_columns)
    : file_(path, resume), rows_(rows), cache_columns_(cache_columns) {}

void TimeseriesStreamWriter::append_interval(
    const std::vector<TimeseriesRow>& rows) {
  text_.clear();
  for (const TimeseriesRow& row : rows) {
    append_timeseries_row_csv(text_, row, cache_columns_);
    text_ += '\n';
  }
  file_.write(text_.data(), text_.size());
  rows_ += rows.size();
}

void TimeseriesStreamWriter::flush() {
  file_.flush("timeseries stream write failed");
}

JournalStreamWriter::JournalStreamWriter(const std::string& path)
    : file_(path) {
  open_.reserve(kBatchEvents);
}

JournalStreamWriter::JournalStreamWriter(const std::string& path,
                                         const JournalStreamState& state)
    : file_(path, Resume{state.bytes}),
      events_(state.events),
      next_chain_(state.next_chain) {
  for (const auto& [client, chain] : state.client_chains) bind(client, chain);
  open_.reserve(kBatchEvents);
}

// Formatting cannot throw for a recorded event (record() checked its value),
// so drain() only formats, commits and waits.
JournalStreamWriter::~JournalStreamWriter() {
  drain();
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return drain_tasks_ == 0; });
}

void JournalStreamWriter::bind(ClientId client, std::uint64_t chain) {
  if (client < 0) return;
  const auto c = static_cast<std::size_t>(client);
  if (c >= chains_.size()) chains_.resize(c + 1);
  chains_[c] = chain;
}

std::uint64_t JournalStreamWriter::begin_chain(ClientId client) {
  const std::uint64_t chain = next_chain_++;
  bind(client, chain);
  return chain;
}

std::uint64_t JournalStreamWriter::chain_of(ClientId client) const {
  const auto c = static_cast<std::size_t>(client);
  return client >= 0 && c < chains_.size() ? chains_[c] : 0;
}

void JournalStreamWriter::record(JournalEvent event) {
  // Checked here, on the caller: the event may be formatted on a worker,
  // where a throw would terminate the process.
  check_json_number(event.value);
  if (event.chain == 0 && event.client >= 0)
    event.chain = chain_of(event.client);
  open_.push_back(event);
  ++events_;
  if (open_.size() == kBatchEvents) dispatch();
}

void JournalStreamWriter::dispatch() {
  const int threads = par::num_threads();
  const bool pool = threads > 1 && !par::ThreadPool::on_worker_thread();
  std::unique_lock<std::mutex> lock(mu_);
  while (next_seq_ - next_commit_ == kSlots) help(lock);
  Slot& s = slot(next_seq_);
  if (!s.text) {
    // Allocated here, on the recording thread, so no worker arena grows.
    // Left uninitialised: pages a batch never reaches stay out of RSS.
    s.text = std::make_unique_for_overwrite<char[]>(kSlotText);
    s.events.reserve(kBatchEvents);
  }
  if (!pool && next_commit_ == next_seq_) {
    // No worker to queue it for and nothing queued ahead of it: format it
    // here, through the free slot, and write it.
    lock.unlock();
    format(open_, s);
    file_.write(s.text.get(), s.size);
    return;
  }
  s.events.swap(open_);
  ++next_seq_;
  if (!pool || drain_tasks_ >= threads - 1) return;
  ++drain_tasks_;
  lock.unlock();
  par::ThreadPool::global().submit([this] { drain_task(); });
}

void JournalStreamWriter::format(std::vector<JournalEvent>& events,
                                 Slot& slot) {
  char* p = slot.text.get();
  for (const JournalEvent& e : events) {
    p = format_journal_line(p, e);
    *p++ = '\n';
  }
  slot.size = static_cast<std::size_t>(p - slot.text.get());
  events.clear();
}

bool JournalStreamWriter::step(std::unique_lock<std::mutex>& lock) {
  const bool claimed = next_claim_ < next_seq_;
  if (claimed) {
    Slot& s = slot(next_claim_++);
    lock.unlock();
    format(s.events, s);
    lock.lock();
    s.formatted = true;
  }
  return try_commit(lock) || claimed;
}

bool JournalStreamWriter::try_commit(std::unique_lock<std::mutex>& lock) {
  if (committing_ || !slot(next_commit_).formatted) return false;
  committing_ = true;
  for (Slot* s = &slot(next_commit_); s->formatted; s = &slot(next_commit_)) {
    lock.unlock();
    file_.write(s->text.get(), s->size);
    lock.lock();
    s->formatted = false;
    ++next_commit_;
    cv_.notify_all();
  }
  committing_ = false;
  return true;
}

void JournalStreamWriter::help(std::unique_lock<std::mutex>& lock) {
  if (step(lock)) return;
  // Every queued batch is claimed, and each one not yet formatted is on a
  // running task, which commits it (or hands it to the thread committing)
  // when done: this never waits for a task that has not started.
  cv_.wait(lock, [this, seen = next_commit_] { return next_commit_ != seen; });
}

void JournalStreamWriter::drain_task() {
  std::unique_lock<std::mutex> lock(mu_);
  while (step(lock)) {
  }
  --drain_tasks_;
  cv_.notify_all();
}

void JournalStreamWriter::drain() {
  if (!open_.empty()) dispatch();
  std::unique_lock<std::mutex> lock(mu_);
  while (next_commit_ != next_seq_) help(lock);
}

void JournalStreamWriter::flush() {
  drain();
  file_.flush("journal stream write failed");
}

std::vector<std::pair<ClientId, std::uint64_t>>
JournalStreamWriter::client_chains() const {
  std::vector<std::pair<ClientId, std::uint64_t>> out;
  for (std::size_t c = 0; c < chains_.size(); ++c)
    if (chains_[c] != 0)
      out.emplace_back(static_cast<ClientId>(c), chains_[c]);
  return out;
}

JournalStreamState JournalStreamWriter::state() {
  return {.bytes = bytes_written(),
          .events = events_,
          .next_chain = next_chain_,
          .client_chains = client_chains()};
}

}  // namespace perdnn::obs
