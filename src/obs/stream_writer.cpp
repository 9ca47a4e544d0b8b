#include "obs/stream_writer.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "common/check.hpp"
#include "common/parallel.hpp"

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

BlockFile::BlockFile(const std::string& path)
    : out_(open_file(path, std::ios::trunc)) {}

BlockFile::BlockFile(const std::string& path, Resume resume)
    : written_(resume.bytes) {
  truncate_to(path, resume.bytes);
  out_ = open_file(path, std::ios::app);
}

// The ofstream reports failures through its state bits, not exceptions, so
// this cannot throw.
BlockFile::~BlockFile() { write_pending(); }

void BlockFile::write_pending() {
  out_.write(pending_.data(), static_cast<std::streamsize>(pending_.size()));
  written_ += pending_.size();
  pending_.clear();
}

void BlockFile::flush(const char* error) {
  write_pending();
  out_.flush();
  PERDNN_CHECK_MSG(out_.good(), error);
}

TimeseriesStreamWriter::TimeseriesStreamWriter(const std::string& path,
                                               const std::string& model,
                                               bool cache_columns)
    : file_(path), cache_columns_(cache_columns) {
  std::string& out = file_.pending();
  out += "# schema=";
  append_json_int(out, cache_columns_ ? SimTimeseries::kCsvCacheSchemaVersion
                                      : SimTimeseries::kCsvSchemaVersion);
  out += '\n';
  if (!model.empty())
    out += "# model=" + SimTimeseries::csv_quote(model) + '\n';
  out += SimTimeseries::csv_header(cache_columns_);
  out += '\n';
}

TimeseriesStreamWriter::TimeseriesStreamWriter(const std::string& path,
                                               Resume resume,
                                               std::uint64_t rows,
                                               bool cache_columns)
    : file_(path, resume), rows_(rows), cache_columns_(cache_columns) {}

void TimeseriesStreamWriter::append(const TimeseriesRow& row) {
  std::string& out = file_.pending();
  append_timeseries_row_csv(out, row, cache_columns_);
  out += '\n';
  file_.maybe_write();
  ++rows_;
}

void TimeseriesStreamWriter::flush() {
  file_.flush("timeseries stream write failed");
}

std::size_t JournalStreamWriter::ring_slots() {
  return std::min(static_cast<std::size_t>(par::num_threads()), kSlots);
}

JournalStreamWriter::JournalStreamWriter(const std::string& path)
    : file_(path), ring_(ring_slots()) {
  reserve();
}

JournalStreamWriter::JournalStreamWriter(const std::string& path,
                                         const JournalStreamState& state)
    : file_(path, Resume{state.bytes}),
      events_(state.events),
      next_chain_(state.next_chain),
      ring_(ring_slots()) {
  for (const auto& [client, chain] : state.client_chains) bind(client, chain);
  reserve();
}

void JournalStreamWriter::reserve() {
  open_.reserve(kBatchEvents);
  // Short of a block plus one batch: the most a commit leaves pending.
  // Reserved here, it never grows on a worker.
  file_.pending().reserve(kOutputBlockBytes + kSlotText);
}

// Formatting cannot throw for a recorded event (record() checked its value),
// so drain() only formats and waits.
JournalStreamWriter::~JournalStreamWriter() { drain(); }

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
  const auto worker_idle = [&] { return pool && worker_tasks_ < threads - 1; };
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return next_seq_ - next_commit_ < ring_; });
  if (!worker_idle() && next_commit_ == next_seq_ && !committing_) {
    // Nothing is ahead of this batch: format it straight into the block.
    committing_ = true;
    lock.unlock();
    format(open_, file_.pending());
    file_.maybe_write();
    lock.lock();
    committing_ = false;
    return;
  }

  const std::uint64_t seq = next_seq_++;
  Slot& slot = slots_[seq % ring_];
  // Reserved once, here: a worker never grows a slot, so no worker arena
  // grows either.
  if (slot.text.capacity() < kSlotText) {
    slot.text.reserve(kSlotText);
    slot.events.reserve(kBatchEvents);
  }
  slot.events.swap(open_);
  if (worker_idle()) {
    ++worker_tasks_;
    lock.unlock();
    par::ThreadPool::global().submit([this, seq] { format_task(seq); });
    return;
  }
  // Every worker the thread budget allows is busy: format it here.
  lock.unlock();
  format(slot.events, slot.text);
  lock.lock();
  if (!finished(seq)) return;
  // This batch is the oldest: its copy and block write go to an idle
  // worker if there is one.
  if (worker_idle()) {
    ++worker_tasks_;
    lock.unlock();
    par::ThreadPool::global().submit([this] { commit_task(); });
    return;
  }
  commit(lock);
}

void JournalStreamWriter::format(std::vector<JournalEvent>& events,
                                 std::string& out) {
  for (const JournalEvent& e : events) {
    append_journal_event_jsonl(out, e);
    out += '\n';
  }
  events.clear();
}

bool JournalStreamWriter::finished(std::uint64_t seq) {
  slots_[seq % ring_].formatted = true;
  if (committing_ || seq != next_commit_) return false;
  committing_ = true;
  return true;
}

void JournalStreamWriter::commit(std::unique_lock<std::mutex>& lock) {
  for (Slot* s = &slots_[next_commit_ % ring_]; s->formatted;
       s = &slots_[next_commit_ % ring_]) {
    lock.unlock();
    file_.pending() += s->text;
    s->text.clear();
    file_.maybe_write();
    lock.lock();
    s->formatted = false;
    ++next_commit_;
    cv_.notify_all();
  }
  committing_ = false;
}

void JournalStreamWriter::format_task(std::uint64_t seq) {
  Slot& slot = slots_[seq % ring_];
  format(slot.events, slot.text);
  std::unique_lock<std::mutex> lock(mu_);
  if (finished(seq)) commit(lock);
  --worker_tasks_;
  cv_.notify_all();
}

void JournalStreamWriter::commit_task() {
  std::unique_lock<std::mutex> lock(mu_);
  commit(lock);
  --worker_tasks_;
  cv_.notify_all();
}

void JournalStreamWriter::drain() {
  if (!open_.empty()) dispatch();
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    return next_commit_ == next_seq_ && worker_tasks_ == 0;
  });
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
