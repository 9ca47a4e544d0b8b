#include "obs/stream_writer.hpp"

#include <filesystem>
#include <stdexcept>

#include "common/check.hpp"

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

JournalStreamWriter::JournalStreamWriter(const std::string& path)
    : file_(path) {}

JournalStreamWriter::JournalStreamWriter(const std::string& path,
                                         const JournalStreamState& state)
    : file_(path, Resume{state.bytes}),
      events_(state.events),
      next_chain_(state.next_chain) {
  for (const auto& [client, chain] : state.client_chains) bind(client, chain);
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
  if (event.chain == 0 && event.client >= 0)
    event.chain = chain_of(event.client);
  std::string& out = file_.pending();
  append_journal_event_jsonl(out, event);
  out += '\n';
  file_.maybe_write();
  ++events_;
}

void JournalStreamWriter::flush() {
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

JournalStreamState JournalStreamWriter::state() const {
  return {.bytes = bytes_written(),
          .events = events_,
          .next_chain = next_chain_,
          .client_chains = client_chains()};
}

}  // namespace perdnn::obs
