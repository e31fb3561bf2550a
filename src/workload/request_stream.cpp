#include "workload/request_stream.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace sc::workload {

RequestStream RequestStream::replay(std::shared_ptr<const Workload> workload) {
  if (workload == nullptr) {
    throw std::invalid_argument("RequestStream::replay: null workload");
  }
  RequestStream s;
  s.source_ = Source::kReplay;
  s.num_requests_ = workload->requests.size();
  // One AoS -> SoA pass here makes every cursor chunk a zero-copy
  // pointer slice; the cost amortizes over all simulations that share
  // this stream (cells x replications in a sweep).
  auto columns = std::make_shared<ReplayColumns>();
  columns->time_s.reserve(workload->requests.size());
  columns->object.reserve(workload->requests.size());
  columns->view_s.reserve(workload->requests.size());
  for (const Request& r : workload->requests) {
    // The request loop's clock, like the trace reader's, never goes
    // back (sim/run_loop.h relies on it for per-path observations).
    if (!columns->time_s.empty() && r.time_s < columns->time_s.back()) {
      throw std::invalid_argument(
          "RequestStream::replay: request times regress at request #" +
          std::to_string(columns->time_s.size()));
    }
    columns->time_s.push_back(r.time_s);
    columns->object.push_back(r.object);
    columns->view_s.push_back(r.view_s);
  }
  s.columns_ = std::move(columns);
  s.catalog_ = std::make_shared<const Catalog>(workload->catalog);
  return s;
}

RequestStream RequestStream::synthetic(std::shared_ptr<const Catalog> catalog,
                                       TraceConfig trace, util::Rng rng) {
  if (catalog == nullptr) {
    throw std::invalid_argument("RequestStream::synthetic: null catalog");
  }
  // generate_trace's own validation, applied at stream construction so
  // a bad config fails where it was written, not inside a worker task.
  if (trace.num_requests == 0) {
    throw std::invalid_argument("generate_trace: num_requests == 0");
  }
  if (trace.arrival_rate_per_s <= 0) {
    throw std::invalid_argument("generate_trace: arrival rate must be > 0");
  }
  RequestStream s;
  s.source_ = Source::kSynthetic;
  s.num_requests_ = trace.num_requests;
  // The alias table is the expensive part of the generator; build it
  // once per stream (it draws no RNG) and share it across every cursor.
  s.popularity_ = std::make_shared<const stats::ZipfLike>(catalog->size(),
                                                          trace.zipf_alpha);
  s.catalog_ = std::move(catalog);
  s.trace_ = trace;
  s.rng_.emplace(std::move(rng));
  return s;
}

RequestStream RequestStream::trace_file(std::filesystem::path path) {
  // One full validating pass: collect the objects, stream (and discard)
  // every request record so malformed files fail at scenario-build time
  // exactly like the materializing loader — in O(chunk) memory.
  TraceReader reader(path, TraceReader::kKeepObjects);
  constexpr std::size_t kChunk = 8192;
  std::vector<double> time_s(kChunk), view_s(kChunk);
  std::vector<ObjectId> object(kChunk);
  std::size_t total = 0;
  while (std::size_t n = reader.read_requests(time_s.data(), object.data(),
                                              view_s.data(), kChunk)) {
    total += n;
  }
  RequestStream s;
  s.source_ = Source::kTraceFile;
  s.num_requests_ = total;
  s.catalog_ = std::make_shared<const Catalog>(
      Catalog::from_objects(reader.take_objects()));
  s.path_ = std::move(path);
  return s;
}

RequestStream RequestStream::in_memory() const {
  if (source_ == Source::kReplay) return *this;
  auto columns = std::make_shared<ReplayColumns>();
  columns->time_s.reserve(num_requests_);
  columns->object.reserve(num_requests_);
  columns->view_s.reserve(num_requests_);
  RequestCursor cursor;
  cursor.bind(*this, kDefaultStreamChunk);
  while (const RequestBlock* block = cursor.next()) {
    columns->time_s.insert(columns->time_s.end(), block->time_s,
                           block->time_s + block->size);
    columns->object.insert(columns->object.end(), block->object,
                           block->object + block->size);
    columns->view_s.insert(columns->view_s.end(), block->view_s,
                           block->view_s + block->size);
  }
  RequestStream s;
  s.source_ = Source::kReplay;
  s.num_requests_ = num_requests_;
  s.columns_ = std::move(columns);
  s.catalog_ = catalog_;
  return s;
}

void RequestCursor::bind(const RequestStream& stream, std::size_t chunk) {
  if (chunk == 0) {
    throw std::invalid_argument("RequestCursor: chunk size must be >= 1");
  }
  stream_ = &stream;
  chunk_ = chunk;
  pos_ = 0;
  sampler_.reset();
  reader_.reset();
  switch (stream.source_) {
    case RequestStream::Source::kReplay:
      break;
    case RequestStream::Source::kSynthetic:
      // A fresh sampler from the stream's RNG snapshot: every cursor
      // re-derives the identical sequence from request 0.
      sampler_.emplace(*stream.popularity_, stream.trace_, *stream.rng_);
      break;
    case RequestStream::Source::kTraceFile:
      // The stream validated the whole file (and keeps the catalog);
      // this pass only re-extracts the request records.
      reader_ = std::make_unique<TraceReader>(stream.path_,
                                              TraceReader::kSkipObjects);
      break;
  }
  // Replay blocks are slices of the stream's own columns; only the
  // regenerating sources need scratch.
  if (stream.source_ != RequestStream::Source::kReplay &&
      time_s_.size() < chunk) {
    time_s_.resize(chunk);
    object_.resize(chunk);
    view_s_.resize(chunk);
  }
}

const RequestBlock* RequestCursor::next() {
  if (stream_ == nullptr) return nullptr;
  std::size_t n = 0;
  switch (stream_->source_) {
    case RequestStream::Source::kReplay: {
      // Zero-copy: slice the stream's SoA columns directly.
      const RequestStream::ReplayColumns& cols = *stream_->columns_;
      if (pos_ >= cols.time_s.size()) return nullptr;
      n = std::min(chunk_, cols.time_s.size() - pos_);
      block_ = RequestBlock{cols.time_s.data() + pos_,
                            cols.object.data() + pos_,
                            cols.view_s.data() + pos_, n, pos_};
      pos_ += n;
      return &block_;
    }
    case RequestStream::Source::kSynthetic: {
      if (pos_ >= stream_->num_requests_) return nullptr;
      n = std::min(chunk_, stream_->num_requests_ - pos_);
      for (std::size_t i = 0; i < n; ++i) {
        const Request r = sampler_->next();
        time_s_[i] = r.time_s;
        object_[i] = r.object;
        view_s_[i] = r.view_s;
      }
      break;
    }
    case RequestStream::Source::kTraceFile: {
      n = reader_->read_requests(time_s_.data(), object_.data(),
                                 view_s_.data(), chunk_);
      if (n == 0) return nullptr;
      break;
    }
  }
  block_ = RequestBlock{time_s_.data(), object_.data(), view_s_.data(), n,
                        pos_};
  pos_ += n;
  return &block_;
}

}  // namespace sc::workload
