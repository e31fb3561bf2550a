#include "workload/trace.h"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace sc::workload {

void write_trace(const Workload& workload,
                 const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("write_trace: cannot open " + path.string());
  }
  out << "streamcache-trace v2 " << workload.catalog.size() << ' '
      << workload.requests.size() << '\n';
  out << std::setprecision(17);
  for (const auto& o : workload.catalog.objects()) {
    out << "O " << o.id << ' ' << o.duration_s << ' ' << o.bitrate << ' '
        << o.value << ' ' << o.path << '\n';
  }
  for (const auto& r : workload.requests) {
    out << "R " << r.time_s << ' ' << r.object << ' ' << r.view_s << '\n';
  }
  if (!out) {
    throw std::runtime_error("write_trace: write failed on " + path.string());
  }
}

void TraceReader::fail(const std::string& what) const {
  // The "read_trace:" prefix is kept for every parse failure regardless
  // of entry point: callers (and tests) match on it as the trace-format
  // diagnostic namespace.
  throw std::runtime_error("read_trace: " + what + " in " + path_.string());
}

namespace {

std::string record_context(std::size_t objects_seen,
                           std::size_t requests_seen) {
  return " (after " + std::to_string(objects_seen) + " object and " +
         std::to_string(requests_seen) + " request records)";
}

/// How many of `declared` records to reserve room for. The header's
/// counts are checked only at end of file, so a hostile header must not
/// drive an allocation: reserve no more records than the file could
/// hold. No record is shorter than v1's "R 1 0", so a file whose header
/// is honest keeps its full reservation.
std::size_t reservable(std::size_t declared,
                       const std::filesystem::path& path) {
  constexpr std::uintmax_t kMinRecordBytes = 5;
  std::error_code ec;
  const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
  if (ec) return 0;
  return static_cast<std::size_t>(
      std::min<std::uintmax_t>(declared, bytes / kMinRecordBytes));
}

}  // namespace

TraceReader::TraceReader(const std::filesystem::path& path,
                         ObjectHandling objects)
    : path_(path), in_(path), handling_(objects) {
  if (!in_) {
    throw std::runtime_error("read_trace: cannot open " + path_.string());
  }
  std::string magic, version;
  in_ >> magic >> version >> num_objects_ >> num_requests_;
  if (!in_ || magic != "streamcache-trace") {
    fail("bad magic (expected \"streamcache-trace v1|v2 "
         "<objects> <requests>\")");
  }
  if (version != "v1" && version != "v2") {
    fail("unsupported version \"" + version + "\" (known: v1, v2)");
  }
  has_view_ = version == "v2";
  if (handling_ == kKeepObjects) {
    objects_.reserve(reservable(num_objects_, path_));
  }
}

void TraceReader::parse_object_record() {
  StreamObject o;
  in_ >> o.id >> o.duration_s >> o.bitrate >> o.value >> o.path;
  if (!in_) {
    fail("malformed or truncated object record" +
         record_context(objects_seen_, requests_seen_));
  }
  if (o.id != objects_seen_) {
    fail("object ids must be dense and in order (got id " +
         std::to_string(o.id) + " for object #" +
         std::to_string(objects_seen_) + ")");
  }
  // Simulations build one bandwidth path per catalog object; an
  // out-of-range path id must fail here with the file named, not
  // mid-sweep inside a worker task.
  if (o.path >= num_objects_) {
    fail("object " + std::to_string(o.id) + " names path " +
         std::to_string(o.path) + " outside the declared catalog of " +
         std::to_string(num_objects_) + " paths");
  }
  ++objects_seen_;
  // size_bytes and popularity_rank are derived by Catalog::from_objects.
  if (handling_ == kKeepObjects) objects_.push_back(o);
}

void TraceReader::finish() {
  done_ = true;
  if (objects_seen_ != num_objects_ || requests_seen_ != num_requests_) {
    fail("record count mismatch (header declares " +
         std::to_string(num_objects_) + " objects and " +
         std::to_string(num_requests_) + " requests; file holds " +
         std::to_string(objects_seen_) + " and " +
         std::to_string(requests_seen_) + " — truncated file?)");
  }
}

std::size_t TraceReader::read_requests(double* time_s, ObjectId* object,
                                       double* view_s, std::size_t n) {
  if (done_) return 0;
  std::size_t count = 0;
  while (count < n) {
    if (!(in_ >> tag_)) {
      finish();
      break;
    }
    if (tag_ == "O") {
      parse_object_record();
    } else if (tag_ == "R") {
      Request r;
      in_ >> r.time_s >> r.object;
      if (has_view_) in_ >> r.view_s;
      if (!in_) {
        fail("malformed or truncated request record" +
             record_context(objects_seen_, requests_seen_));
      }
      if (r.object >= num_objects_) {
        fail("request #" + std::to_string(requests_seen_) +
             " references object " + std::to_string(r.object) +
             " outside the declared catalog of " +
             std::to_string(num_objects_));
      }
      if (r.time_s < last_time_) {
        fail("request times regress at request #" +
             std::to_string(requests_seen_) + " (" +
             std::to_string(r.time_s) + " after " +
             std::to_string(last_time_) + ")");
      }
      last_time_ = r.time_s;
      ++requests_seen_;
      time_s[count] = r.time_s;
      object[count] = r.object;
      view_s[count] = r.view_s;
      ++count;
    } else {
      fail("unknown record tag \"" + tag_ + "\"" +
           record_context(objects_seen_, requests_seen_));
    }
  }
  return count;
}

Workload read_trace(const std::filesystem::path& path) {
  TraceReader reader(path, TraceReader::kKeepObjects);

  std::vector<Request> requests;
  requests.reserve(reservable(reader.declared_requests(), path));
  constexpr std::size_t kChunk = 8192;
  std::vector<double> time_s(kChunk), view_s(kChunk);
  std::vector<ObjectId> object(kChunk);
  while (std::size_t n = reader.read_requests(time_s.data(), object.data(),
                                              view_s.data(), kChunk)) {
    for (std::size_t i = 0; i < n; ++i) {
      requests.push_back(Request{time_s[i], object[i], view_s[i]});
    }
  }
  return Workload{Catalog::from_objects(reader.take_objects()),
                  std::move(requests)};
}

}  // namespace sc::workload
