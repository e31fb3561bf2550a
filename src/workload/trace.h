// Trace persistence: write/read a workload to a plain-text file so that
// experiments can be replayed outside the generator (and so external
// traces can be imported in the paper's format: one request per line).
//
// Replay a written trace from any bench/example binary with
// `--scenario=trace:file=PATH` (see core/registry.h): the file is
// loaded once per sweep grid and shared immutably across every cell.
// A trace declaring more than 64M (2^26) requests keeps only its
// catalog resident and re-streams the request records from disk
// chunk-wise inside each simulation (O(chunk) memory; see
// workload/request_stream.h).
#pragma once

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "workload/generator.h"

namespace sc::workload {

/// File format (text, line-oriented):
///   line 1:    "streamcache-trace v2 <num_objects> <num_requests>"
///   objects:   "O <id> <duration_s> <bitrate> <value> <path>"
///   requests:  "R <time_s> <object_id> <view_s>"
/// Objects appear before requests; requests are in non-decreasing time.
/// `view_s` is the session's recorded viewing duration (seconds);
/// -1 means the client watched the whole stream (Request::kFullSession).
/// Readers also accept the v1 format, whose request records carry no
/// view_s column (every v1 session is a full session).
void write_trace(const Workload& workload, const std::filesystem::path& path);

/// Incremental trace parser: reads the header eagerly, then streams
/// records on demand so multi-GB traces replay in O(chunk) memory
/// instead of one giant vector. All validation (and its error wording)
/// matches the original whole-file read_trace: bad magic, unsupported
/// versions, non-dense object ids, out-of-catalog path/object ids, time
/// regressions, and truncated records fail as they are encountered; the
/// header-vs-actual record count check fires when the reader hits EOF.
/// Move-only (owns the input stream).
class TraceReader {
 public:
  enum ObjectHandling {
    /// Collect object records for take_objects() (read_trace).
    kKeepObjects,
    /// Validate and discard them (re-streaming cursors whose catalog was
    /// already built by a previous pass; skips the per-object storage).
    kSkipObjects,
  };

  /// Opens and parses the header. Throws std::runtime_error with the
  /// file named on open failure or malformed header.
  explicit TraceReader(const std::filesystem::path& path,
                       ObjectHandling objects = kKeepObjects);

  [[nodiscard]] std::size_t declared_objects() const noexcept {
    return num_objects_;
  }
  [[nodiscard]] std::size_t declared_requests() const noexcept {
    return num_requests_;
  }

  /// Stream up to `n` request records into the SoA output arrays (each
  /// sized >= n). Returns the number read; 0 exactly once, at a clean
  /// end of file (after the record count check passed). Object records
  /// encountered along the way are validated and absorbed, never
  /// emitted. Throws std::runtime_error on malformed input, naming the
  /// file and the offending record.
  std::size_t read_requests(double* time_s, ObjectId* object, double* view_s,
                            std::size_t n);

  /// The collected object records (kKeepObjects mode), moved out. Call
  /// after read_requests returned 0 so late object records (legal in
  /// the original reader) are included.
  [[nodiscard]] std::vector<StreamObject> take_objects() {
    return std::move(objects_);
  }

 private:
  [[noreturn]] void fail(const std::string& what) const;
  void parse_object_record();
  void finish();

  std::filesystem::path path_;
  std::ifstream in_;
  ObjectHandling handling_;
  bool has_view_ = false;
  bool done_ = false;
  std::size_t num_objects_ = 0;
  std::size_t num_requests_ = 0;
  std::size_t objects_seen_ = 0;
  std::size_t requests_seen_ = 0;
  double last_time_ = 0.0;
  std::string tag_;  // reused record-tag scratch
  std::vector<StreamObject> objects_;
};

/// Parse a trace file written by write_trace (v1 or v2). Throws
/// std::runtime_error on malformed input — bad magic, out-of-range
/// object ids, time regressions, truncated files — naming the file and
/// the offending record. Built on TraceReader, so records stream
/// through a fixed-size chunk instead of an intermediate copy.
[[nodiscard]] Workload read_trace(const std::filesystem::path& path);

}  // namespace sc::workload
