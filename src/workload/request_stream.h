// Chunked, pull-based request streams: the simulator's view of "the
// workload" that does not require the workload to exist in memory.
//
// A RequestStream is an immutable description of a request sequence with
// three interchangeable sources:
//
//   - replay:    SoA columns held in memory, the only resident form of a
//                request sequence. replay() transposes a Workload's
//                request vector once and keeps a copy of its catalog,
//                not the workload; in_memory() drains any other source
//                into the same columns. Chunks are zero-copy slices of
//                the columns.
//   - synthetic: a catalog + TraceConfig + the post-catalog RNG
//                snapshot. Chunks are regenerated on the fly by
//                workload::TraceSampler — the *same* sampler
//                generate_trace uses — so the streamed sequence is
//                byte-identical to the vector generate_trace would
//                have built, while peak memory is O(chunk).
//   - trace file: the catalog is parsed once up front (and the whole
//                file validated); request records re-stream from disk
//                chunk-wise inside each simulation via TraceReader.
//
// Sharing happens at the stream level: core::SweepRunner builds one
// immutable RequestStream per distinct (alpha, replication) — or one
// per grid under trace scenarios — and every simulation binds its own
// RequestCursor to it. Cursors carry all mutable state (RNG position,
// SoA chunk buffers, file handles), so any number of simulations can
// stream the same workload concurrently, each from the beginning.
// Determinism contract: the synthetic source's RNG snapshot is the
// sweep's per-(alpha, run) seed derivation (splitmix64 + tag forks)
// advanced past Catalog::generate, so chunk k is a pure function of
// (stream, k) and results cannot depend on --threads or chunk size.
#pragma once

#include <cstddef>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "util/rng.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace sc::workload {

/// One chunk of requests in SoA form (times/objects/view_s contiguous),
/// feeding the block-batched delivery stage (sim/delivery.h). Pointers
/// are into the owning cursor's buffers and are valid until its next
/// next() call.
struct RequestBlock {
  const double* time_s = nullptr;
  const ObjectId* object = nullptr;
  const double* view_s = nullptr;
  std::size_t size = 0;
  /// Global index of this block's first request within the stream.
  std::size_t first = 0;
};

/// Default cursor chunk: big enough to amortize per-chunk work and keep
/// the delivery loops vectorizable, small enough that the SoA scratch
/// (a few doubles per request) stays cache-resident.
inline constexpr std::size_t kDefaultStreamChunk = 4096;

class RequestCursor;

/// An immutable, shareable request sequence (see file comment). Copyable
/// (copies share the underlying columns/catalog via shared_ptr).
class RequestStream {
 public:
  /// Replay `workload` (must be non-null, non-empty catalog allowed;
  /// request times must not decrease). The stream copies the requests
  /// into its columns and the catalog, and keeps no reference to
  /// `workload`.
  [[nodiscard]] static RequestStream replay(
      std::shared_ptr<const Workload> workload);

  /// Regenerate `trace` against `catalog` from `rng`, which must be the
  /// generator stream state immediately after Catalog::generate — the
  /// exact position generate_trace would have continued from. Validates
  /// like generate_trace (num_requests > 0, arrival rate > 0) and
  /// builds the shared alias-table popularity model once.
  [[nodiscard]] static RequestStream synthetic(
      std::shared_ptr<const Catalog> catalog, TraceConfig trace,
      util::Rng rng);

  /// Stream request records from a trace file (workload/trace.h format).
  /// The catalog is parsed eagerly and the whole file validated once
  /// (one full streaming pass, O(chunk) memory); each cursor then
  /// re-reads the request records from disk.
  [[nodiscard]] static RequestStream trace_file(std::filesystem::path path);

  [[nodiscard]] const Catalog& catalog() const noexcept { return *catalog_; }
  [[nodiscard]] std::size_t num_requests() const noexcept {
    return num_requests_;
  }

  /// The same sequence held in memory, over the same catalog: a replay
  /// stream returns itself; any other source is drained through one
  /// cursor into freshly reserved columns (O(n) memory, 24 bytes per
  /// request).
  [[nodiscard]] RequestStream in_memory() const;

 private:
  friend class RequestCursor;
  enum class Source { kReplay, kSynthetic, kTraceFile };

  RequestStream() = default;

  /// The resident request sequence in SoA form, built once per stream
  /// so every cursor chunk is a pointer slice instead of a copy (the
  /// fill cost amortizes over all cells x runs).
  struct ReplayColumns {
    std::vector<double> time_s;
    std::vector<ObjectId> object;
    std::vector<double> view_s;
  };

  Source source_ = Source::kReplay;
  std::shared_ptr<const ReplayColumns> columns_;       // kReplay
  std::shared_ptr<const Catalog> catalog_;             // every source
  std::shared_ptr<const stats::ZipfLike> popularity_;  // kSynthetic
  TraceConfig trace_{};                                // kSynthetic
  std::optional<util::Rng> rng_;                       // kSynthetic
  std::filesystem::path path_;                         // kTraceFile
  std::size_t num_requests_ = 0;
};

/// The per-simulation iteration state over one RequestStream: SoA chunk
/// buffers plus the source-specific position (request index, sampler RNG,
/// or file reader). bind() rebinds to a (possibly different) stream and
/// rewinds to request 0, reusing the buffers — steady-state rebinds of
/// in-memory sources allocate nothing (sim::RunState keeps one cursor
/// per cached engine).
class RequestCursor {
 public:
  RequestCursor() = default;

  /// Start (or restart) iterating `stream` from the beginning in chunks
  /// of `chunk` requests. `stream` must outlive the iteration.
  void bind(const RequestStream& stream, std::size_t chunk);

  /// The next chunk (full-size except possibly the last), or nullptr at
  /// end of stream. The returned block is valid until the next call.
  [[nodiscard]] const RequestBlock* next();

 private:
  const RequestStream* stream_ = nullptr;
  std::size_t chunk_ = 0;
  std::size_t pos_ = 0;
  RequestBlock block_{};
  std::vector<double> time_s_;
  std::vector<ObjectId> object_;
  std::vector<double> view_s_;
  std::optional<TraceSampler> sampler_;   // kSynthetic
  std::unique_ptr<TraceReader> reader_;   // kTraceFile
};

}  // namespace sc::workload
