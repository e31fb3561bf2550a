// The proxy daemon's wire protocol: length-prefixed binary frames with
// range-GET semantics over a byte stream (TCP or any connected socket).
//
// Every message — request or response — is one frame:
//
//   u32  body length N (little-endian)   | N bytes body
//
// The first body byte is the opcode (requests) or status (responses);
// all integers are little-endian, doubles are IEEE-754 bit patterns in
// a u64. Three request ops:
//
//   GET   op=1 | u64 object | u64 offset | u64 length
//         -> status | u64 cache_bytes | u64 origin_bytes | f64 delay_s
//            | `length` payload bytes                       (on kOk)
//         Serve object bytes [offset, offset + length). cache_bytes of
//         the range were covered by the cached prefix, origin_bytes
//         came from upstream; delay_s is the §2.2 prefetch delay of the
//         range under the estimator's current bandwidth belief.
//
//   STAT  op=2 | u64 object
//         -> status | u64 size_bytes | u64 cached_bytes    (on kOk)
//         The object's servable size and currently cached prefix.
//
//   STATS op=3
//         -> status | UTF-8 JSON object (server-lifetime counters)
//
//   AUDIT op=4
//         -> status | UTF-8 JSON object {"ok": bool, "checks": N,
//            "violations": [...]} — a full sim::StateAuditor pass over
//            the live decision state, run under the engine lock.
//
// Error responses are a lone status byte. The protocol is deliberately
// minimal: framing is explicit so a reader never scans for delimiters,
// and every field is fixed-width so both ends parse with pointer
// arithmetic. See docs/SERVER.md for the full specification.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace sc::server::wire {

// Request opcodes.
inline constexpr std::uint8_t kOpGet = 1;
inline constexpr std::uint8_t kOpStat = 2;
inline constexpr std::uint8_t kOpStats = 3;
inline constexpr std::uint8_t kOpAudit = 4;

// Response status codes.
inline constexpr std::uint8_t kOk = 0;
inline constexpr std::uint8_t kBadObject = 1;  // unknown object id
inline constexpr std::uint8_t kBadRange = 2;   // range outside the object
inline constexpr std::uint8_t kBadRequest = 3; // malformed frame / opcode
/// The range needed origin bytes but the upstream path is unreachable
/// (outage / timeout) and bounded retries were exhausted. Transient:
/// the same request succeeds once the origin recovers, and
/// fully-cached ranges keep answering kOk throughout (graceful
/// degradation; see docs/CHAOS.md).
inline constexpr std::uint8_t kOriginDown = 4;

/// Largest range one GET may request. Bounds per-connection buffer
/// growth; clients fetch bigger extents as successive ranges.
inline constexpr std::uint64_t kMaxGetLength = 1u << 20;  // 1 MiB

/// Largest frame either side accepts (a GET response: header + payload).
/// A peer announcing more is protocol-broken and gets disconnected.
inline constexpr std::size_t kMaxFrame = kMaxGetLength + 64;

// Sizes of the fixed-width message layouts.
inline constexpr std::size_t kGetRequestSize = 1 + 3 * 8;
inline constexpr std::size_t kGetResponseHeader = 1 + 2 * 8 + 8;
inline constexpr std::size_t kStatRequestSize = 1 + 8;
inline constexpr std::size_t kStatResponseSize = 1 + 2 * 8;

// --- little-endian field encoding (byte-order independent) -----------

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

[[nodiscard]] inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

[[nodiscard]] inline std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

[[nodiscard]] inline double get_f64(const std::uint8_t* p) {
  const std::uint64_t bits = get_u64(p);
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

// --- message bodies --------------------------------------------------

struct GetRequest {
  std::uint64_t object = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

/// Append a GET request body to `out` (framing is the transport's job).
inline void encode_get(std::vector<std::uint8_t>& out, const GetRequest& r) {
  out.push_back(kOpGet);
  put_u64(out, r.object);
  put_u64(out, r.offset);
  put_u64(out, r.length);
}

/// Decode a GET request body; false when the body is not a well-formed
/// GET (wrong size or opcode).
[[nodiscard]] inline bool decode_get(const std::uint8_t* body, std::size_t n,
                                     GetRequest& r) {
  if (n != kGetRequestSize || body[0] != kOpGet) return false;
  r.object = get_u64(body + 1);
  r.offset = get_u64(body + 9);
  r.length = get_u64(body + 17);
  return true;
}

// --- framed socket IO ------------------------------------------------

/// Write one frame (u32 length + body) to a connected socket as one
/// gather write, retrying partial writes and EINTR. False on any hard
/// error (peer gone, send timeout).
[[nodiscard]] bool write_frame(int fd, const std::uint8_t* body,
                               std::size_t n);

/// Write one frame whose body is `head` followed by `tail`, in the same
/// single gather write: the caller need not copy the two into one
/// buffer. Either part may be empty.
[[nodiscard]] bool write_frame(int fd, const std::uint8_t* head,
                               std::size_t head_n, const std::uint8_t* tail,
                               std::size_t tail_n);

/// Read one frame body into `body` (replacing its contents). Returns
/// false on clean EOF before a frame starts, on a hard read error, or on
/// a frame longer than kMaxFrame.
[[nodiscard]] bool read_frame(int fd, std::vector<std::uint8_t>& body);

}  // namespace sc::server::wire
