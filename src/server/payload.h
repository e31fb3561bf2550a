// Deterministic object payloads.
//
// The cache layer (cache::PartialStore) is an accounting structure: it
// tracks how many prefix bytes of each object are cached, not the bytes
// themselves — exactly what the paper's model needs, since a CBR
// stream's content is irrelevant to every caching decision. The daemon
// still must ship *verifiable* bytes, so object content is a pure
// function of (object id, byte offset): the origin, the proxy, and any
// client independently compute the identical stream, and a response is
// byte-checkable end-to-end without anyone storing data
// (tests/test_server.cpp asserts ranges match across sources).
//
// Byte `o` of object `i` is a lane of splitmix64 keyed by (i, o / 8):
// cheap (one multiply-xor chain per 8 bytes), stateless, and
// offset-addressable — a range can start anywhere without generating
// the prefix before it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace sc::server {

/// splitmix64 finalizer: a bijective 64-bit mix with full avalanche.
[[nodiscard]] inline constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The 8-byte content block covering object bytes [8k, 8k + 8).
[[nodiscard]] inline constexpr std::uint64_t payload_block(
    std::uint64_t object, std::uint64_t block) {
  return mix64(mix64(object + 1) ^ block);
}

/// One content byte of `object` at `offset`.
[[nodiscard]] inline constexpr std::uint8_t payload_byte(
    std::uint64_t object, std::uint64_t offset) {
  return static_cast<std::uint8_t>(payload_block(object, offset >> 3) >>
                                   ((offset & 7) * 8));
}

/// Fill `out[0, n)` with object bytes [offset, offset + n): the bytes
/// of payload_byte, with the object key mixed once per call and each
/// whole block written by one 8-byte store.
inline void fill_payload(std::uint64_t object, std::uint64_t offset,
                         std::uint8_t* out, std::size_t n) {
  std::size_t i = 0;
  // Leading bytes up to the next block boundary, then whole blocks.
  while (i < n && ((offset + i) & 7) != 0) {
    out[i] = payload_byte(object, offset + i);
    ++i;
  }
  const std::uint64_t key = mix64(object + 1);  // payload_block's, hoisted
  for (; n - i >= 8; i += 8) {
    const std::uint64_t block = mix64(key ^ ((offset + i) >> 3));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    std::memcpy(out + i, &block, sizeof block);
#else
    for (int b = 0; b < 8; ++b) {
      out[i + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(block >> (8 * b));
    }
#endif
  }
  while (i < n) {
    out[i] = payload_byte(object, offset + i);
    ++i;
  }
}

}  // namespace sc::server
