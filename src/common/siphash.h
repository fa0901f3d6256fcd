// SipHash-2-4 (Aumasson & Bernstein): a keyed pseudorandom function over short inputs, the
// report plane's frame-authentication MAC. Unlike the CRC beside it — which catches random
// damage but is trivially forged — the 64-bit SipHash tag is unforgeable without the 128-bit
// deployment key, so a frame that was deliberately modified (and had its CRC recomputed) is
// still rejected. Self-contained: the toolchain ships no crypto library, and SipHash was
// designed exactly for this short-message authentication niche.
#ifndef SRC_COMMON_SIPHASH_H_
#define SRC_COMMON_SIPHASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace detector {

namespace internal {

constexpr uint64_t SipRotl(uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }

inline void SipRound(uint64_t& v0, uint64_t& v1, uint64_t& v2, uint64_t& v3) {
  v0 += v1;
  v1 = SipRotl(v1, 13);
  v1 ^= v0;
  v0 = SipRotl(v0, 32);
  v2 += v3;
  v3 = SipRotl(v3, 16);
  v3 ^= v2;
  v0 += v3;
  v3 = SipRotl(v3, 21);
  v3 ^= v0;
  v2 += v1;
  v1 = SipRotl(v1, 17);
  v1 ^= v2;
  v2 = SipRotl(v2, 32);
}

}  // namespace internal

// 64-bit SipHash-2-4 of `bytes` under the 128-bit key (k0, k1).
inline uint64_t SipHash24(uint64_t k0, uint64_t k1, std::span<const uint8_t> bytes) {
  using internal::SipRound;
  uint64_t v0 = 0x736f6d6570736575ULL ^ k0;
  uint64_t v1 = 0x646f72616e646f6dULL ^ k1;
  uint64_t v2 = 0x6c7967656e657261ULL ^ k0;
  uint64_t v3 = 0x7465646279746573ULL ^ k1;

  const size_t len = bytes.size();
  const size_t full_words = len / 8;
  for (size_t w = 0; w < full_words; ++w) {
    // The word's bytes in little-endian order: one load on a little-endian host.
    uint64_t m;
    std::memcpy(&m, bytes.data() + w * 8, sizeof(m));
    if constexpr (std::endian::native == std::endian::big) {
      m = __builtin_bswap64(m);
    }
    v3 ^= m;
    SipRound(v0, v1, v2, v3);
    SipRound(v0, v1, v2, v3);
    v0 ^= m;
  }
  // Final block: remaining bytes plus the length in the top byte.
  uint64_t m = static_cast<uint64_t>(len & 0xFF) << 56;
  for (size_t b = 0; b < len % 8; ++b) {
    m |= static_cast<uint64_t>(bytes[full_words * 8 + b]) << (8 * b);
  }
  v3 ^= m;
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  v0 ^= m;

  v2 ^= 0xFF;
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  return v0 ^ v1 ^ v2 ^ v3;
}

// Constant-time 8-byte tag comparison: the accumulate-then-test shape gives the verifier no
// early exit, so a forger learns nothing about how many tag bytes matched.
inline bool ConstantTimeEqual8(const uint8_t* a, const uint8_t* b) {
  uint8_t diff = 0;
  for (size_t i = 0; i < 8; ++i) {
    diff = static_cast<uint8_t>(diff | (a[i] ^ b[i]));
  }
  return diff == 0;
}

}  // namespace detector

#endif  // SRC_COMMON_SIPHASH_H_
