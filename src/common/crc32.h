// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slice-by-8 table-driven. Used by the
// report plane's wire frames so a corrupted or truncated datagram is rejected before any of
// its contents reach the observation store, and by the window log.
//
// Slice-by-8 folds eight input bytes per step through eight derived tables; table k maps a
// byte to its CRC contribution k bytes further along the stream, so the eight lookups of one
// step XOR to what eight byte-at-a-time steps compute. The value is the same for every input.
#ifndef SRC_COMMON_CRC32_H_
#define SRC_COMMON_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace detector {

namespace internal {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFF] ^ (prev >> 8);
    }
  }
  return tables;
}

inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

// Little-endian 32-bit load, independent of host byte order and alignment.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace internal

inline uint32_t Crc32(std::span<const uint8_t> bytes, uint32_t seed = 0) {
  const internal::Crc32Tables& t = internal::kCrc32Tables;
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = internal::LoadLe32(p) ^ c;
    const uint32_t hi = internal::LoadLe32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace detector

#endif  // SRC_COMMON_CRC32_H_
