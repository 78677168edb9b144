#include "io/crc32.h"

#include <array>

namespace dmb::io {

namespace {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320.
/// tables[0] is the classic byte table; tables[k][b] is the CRC of byte
/// b followed by k zero bytes, so eight table lookups advance the CRC
/// over eight input bytes at once.
Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

/// Little-endian load, independent of host byte order (compilers turn
/// it into one 32-bit load where that is the native order).
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  static const Tables t = MakeTables();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace dmb::io
