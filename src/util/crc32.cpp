#include "util/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace cfir::util {

namespace {

constexpr uint32_t kPoly = 0xEDB88320u;

/// Slicing-by-8 tables: kTables[0] is the classic byte-at-a-time table,
/// and kTables[k][b] is the CRC register after byte b followed by k zero
/// bytes, so one step folds eight input bytes with eight lookups.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? (c >> 1) ^ kPoly : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

// The eight-byte step reads its words little-endian, as every supported
// host stores them.
static_assert(std::endian::native == std::endian::little);

}  // namespace

uint32_t crc32(const void* data, size_t n, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
        kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
        kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return ~c;
}

}  // namespace cfir::util
