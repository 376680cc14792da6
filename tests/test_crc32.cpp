// util::crc32, the checksum behind every CRC1 footer, trace-block CRC and
// index CRC (docs/trace-format.md): the standard check value, agreement
// with a bit-at-a-time reference at every length and alignment the
// eight-byte step and its byte tail can meet, and chaining through `seed`
// at every split point, which the streaming writers rely on.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "util/crc32.hpp"

namespace cfir::util {
namespace {

/// CRC-32 one bit at a time, straight from the reflected polynomial.
uint32_t bitwise_crc32(const uint8_t* data, size_t n, uint32_t seed = 0) {
  uint32_t c = ~seed;
  for (size_t i = 0; i < n; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? (c >> 1) ^ 0xEDB88320u : c >> 1;
    }
  }
  return ~c;
}

std::vector<uint8_t> random_bytes(size_t n, uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(gen());
  return bytes;
}

TEST(Crc32, KnownAnswer) {
  const char* check = "123456789";
  EXPECT_EQ(crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(check, 0), 0u);
  EXPECT_EQ(crc32(nullptr, 0, 0xCBF43926u), 0xCBF43926u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<uint8_t> bytes = random_bytes(64 + 8, 1);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 64; ++n) {
      const uint8_t* p = bytes.data() + offset;
      ASSERT_EQ(crc32(p, n), bitwise_crc32(p, n))
          << "offset " << offset << " length " << n;
      ASSERT_EQ(crc32(p, n, 0x12345678u), bitwise_crc32(p, n, 0x12345678u))
          << "seeded, offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32, EveryTwoWaySplitChainsToTheOneShotValue) {
  const std::vector<uint8_t> bytes = random_bytes(4096, 2);
  const uint32_t whole = crc32(bytes.data(), bytes.size());
  EXPECT_EQ(whole, bitwise_crc32(bytes.data(), bytes.size()));
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = crc32(bytes.data(), split);
    ASSERT_EQ(crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split at " << split;
  }
}

}  // namespace
}  // namespace cfir::util
