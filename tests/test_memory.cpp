#include "mem/main_memory.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace cfir::mem {
namespace {

TEST(MainMemory, ZeroInitialized) {
  MainMemory m;
  EXPECT_EQ(m.read(0x1234, 8), 0u);
  EXPECT_EQ(m.read8(0xFFFFFFFFFFFFFFFF), 0u);
  EXPECT_EQ(m.resident_pages(), 0u);  // reads allocate nothing
}

TEST(MainMemory, LittleEndianWidths) {
  MainMemory m;
  m.write(0x100, 0x0102030405060708ULL, 8);
  EXPECT_EQ(m.read8(0x100), 0x08u);
  EXPECT_EQ(m.read8(0x107), 0x01u);
  EXPECT_EQ(m.read(0x100, 4), 0x05060708u);
  EXPECT_EQ(m.read(0x104, 4), 0x01020304u);
  EXPECT_EQ(m.read(0x100, 2), 0x0708u);
  EXPECT_EQ(m.read(0x100, 1), 0x08u);
}

TEST(MainMemory, CrossPageAccess) {
  MainMemory m;
  const uint64_t addr = MainMemory::kPageSize - 4;
  m.write(addr, 0x1122334455667788ULL, 8);
  EXPECT_EQ(m.read(addr, 8), 0x1122334455667788ULL);
  EXPECT_EQ(m.resident_pages(), 2u);
}

TEST(MainMemory, WriteBlock) {
  MainMemory m;
  const uint8_t data[5] = {1, 2, 3, 4, 5};
  m.write_block(0x2000, data, 5);
  EXPECT_EQ(m.read(0x2000, 4), 0x04030201u);
  EXPECT_EQ(m.read8(0x2004), 5u);

  // A block starting mid-page that runs across two page boundaries: every
  // byte lands where a byte-at-a-time write puts it, the pages it touches
  // become resident and its neighbours stay untouched.
  std::vector<uint8_t> big(2 * MainMemory::kPageSize + 100);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  const uint64_t base = 5 * MainMemory::kPageSize - 50;
  MainMemory block;
  MainMemory bytewise;
  block.write8(base - 1, 0xEE);
  bytewise.write8(base - 1, 0xEE);
  block.write_block(base, big.data(), big.size());
  for (size_t i = 0; i < big.size(); ++i) bytewise.write8(base + i, big[i]);
  EXPECT_EQ(block.digest(), bytewise.digest());
  EXPECT_EQ(block.resident_pages(), 4u);  // pages 4, 5, 6 and 7
  EXPECT_EQ(block.read8(base - 1), 0xEEu);
  EXPECT_EQ(block.read8(base), big[0]);
  EXPECT_EQ(block.read8(base + big.size() - 1), big.back());
  EXPECT_EQ(block.read8(base + big.size()), 0u);
  EXPECT_EQ(block.read(5 * MainMemory::kPageSize - 4, 8),
            bytewise.read(5 * MainMemory::kPageSize - 4, 8));

  // An empty block writes nothing and materializes no page.
  MainMemory empty;
  empty.write_block(0x9000, big.data(), 0);
  EXPECT_EQ(empty.resident_pages(), 0u);
}

TEST(MainMemory, DigestIgnoresZeroWrites) {
  MainMemory a, b;
  a.write(0x100, 42, 8);
  b.write(0x100, 42, 8);
  b.write(0x9000, 0, 8);  // writing zeros must not change the digest
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(MainMemory, DigestOrderIndependent) {
  MainMemory a, b;
  a.write(0x100, 1, 8);
  a.write(0x5000, 2, 8);
  b.write(0x5000, 2, 8);
  b.write(0x100, 1, 8);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(MainMemory, DigestSensitiveToContent) {
  MainMemory a, b;
  a.write(0x100, 1, 8);
  b.write(0x100, 2, 8);
  EXPECT_NE(a.digest(), b.digest());
  MainMemory c;
  c.write(0x108, 1, 8);  // same value, different address
  EXPECT_NE(a.digest(), c.digest());
}

TEST(MainMemory, CloneIsDeep) {
  MainMemory a;
  a.write(0x100, 7, 8);
  MainMemory b = a.clone();
  b.write(0x100, 9, 8);
  EXPECT_EQ(a.read(0x100, 8), 7u);
  EXPECT_EQ(b.read(0x100, 8), 9u);
}

}  // namespace
}  // namespace cfir::mem
