#include "ci/srsmt.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace cfir::ci {
namespace {

Srsmt make_table() { return Srsmt(4, 2, 4); }  // 4 sets x 2 ways, 4 replicas

TEST(Srsmt, AllocAndFind) {
  Srsmt t = make_table();
  int released = 0;
  auto rel = [&](uint32_t) { ++released; };
  const uint32_t s = t.alloc(0x1000, rel);
  ASSERT_NE(s, kInvalidSrsmtSlot);
  EXPECT_EQ(t.find(0x1000), s);
  EXPECT_EQ(t.find(0x2000), kInvalidSrsmtSlot);
  EXPECT_EQ(released, 0);
  const SrsmtEntry& e = t.entry(s);
  EXPECT_TRUE(e.valid);
  EXPECT_EQ(e.pc, 0x1000u);
  EXPECT_EQ(e.nregs(), 4u);
  EXPECT_GT(e.uid, 0u);
}

TEST(Srsmt, UidsAreUniqueAcrossGenerations) {
  Srsmt t = make_table();
  auto rel = [](uint32_t) {};
  const uint32_t a = t.alloc(0x1000, rel);
  const uint32_t uid_a = t.entry(a).uid;
  t.invalidate(a);
  const uint32_t b = t.alloc(0x1000, rel);
  EXPECT_NE(t.entry(b).uid, uid_a);
}

TEST(Srsmt, VictimRequiresDeallocatable) {
  Srsmt t = make_table();
  auto rel = [](uint32_t) {};
  // Fill both ways of set 0 (pc>>2 % 4 == 0).
  const uint32_t a = t.alloc(0x1000, rel);
  const uint32_t b = t.alloc(0x1040, rel);
  ASSERT_NE(a, kInvalidSrsmtSlot);
  ASSERT_NE(b, kInvalidSrsmtSlot);
  // Make both non-deallocatable (in-flight validations).
  t.entry(a).decode_count = 1;
  t.entry(b).issue_count = 1;
  EXPECT_EQ(t.alloc(0x1080, rel), kInvalidSrsmtSlot);
  // Retire the in-flight validation of `a`: now evictable.
  t.entry(a).decode_count = 0;
  int released = 0;
  auto rel2 = [&](uint32_t victim) {
    EXPECT_EQ(victim, a);
    ++released;
  };
  const uint32_t c = t.alloc(0x1080, rel2);
  EXPECT_EQ(c, a);
  EXPECT_EQ(released, 1);
  EXPECT_EQ(t.entry(c).pc, 0x1080u);
}

TEST(Srsmt, LruPicksColdestVictim) {
  Srsmt t = make_table();
  auto rel = [](uint32_t) {};
  const uint32_t a = t.alloc(0x1000, rel);
  const uint32_t b = t.alloc(0x1040, rel);
  t.touch(a);  // b is now the LRU
  const uint32_t c = t.alloc(0x1080, rel);
  EXPECT_EQ(c, b);
}

TEST(SrsmtEntry, RingHoldsAndAddressing) {
  Srsmt t = make_table();
  auto rel = [](uint32_t) {};
  const uint32_t s = t.alloc(0x1000, rel);
  SrsmtEntry& e = t.entry(s);
  e.is_load = true;
  e.stride = 8;
  e.base_addr = 0x100000;
  e.anchored = true;
  EXPECT_EQ(e.addr_of(0), 0x100008u);  // anchor + stride*(k+1)
  EXPECT_EQ(e.addr_of(3), 0x100020u);
  // Ring position aliasing: abs 0 and abs 4 share a slot with 4 replicas.
  e.at(0).state = Replica::State::kReady;
  e.at(0).abs_index = 0;
  EXPECT_TRUE(e.holds(0));
  EXPECT_FALSE(e.holds(4));  // same slot, different absolute index
  e.at(4).abs_index = 4;
  EXPECT_TRUE(e.holds(4));
  EXPECT_FALSE(e.holds(0));
}

TEST(SrsmtEntry, NegativeStrideAddressing) {
  Srsmt t = make_table();
  auto rel = [](uint32_t) {};
  SrsmtEntry& e = t.entry(t.alloc(0x1000, rel));
  e.stride = -16;
  e.base_addr = 0x100100;
  EXPECT_EQ(e.addr_of(0), 0x1000F0u);
  EXPECT_EQ(e.addr_of(1), 0x1000E0u);
}

TEST(SrsmtEntry, DeallocatableRule) {
  Srsmt t = make_table();
  auto rel = [](uint32_t) {};
  SrsmtEntry& e = t.entry(t.alloc(0x1000, rel));
  EXPECT_TRUE(e.deallocatable());
  e.decode_count = 2;
  e.commit_count = 1;
  EXPECT_FALSE(e.deallocatable());
  e.commit_count = 2;
  EXPECT_TRUE(e.deallocatable());
  e.issue_count = 1;
  EXPECT_FALSE(e.deallocatable());
}

TEST(Srsmt, LiveWalkVisitsValidSlotsInAscendingOrder) {
  Srsmt t(64, 4, 4);  // 256 slots: four mask words
  auto rel = [](uint32_t) {};
  std::vector<uint32_t> slots;
  for (const uint64_t pc : {0x3fcull, 0x0ull, 0x104ull, 0x4ull, 0x200ull}) {
    slots.push_back(t.alloc(pc, rel));
  }
  t.invalidate(slots[2]);
  std::vector<uint32_t> want;
  for (uint32_t s = 0; s < t.num_slots(); ++s) {
    if (t.entry(s).valid) want.push_back(s);
  }
  ASSERT_EQ(want.size(), size_t{4});
  std::vector<uint32_t> seen;
  t.for_each_live([&](uint32_t s) { seen.push_back(s); });
  EXPECT_EQ(seen, want);

  // A slot invalidated by an earlier visit is skipped, as a full-table
  // walk checking `valid` would skip it; the visited slot itself may go.
  seen.clear();
  t.for_each_live([&](uint32_t s) {
    seen.push_back(s);
    if (s == want[0]) {
      t.invalidate(s);
      t.invalidate(want[2]);
    }
  });
  EXPECT_EQ(seen, (std::vector<uint32_t>{want[0], want[1], want[3]}));

  // The load walk sees only live entries marked as loads, also ascending.
  t.mark_load(want[3]);
  t.mark_load(want[1]);
  EXPECT_TRUE(t.entry(want[1]).is_load);
  seen.clear();
  t.for_each_live_load([&](uint32_t s) { seen.push_back(s); });
  EXPECT_EQ(seen, (std::vector<uint32_t>{want[1], want[3]}));
  t.invalidate(want[1]);
  seen.clear();
  t.for_each_live_load([&](uint32_t s) { seen.push_back(s); });
  EXPECT_EQ(seen, (std::vector<uint32_t>{want[3]}));
}

TEST(RingMod, MatchesModuloForEveryReplicaCount) {
  std::vector<uint64_t> probes = {0, 1, 2, 3, 7, 8, 63, 64, 65,
                                  UINT32_MAX, uint64_t{UINT32_MAX} + 1,
                                  UINT64_MAX, UINT64_MAX - 1};
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 2000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    probes.push_back(x);
    probes.push_back(x >> (i % 64));
  }
  for (const uint32_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 12u, 16u, 255u,
                           1000u, UINT32_MAX}) {
    const RingMod mod(n);
    for (const uint64_t abs : probes) {
      for (const uint64_t v : {abs, abs - abs % n, abs - abs % n - 1}) {
        ASSERT_EQ(mod(v), v % n) << "n=" << n << " abs=" << v;
      }
    }
  }
}

TEST(Srsmt, StorageBudgetMatchesPaper) {
  Srsmt t(64, 4, 4);
  EXPECT_EQ(t.storage_bytes(), 11520u);  // section 3.1: 4*64*45
}

}  // namespace
}  // namespace cfir::ci
