#include "mem/cache.hpp"
#include "mem/hierarchy.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/warmable.hpp"

namespace cfir::mem {
namespace {

CacheConfig small_cache() {
  // 4 sets x 2 ways x 16-byte lines = 128 bytes.
  return CacheConfig{"test", 128, 2, 16, 1};
}

TEST(Cache, MissThenHit) {
  Cache c(small_cache());
  auto r1 = c.access(0x100, false, 0, 10);
  EXPECT_FALSE(r1.hit);
  EXPECT_EQ(r1.latency, 11u);  // hit latency + fill
  auto r2 = c.access(0x104, false, 20, 10);  // same line
  EXPECT_TRUE(r2.hit);
  EXPECT_EQ(r2.latency, 1u);
  EXPECT_EQ(c.stats().accesses, 2u);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, LruEviction) {
  Cache c(small_cache());
  // Three lines mapping to the same set (set stride = 4 lines * 16B = 64B).
  c.access(0x000, false, 0, 10);
  c.access(0x040, false, 1, 10);
  EXPECT_TRUE(c.probe(0x000));
  c.access(0x000, false, 2, 10);  // touch to make 0x40 the LRU
  c.access(0x080, false, 3, 10);  // evicts 0x40
  EXPECT_TRUE(c.probe(0x000));
  EXPECT_FALSE(c.probe(0x040));
  EXPECT_TRUE(c.probe(0x080));
}

TEST(Cache, WritebackOnDirtyEviction) {
  Cache c(small_cache());
  c.access(0x000, true, 0, 10);   // dirty
  c.access(0x040, false, 1, 10);
  c.access(0x080, false, 2, 10);  // evicts dirty 0x000
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, MshrMergeShortensLatency) {
  Cache c(small_cache());
  auto r1 = c.access(0x200, false, 0, 20);
  EXPECT_EQ(r1.latency, 21u);
  // The line was installed by the first access; a later access hits. Use a
  // different line in the same fill window to observe the merge path: merge
  // applies to the same line while the fill is outstanding, so force a miss
  // by evicting first. Simplest observable property: merges counter stays 0
  // for hits and the in-flight table bounds latency for repeated misses.
  Cache c2(small_cache());
  c2.access(0x200, false, 0, 20);
  // Same line, still missing in another set? Not possible once installed.
  // Verify the merge bookkeeping directly with an eviction dance:
  c2.access(0x240, false, 1, 20);
  c2.access(0x280, false, 2, 20);  // 0x200 evicted
  auto r3 = c2.access(0x200, false, 5, 20);  // fill from cycle 0 outstanding
  EXPECT_FALSE(r3.hit);
  EXPECT_EQ(c2.stats().mshr_merges, 1u);
  EXPECT_LT(r3.latency, 21u);  // merged into the outstanding fill
}

TEST(Cache, RemissAfterEvictionRecordsItsNewFillTime) {
  // One set of two 64-byte ways. A's first fill is long done when A is
  // evicted; its second miss starts a fresh fill, due at 60 + 11, and a
  // hit under that fill waits for it.
  Cache c(CacheConfig{"one-set", 128, 2, 64, 1});
  EXPECT_EQ(c.access(0x000, false, 0, 10).latency, 11u);  // A
  c.access(0x040, false, 20, 10);
  c.access(0x080, false, 30, 10);  // evicts A
  ASSERT_FALSE(c.probe(0x000));
  const Cache::Result again = c.access(0x000, false, 60, 10);
  EXPECT_FALSE(again.hit);
  EXPECT_EQ(again.latency, 11u);
  EXPECT_EQ(c.stats().mshr_merges, 0u);
  const Cache::Result under = c.access(0x008, false, 63, 10);
  EXPECT_TRUE(under.hit);
  EXPECT_EQ(under.latency, 8u);
}

TEST(Hierarchy, Table1Latencies) {
  CacheHierarchy h;  // Table 1 defaults
  // Cold access: L1 miss + L2 miss + L3 miss + memory.
  const uint32_t cold = h.access_data(0x100000, false, 0);
  EXPECT_EQ(cold, 1u + 6 + 18 + 100);
  // Warm: L1 hit.
  EXPECT_EQ(h.access_data(0x100000, false, 200), 1u);
  // L1 evict far later is hard to force here; probe L2 residency instead.
  EXPECT_TRUE(h.l2().probe(0x100000));
  EXPECT_TRUE(h.l3().probe(0x100000));
}

TEST(Hierarchy, L2HitAfterL1Conflict) {
  HierarchyConfig cfg;
  cfg.l1d = {"L1D", 64, 1, 32, 1};  // 2 sets, direct mapped: easy conflicts
  CacheHierarchy h(cfg);
  h.access_data(0x0, false, 0);
  h.access_data(0x40, false, 200);  // conflicts with 0x0 in L1, fills L2
  const uint32_t r = h.access_data(0x0, false, 400);  // L1 miss, L2 hit
  EXPECT_EQ(r, 1u + 6);
  EXPECT_EQ(h.l2().stats().hits, 1u);
}

TEST(Hierarchy, InstructionPathCountsSeparately) {
  CacheHierarchy h;
  h.access_inst(0x1000, 0);
  h.access_inst(0x1000, 10);
  EXPECT_EQ(h.l1i().stats().accesses, 2u);
  EXPECT_EQ(h.l1i().stats().hits, 1u);
  EXPECT_EQ(h.l1d().stats().accesses, 0u);
}

TEST(Hierarchy, ResetClearsState) {
  CacheHierarchy h;
  h.access_data(0x100, true, 0);
  h.reset();
  EXPECT_EQ(h.l1d().stats().accesses, 0u);
  EXPECT_FALSE(h.l1d().probe(0x100));
}

TEST(Cache, Table1Geometry) {
  // The Table 1 L1D: 64KB, 2-way, 32B lines -> 1024 sets.
  Cache l1d(CacheConfig{"L1D", 64 * 1024, 2, 32, 1});
  EXPECT_EQ(l1d.num_sets(), 1024u);
  Cache l2(CacheConfig{"L2", 256 * 1024, 4, 32, 6});
  EXPECT_EQ(l2.num_sets(), 2048u);
  Cache l3(CacheConfig{"L3", 2 * 1024 * 1024, 4, 64, 18});
  EXPECT_EQ(l3.num_sets(), 8192u);
}

// --- lazily built sets ---------------------------------------------------

std::vector<uint8_t> bytes_of(const Cache& c) {
  util::ByteWriter out;
  c.serialize(out);
  return out.take();
}

/// Drives `c` through misses, evictions, dirty hits and fills still in
/// flight at cycle `now` + 50 (latency 500 from the level below).
void exercise(Cache& c, uint64_t now) {
  for (uint64_t i = 0; i < 40; ++i) {
    const uint64_t addr = (i * 0x1230 + (i % 3) * 0x40) & 0xFFFF;
    c.access(addr, i % 4 == 0, now + i, 500);
    c.access(addr + 8, i % 5 == 0, now + i + 1, 500);
  }
}

/// The same accesses on both caches see the same hits and latencies.
void expect_same_next_accesses(Cache& a, Cache& b, uint64_t now) {
  for (uint64_t i = 0; i < 64; ++i) {
    const uint64_t addr = (i * 0x470 + (i % 7) * 0x10) & 0xFFFF;
    const Cache::Result ra = a.access(addr, i % 3 == 0, now + i, 90);
    const Cache::Result rb = b.access(addr, i % 3 == 0, now + i, 90);
    ASSERT_EQ(ra.hit, rb.hit) << "access " << i;
    ASSERT_EQ(ra.latency, rb.latency) << "access " << i;
  }
  EXPECT_EQ(bytes_of(a), bytes_of(b));
}

CacheConfig lazy_cache() {
  // 64 sets x 3 ways x 32-byte lines: a way count that is not a power of
  // two, and more sets than the accesses below bring to life.
  return CacheConfig{"lazy", 64 * 3 * 32, 3, 32, 2};
}

TEST(Cache, DeserializeOverAUsedCacheMatchesAFreshOne) {
  Cache warm(lazy_cache());
  for (uint64_t i = 0; i < 30; ++i) warm.warm_access(i * 0x2A0, i % 2 == 0);
  const std::vector<uint8_t> blob = bytes_of(warm);

  Cache used(lazy_cache());
  exercise(used, 1000);  // live sets, dirty lines, fills pending past 1050
  Cache fresh(lazy_cache());
  util::ByteReader in_used(blob);
  used.deserialize(in_used);
  util::ByteReader in_fresh(blob);
  fresh.deserialize(in_fresh);

  EXPECT_EQ(bytes_of(used), blob);
  EXPECT_EQ(bytes_of(fresh), blob);
  EXPECT_EQ(used.debug_digest(), fresh.debug_digest());
  EXPECT_EQ(used.debug_digest(), warm.debug_digest());
  expect_same_next_accesses(used, fresh, 1010);
}

TEST(Cache, CopiesEqualTheirSource) {
  const auto exercised = [] {
    Cache c(lazy_cache());
    exercise(c, 0);
    return c;
  };
  const Cache src = exercised();
  Cache copy(src);
  Cache assigned(lazy_cache());
  exercise(assigned, 7000);
  assigned = src;
  Cache resized(small_cache());  // another geometry: reallocated
  resized = src;
  for (Cache* c : {&copy, &assigned, &resized}) {
    EXPECT_EQ(c->num_sets(), src.num_sets());
    EXPECT_EQ(bytes_of(*c), bytes_of(src));
    EXPECT_EQ(c->debug_digest(), src.debug_digest());
    EXPECT_EQ(c->stats().accesses, src.stats().accesses);
    EXPECT_EQ(c->stats().writebacks, src.stats().writebacks);
    // In-flight fills are copied too: the next accesses time as they do
    // on a cache that went through the same accesses itself.
    Cache twin = exercised();
    expect_same_next_accesses(*c, twin, 20);
  }
}

TEST(Cache, DeadSetsReadAsInvalid) {
  Cache c(lazy_cache());
  EXPECT_EQ(c.find(0x40), -1);
  EXPECT_FALSE(c.probe(0x12340));
  const std::vector<uint8_t> bytes = bytes_of(c);
  util::ByteReader in(bytes);
  EXPECT_EQ(in.u32(), c.num_sets());
  EXPECT_EQ(in.u32(), 3u);
  EXPECT_EQ(in.u64(), 0u);  // use stamp
  EXPECT_EQ(in.u32(), 0u);  // no valid lines
  EXPECT_TRUE(in.done());
  // The first miss into a dead set fills its way 0, the victim an array
  // of invalid lines picks: line 2 lives in set 2, slot 2 * 3 + 0.
  c.access(0x40, true, 0, 10);
  EXPECT_EQ(c.find(0x40), 6);
}

}  // namespace
}  // namespace cfir::mem
