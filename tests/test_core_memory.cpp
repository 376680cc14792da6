#include <gtest/gtest.h>

#include "core/lsq.hpp"
#include "helpers.hpp"
#include "isa/assembler.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"

namespace cfir::core {
namespace {

LsqEntry mk(uint64_t seq, bool store, uint64_t addr, int size, uint64_t val) {
  LsqEntry e;
  e.seq = seq;
  e.is_store = store;
  e.addr = addr;
  e.size = size;
  e.value = val;
  e.addr_known = true;
  e.value_known = store;
  return e;
}

TEST(Lsq, PushPopCapacity) {
  LoadStoreQueue q(2);
  EXPECT_TRUE(q.push(mk(1, false, 0, 8, 0)));
  EXPECT_TRUE(q.push(mk(2, false, 8, 8, 0)));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push(mk(3, false, 16, 8, 0)));
  q.pop_front();
  EXPECT_FALSE(q.full());
}

TEST(Lsq, OlderStoreAddrGate) {
  LoadStoreQueue q(8);
  LsqEntry st = mk(1, true, 0x100, 8, 7);
  st.addr_known = false;
  q.push(st);
  q.push(mk(2, false, 0x200, 8, 0));
  EXPECT_FALSE(q.older_store_addrs_known(2));
  q.find(1)->addr_known = true;
  EXPECT_TRUE(q.older_store_addrs_known(2));
  // A store younger than the load does not gate it.
  EXPECT_TRUE(q.older_store_addrs_known(1));
}

TEST(Lsq, ForwardFullContainment) {
  LoadStoreQueue q(8);
  q.push(mk(1, true, 0x100, 8, 0x1122334455667788ULL));
  uint64_t v = 0;
  EXPECT_EQ(q.try_forward(2, 0x100, 8, v),
            LoadStoreQueue::ForwardResult::kForwarded);
  EXPECT_EQ(v, 0x1122334455667788ULL);
  // Contained narrow load: byte 2.
  EXPECT_EQ(q.try_forward(2, 0x102, 1, v),
            LoadStoreQueue::ForwardResult::kForwarded);
  EXPECT_EQ(v, 0x66u);
}

TEST(Lsq, ForwardYoungestOlderStoreWins) {
  LoadStoreQueue q(8);
  q.push(mk(1, true, 0x100, 8, 1));
  q.push(mk(2, true, 0x100, 8, 2));
  uint64_t v = 0;
  EXPECT_EQ(q.try_forward(3, 0x100, 8, v),
            LoadStoreQueue::ForwardResult::kForwarded);
  EXPECT_EQ(v, 2u);
}

TEST(Lsq, PartialOverlapConflicts) {
  LoadStoreQueue q(8);
  q.push(mk(1, true, 0x104, 4, 0xAABBCCDD));
  uint64_t v = 0;
  EXPECT_EQ(q.try_forward(2, 0x100, 8, v),
            LoadStoreQueue::ForwardResult::kConflict);
}

TEST(Lsq, UnknownStoreAddrConflicts) {
  LoadStoreQueue q(8);
  LsqEntry st = mk(1, true, 0, 8, 0);
  st.addr_known = false;
  q.push(st);
  uint64_t v = 0;
  EXPECT_EQ(q.try_forward(2, 0x500, 8, v),
            LoadStoreQueue::ForwardResult::kConflict);
}

TEST(Lsq, SquashYounger) {
  LoadStoreQueue q(8);
  q.push(mk(1, false, 0, 8, 0));
  q.push(mk(5, true, 8, 8, 0));
  q.push(mk(9, false, 16, 8, 0));
  q.squash_younger(5);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.back().seq, 5u);
}

TEST(MemoryStage, ForwardingHappensEndToEnd) {
  const isa::Program p = isa::assemble_text(R"(
    movi r1, 1048576
    movi r2, 77
    st8 r2, 0(r1)
    ld8 r3, 0(r1)
    halt
  )");
  sim::Simulator s(sim::presets::scal(1, 256), p);
  const auto st = s.run(100);
  EXPECT_EQ(s.arch_reg(3), 77u);
  EXPECT_GT(st.lsq_forwards, 0u);
}

TEST(MemoryStage, WideBusReducesAccesses) {
  // Dense unit-stride loads: a wide bus serves up to 4 per line access.
  const isa::Program p = cfir::testing::figure1_program(2048, 0, 1);
  sim::Simulator scal(sim::presets::scal(1, 256), p);
  sim::Simulator wb(sim::presets::wb(1, 256), p);
  const auto a = scal.run(1000000);
  const auto b = wb.run(1000000);
  EXPECT_LT(b.l1d_accesses, a.l1d_accesses);
  EXPECT_GT(b.loads_piggybacked, 0u);
  // And bandwidth relief shows up as cycles saved on one port.
  EXPECT_LE(b.cycles, a.cycles);
}

TEST(MemoryStage, TwoPortsBeatOnePort) {
  const isa::Program p = cfir::testing::figure1_program(2048, 0, 1);
  sim::Simulator one(sim::presets::scal(1, 256), p);
  sim::Simulator two(sim::presets::scal(2, 256), p);
  const auto a = one.run(1000000);
  const auto b = two.run(1000000);
  EXPECT_LE(b.cycles, a.cycles);
}

TEST(MemoryStage, StoreCommitWritesThroughCache) {
  const isa::Program p = isa::assemble_text(R"(
    movi r1, 1048576
    movi r2, 5
    st8 r2, 0(r1)
    halt
  )");
  sim::Simulator s(sim::presets::scal(1, 256), p);
  s.run(100);
  EXPECT_EQ(s.memory().read(1048576, 8), 5u);
  EXPECT_GE(s.core().hierarchy().l1d().stats().accesses, 1u);
}

}  // namespace
}  // namespace cfir::core
