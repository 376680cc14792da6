#include "ci/reconvergence.hpp"

#include <gtest/gtest.h>

#include "isa/assembler.hpp"

namespace cfir::ci {
namespace {

TEST(ReconvergencePoint, BackwardBranchIsLoopClose) {
  isa::Assembler as;
  as.label("loop");
  as.addi(1, 1, 1);
  as.bne(1, 2, "loop");  // backward
  as.halt();
  const isa::Program p = as.assemble();
  const uint64_t branch_pc = p.pc_of(1);
  EXPECT_EQ(estimate_reconvergence_point(p, branch_pc, p.at(branch_pc)),
            branch_pc + isa::kInstBytes);
}

TEST(ReconvergencePoint, IfThenShape) {
  // Figure 2b: forward branch whose target is NOT preceded by a jmp.
  isa::Assembler as;
  as.beq(1, 2, "skip");   // if
  as.addi(3, 3, 1);       // then body
  as.addi(3, 3, 2);
  as.label("skip");       // re-convergent point == target
  as.halt();
  const isa::Program p = as.assemble();
  const uint64_t branch_pc = p.pc_of(0);
  EXPECT_EQ(estimate_reconvergence_point(p, branch_pc, p.at(branch_pc)),
            p.label("skip").value());
}

TEST(ReconvergencePoint, IfThenElseShape) {
  // Figure 2c: the instruction above the target is an unconditional
  // forward jump — re-converge where it lands.
  isa::Assembler as;
  as.beq(1, 2, "else_");
  as.addi(3, 3, 1);       // then
  as.jmp("join");
  as.label("else_");
  as.addi(3, 3, 2);       // else
  as.label("join");
  as.halt();
  const isa::Program p = as.assemble();
  const uint64_t branch_pc = p.pc_of(0);
  EXPECT_EQ(estimate_reconvergence_point(p, branch_pc, p.at(branch_pc)),
            p.label("join").value());
}

TEST(ReconvergencePoint, BackwardJmpAboveTargetIsNotElseShape) {
  // A backward jmp right above the target must not be mistaken for the
  // if-then-else closing jump.
  isa::Assembler as2;
  as2.beq(1, 2, "t");
  as2.label("top2");
  as2.addi(1, 1, 1);
  as2.jmp("top2");        // backward: not an else-join marker
  as2.label("t");
  as2.halt();
  const isa::Program p2 = as2.assemble();
  const uint64_t branch_pc = p2.pc_of(0);
  EXPECT_EQ(estimate_reconvergence_point(p2, branch_pc, p2.at(branch_pc)),
            p2.label("t").value());
}

TEST(Nrbq, MasksAccumulateUntilOwnRp) {
  Nrbq q(4);
  q.push(10, 0x100, 0x200);
  q.on_dest_write(3);
  q.push(20, 0x140, 0x240);
  q.on_dest_write(5);
  // Both branches are still short of their re-convergent points: the write
  // belongs to both regions.
  EXPECT_EQ(q.find(10)->mask, (uint64_t{1} << 3) | (uint64_t{1} << 5));
  EXPECT_EQ(q.find(20)->mask, uint64_t{1} << 5);
  // Branch 10 reaches its RP: its region is closed.
  q.observe_pc(0x200);
  q.on_dest_write(7);
  EXPECT_EQ(q.find(10)->mask, (uint64_t{1} << 3) | (uint64_t{1} << 5));
  EXPECT_EQ(q.find(20)->mask, (uint64_t{1} << 5) | (uint64_t{1} << 7));
  EXPECT_TRUE(q.find(10)->reached);
  EXPECT_FALSE(q.find(20)->reached);
}

TEST(Nrbq, MaskOfBranch) {
  Nrbq q(4);
  q.push(10, 0x100, 0x200);
  q.on_dest_write(1);
  q.push(20, 0x140, 0x240);
  q.on_dest_write(2);
  EXPECT_EQ(q.mask_of(20), uint64_t{1} << 2);
  EXPECT_EQ(q.mask_of(10), (uint64_t{1} << 1) | (uint64_t{1} << 2));
  EXPECT_EQ(q.mask_of(999), 0u);  // unknown branch
}

TEST(Nrbq, Figure1MaskSelectsI11) {
  // The paper's example: hammock branch I7 re-converges at I11. Writes on
  // the wrong path before the join (R3) taint; I11's own write of R4 after
  // the join must NOT taint, or I11 could never be selected.
  Nrbq q(4);
  q.push(7, 0x101C, /*rp=*/0x102C);
  q.on_dest_write(3);   // wrong-path INC R3
  q.observe_pc(0x102C); // fetch crosses the re-convergent point
  q.on_dest_write(4);   // I11 writes R4
  q.on_dest_write(1);   // I12 writes R1
  EXPECT_EQ(q.mask_of(7), uint64_t{1} << 3);
  // R4 and R0 are clean: I11 (ADD R4,R4,R0) passes the CRP filter.
  EXPECT_EQ(q.mask_of(7) & ((uint64_t{1} << 4) | (uint64_t{1} << 0)), 0u);
}

TEST(Nrbq, CommitAndSquashMaintainOrder) {
  Nrbq q(4);
  q.push(10, 0x100, 0x200);
  q.push(20, 0x140, 0x240);
  q.push(30, 0x180, 0x280);
  q.on_branch_squash(30);  // youngest squashed
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.find(30), nullptr);
  q.on_branch_commit(10);  // oldest retires
  EXPECT_EQ(q.size(), 1u);
  EXPECT_NE(q.find(20), nullptr);
}

TEST(Nrbq, OverflowEvictsOldest) {
  Nrbq q(2);
  q.push(10, 0x100, 0x200);
  q.push(20, 0x140, 0x240);
  q.push(30, 0x180, 0x280);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.find(10), nullptr);
  EXPECT_NE(q.find(30), nullptr);
}

TEST(Nrbq, WritesLandOnlyInTheRegionsOpenWhenTheyHappen) {
  Nrbq q(4);
  q.on_dest_write(5);  // no branch in flight: belongs to no region
  q.push(10, 0x100, 0x200);
  EXPECT_EQ(q.mask_of(10), 0u);
  // A PC 64 slots past the point shares its filter bit but is not the
  // point: the region stays open.
  q.observe_pc(0x200 + 64 * isa::kInstBytes);
  q.on_dest_write(3);
  EXPECT_FALSE(q.find(10)->reached);
  q.push(20, 0x140, 0x240);  // opens after the write of r3
  q.on_dest_write(6);
  q.observe_pc(0x200);  // closes branch 10's region only
  q.on_dest_write(4);
  EXPECT_TRUE(q.find(10)->reached);
  EXPECT_EQ(q.mask_of(10), (uint64_t{1} << 3) | (uint64_t{1} << 6));
  EXPECT_EQ(q.mask_of(20), (uint64_t{1} << 6) | (uint64_t{1} << 4));
  q.on_branch_squash(20);
  q.on_dest_write(7);
  EXPECT_EQ(q.mask_of(10), (uint64_t{1} << 3) | (uint64_t{1} << 6));
}

TEST(Nrbq, StorageBudgetMatchesPaper) {
  Nrbq q(16);
  EXPECT_EQ(q.storage_bytes(), 128u);  // section 3.1
  EXPECT_EQ(Crp::storage_bytes(), 16u);
}

}  // namespace
}  // namespace cfir::ci
