#include "isa/interpreter.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "isa/assembler.hpp"

namespace cfir::isa {
namespace {

TEST(Interpreter, SumLoop) {
  const Program p = assemble_text(R"(
    movi r1, 10
    movi r2, 0
  loop:
    add r2, r2, r1
    add r1, r1, -1
    bne r1, r3, loop
    halt
  )");
  const InterpResult r = run_program(p);
  EXPECT_TRUE(r.halted);
  EXPECT_EQ(r.regs[2], 55u);
  EXPECT_EQ(r.regs[1], 0u);
  EXPECT_EQ(r.executed, 2 + 3 * 10u);
}

TEST(Interpreter, Figure1HammockCounts) {
  // 512 words, ~50% zero: r2 non-zero count, r3 zero count, r4 sum.
  const Program p = cfir::testing::figure1_program(512, 50, 7);
  const InterpResult r = run_program(p);
  EXPECT_TRUE(r.halted);
  EXPECT_EQ(r.regs[2] + r.regs[3], 512u);
  EXPECT_GT(r.regs[3], 100u);  // plenty of zeros at p=0.5
  EXPECT_GT(r.regs[2], 100u);
  EXPECT_GT(r.regs[4], 0u);
}

TEST(Interpreter, MemoryRoundTrip) {
  Assembler as;
  const uint64_t buf = as.reserve("buf", 32);
  as.movi(1, static_cast<int64_t>(buf));
  as.movi(2, 0xDEAD);
  as.st(2, 1, 8, 8);
  as.ld(3, 1, 8, 8);
  as.st(2, 1, 16, 2);   // narrow store truncates
  as.ld(4, 1, 16, 2);
  as.ld(5, 1, 16, 1);
  as.halt();
  const InterpResult r = run_program(as.assemble());
  EXPECT_EQ(r.regs[3], 0xDEADu);
  EXPECT_EQ(r.regs[4], 0xDEADu);
  EXPECT_EQ(r.regs[5], 0xADu);
}

TEST(Interpreter, CallRet) {
  const Program p = assemble_text(R"(
    movi r1, 5
    call f
    add r3, r2, r2
    halt
  f:
    add r2, r1, r1
    ret
  )");
  const InterpResult r = run_program(p);
  EXPECT_EQ(r.regs[2], 10u);
  EXPECT_EQ(r.regs[3], 20u);
  EXPECT_TRUE(r.halted);
}

TEST(Interpreter, StopsWhenRunningOffImage) {
  Assembler as;
  as.movi(1, 1);
  as.movi(2, 2);  // no halt: falls off the end
  const InterpResult r = run_program(as.assemble());
  EXPECT_TRUE(r.halted);
  EXPECT_EQ(r.executed, 2u);
}

TEST(Interpreter, MaxInstsCap) {
  const Program p = assemble_text(R"(
    movi r1, 0
  loop:
    add r1, r1, 1
    jmp loop
  )");
  const InterpResult r = run_program(p, 101);
  EXPECT_FALSE(r.halted);
  EXPECT_EQ(r.executed, 101u);
  EXPECT_EQ(r.regs[1], 50u);  // 1 movi + 50 adds + 50 jmps
}

TEST(Interpreter, BranchObserver) {
  const Program p = cfir::testing::figure1_program(64, 50, 3);
  mem::MainMemory m;
  load_data_image(p, m);
  Interpreter in(p, m);
  uint64_t branches = 0, taken = 0;
  in.on_retire = [&](const StepEvent& ev) {
    if (ev.kind != EventKind::kBranch) return;
    ++branches;
    if (ev.taken) ++taken;
  };
  in.run();
  EXPECT_EQ(branches, 64u + 64u);  // hammock + loop-close per element
  EXPECT_GT(taken, 64u);           // loop branch taken 63 times + hammocks
}

TEST(Interpreter, MemObserver) {
  const Program p = cfir::testing::figure1_program(32, 0, 3);
  mem::MainMemory m;
  load_data_image(p, m);
  Interpreter in(p, m);
  uint64_t loads = 0;
  uint64_t last_addr = 0;
  int64_t stride = 0;
  in.on_retire = [&](const StepEvent& ev) {
    if (ev.kind != EventKind::kLoad && ev.kind != EventKind::kStore) return;
    EXPECT_EQ(ev.kind, EventKind::kLoad);
    EXPECT_EQ(ev.size, 8);
    if (loads > 0) stride = static_cast<int64_t>(ev.addr - last_addr);
    last_addr = ev.addr;
    ++loads;
  };
  in.run();
  EXPECT_EQ(loads, 32u);
  EXPECT_EQ(stride, 8);  // unit-strided walk
}

TEST(Interpreter, DeterministicDigest) {
  const Program p = cfir::testing::random_program(123);
  const InterpResult a = run_program(p, 200000);
  const InterpResult b = run_program(p, 200000);
  EXPECT_EQ(a.mem_digest, b.mem_digest);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.regs, b.regs);
}

}  // namespace
}  // namespace cfir::isa
