#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/calendar.hpp"
#include "core/pipeline.hpp"
#include "helpers.hpp"
#include "isa/assembler.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"

namespace cfir::core {
namespace {

sim::Simulator make_sim(const isa::Program& p, const CoreConfig& cfg) {
  return sim::Simulator(cfg, p);
}

TEST(Calendar, DrainsEachCycleInPushOrderAcrossTheHorizon) {
  struct Ev {
    uint64_t when;
    int id;
  };
  Calendar<Ev> cal;
  const uint64_t far = 10 + Calendar<Ev>::kBuckets;  // shares 10's bucket
  cal.push({far, 0}, 0);  // beyond the horizon
  cal.push({10, 1}, 0);
  cal.push({10, 2}, 0);
  std::vector<std::pair<uint64_t, int>> seen;
  for (uint64_t now = 0; now <= far + 1; ++now) {
    cal.drain(now, [&](std::vector<Ev>& due) {
      for (const Ev& e : due) seen.emplace_back(now, e.id);
    });
    // After its cycle drained, an event due now reopens the cycle and
    // completes at the next drain, ahead of that cycle's own events.
    if (now == 20) {
      cal.push({21, 3}, now);
      cal.push({20, 4}, now);
    }
    if (now == far - 1) cal.push({far, 5}, now);  // after far moved in
  }
  const std::vector<std::pair<uint64_t, int>> want = {
      {10, 1}, {10, 2}, {21, 4}, {21, 3}, {far, 0}, {far, 5}};
  EXPECT_EQ(seen, want);
}

TEST(CoreBasic, StraightLineArithmetic) {
  const isa::Program p = isa::assemble_text(R"(
    movi r1, 6
    movi r2, 7
    mul r3, r1, r2
    add r4, r3, r3
    halt
  )");
  sim::Simulator s = make_sim(p, sim::presets::scal(1, 256));
  const auto st = s.run(1000);
  EXPECT_TRUE(st.halted);
  EXPECT_EQ(st.committed, 4u);  // halt itself is not counted as committed?
  EXPECT_EQ(s.arch_reg(3), 42u);
  EXPECT_EQ(s.arch_reg(4), 84u);
}

TEST(CoreBasic, HaltCountsOnceAndStops) {
  const isa::Program p = isa::assemble_text("movi r1, 1\nhalt\nmovi r1, 9\n");
  sim::Simulator s = make_sim(p, sim::presets::scal(1, 256));
  const auto st = s.run(1000);
  EXPECT_TRUE(st.halted);
  EXPECT_EQ(s.arch_reg(1), 1u);  // instruction after halt never commits
}

TEST(CoreBasic, LoopIpcReasonable) {
  const isa::Program p = cfir::testing::figure1_program(256, 0, 1);
  sim::Simulator s = make_sim(p, sim::presets::scal(1, 256));
  const auto st = s.run(100000);
  EXPECT_TRUE(st.halted);
  EXPECT_GT(st.ipc(), 0.5);
  EXPECT_LT(st.ipc(), 8.0);
  EXPECT_GT(st.cycles, 0u);
}

TEST(CoreBasic, BranchStatsTracked) {
  // All-zero data: the hammock is perfectly biased, few mispredictions.
  const isa::Program p = cfir::testing::figure1_program(512, 100, 1);
  sim::Simulator s = make_sim(p, sim::presets::scal(1, 256));
  const auto st = s.run(100000);
  EXPECT_EQ(st.cond_branches, 512u + 512u);
  EXPECT_LT(st.mispredict_rate(), 0.1);
}

TEST(CoreBasic, HardHammockMispredicts) {
  const isa::Program p = cfir::testing::figure1_program(512, 50, 99);
  sim::Simulator s = make_sim(p, sim::presets::scal(1, 256));
  const auto st = s.run(100000);
  // Random 50/50 data: a large fraction of hammock branches mispredict and
  // wrong-path work is fetched then squashed.
  EXPECT_GT(st.mispredicts, 100u);
  EXPECT_GT(st.squashed, st.mispredicts);
}

TEST(CoreBasic, WrongPathRunOffImageRecovers) {
  // The hammock's wrong path runs into HALT; recovery must unwedge fetch.
  const isa::Program p = isa::assemble_text(R"(
    movi r1, 1
    movi r2, 0
    beq r1, r2, dead
    movi r3, 7
    halt
  dead:
    movi r3, 9
    halt
  )");
  sim::Simulator s = make_sim(p, sim::presets::scal(1, 256));
  const auto st = s.run(1000);
  EXPECT_TRUE(st.halted);
  EXPECT_EQ(s.arch_reg(3), 7u);
}

TEST(CoreBasic, SmallRegisterFileLimitsWindow) {
  const isa::Program p = cfir::testing::figure1_program(512, 50, 5);
  sim::Simulator s128 = make_sim(p, sim::presets::scal(1, 128));
  sim::Simulator s256 = make_sim(p, sim::presets::scal(1, 256));
  const auto a = s128.run(1000000);
  const auto b = s256.run(1000000);
  // 128 physical registers leave only ~64 renames in flight; rename stalls
  // must appear and IPC must not exceed the 256-register machine.
  EXPECT_GT(a.rename_stall_cycles, 0u);
  EXPECT_LE(a.ipc(), b.ipc() + 0.05);
}

TEST(CoreBasic, CommitNeverExceedsCap) {
  const isa::Program p = cfir::testing::figure1_program(4096, 50, 5);
  sim::Simulator s = make_sim(p, sim::presets::scal(1, 256));
  const auto st = s.run(5000);
  EXPECT_EQ(st.committed, 5000u);
  EXPECT_FALSE(st.halted);
}

TEST(CoreBasic, TooFewPhysRegsRejected) {
  const isa::Program p = isa::assemble_text("halt\n");
  CoreConfig cfg = sim::presets::scal(1, 256);
  cfg.num_phys_regs = 64;  // must exceed logical count + margin
  EXPECT_THROW(sim::Simulator(cfg, p), std::runtime_error);
}

TEST(CoreBasic, CallRetThroughRas) {
  const isa::Program p = isa::assemble_text(R"(
    movi r1, 3
    movi r5, 0
  loop:
    call f
    add r1, r1, -1
    movi r6, 0
    bne r1, r6, loop
    halt
  f:
    add r5, r5, r1
    ret
  )");
  sim::Simulator s = make_sim(p, sim::presets::scal(1, 256));
  const auto st = s.run(10000);
  EXPECT_TRUE(st.halted);
  EXPECT_EQ(s.arch_reg(5), 6u);  // 3 + 2 + 1
}

TEST(CoreBasic, RegisterOccupancySampled) {
  const isa::Program p = cfir::testing::figure1_program(1024, 50, 5);
  sim::Simulator s = make_sim(p, sim::presets::scal(1, 512));
  const auto st = s.run(100000);
  EXPECT_GT(st.reg_samples, 0u);
  EXPECT_GE(st.avg_regs_in_use(), 64.0);  // at least the architectural map
  EXPECT_LE(st.regs_in_use_max, 512u);
}

}  // namespace
}  // namespace cfir::core
