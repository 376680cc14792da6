// Differential fuzz harness for the superblock-caching functional engine
// (docs/functional-engine.md): the reference Interpreter is the oracle, and
// FunctionalEngine must match it bit for bit — final architectural state
// (pc, executed, halted, registers, memory digest) AND the ordered
// retired-event stream (branch outcomes/targets, load/store
// addresses/sizes) — over hundreds of adversarial random programs plus
// hand-built block-boundary edge cases. Warming digests, trace bytes and
// sampled stats are all derived from this stream, so stream equality here
// is what makes the engine safe everywhere else. The slice report
// (on_slice) must equal the slices derived from the engine's own event
// spans and, split per instruction, the Interpreter's stream, over the
// same programs, at budgets that end inside blocks and across the 256-op
// block cap.
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "isa/assembler.hpp"
#include "isa/engine.hpp"
#include "isa/interpreter.hpp"
#include "mem/main_memory.hpp"

namespace cfir {
namespace {

using isa::EventKind;
using isa::StepEvent;

struct RunTrace {
  uint64_t executed = 0;
  bool halted = false;
  uint64_t pc = 0;
  std::array<uint64_t, isa::kNumLogicalRegs> regs{};
  uint64_t mem_digest = 0;
  std::vector<StepEvent> events;
};

/// Runs `program` on the reference Interpreter, assembling the event stream
/// from the three per-instruction observers exactly as the trace recorder
/// does.
RunTrace run_interpreter(const isa::Program& program,
                         uint64_t max_insts = UINT64_MAX) {
  RunTrace out;
  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  isa::Interpreter interp(program, memory);
  StepEvent pending;
  interp.on_branch = [&](uint64_t, bool taken, uint64_t target) {
    pending.kind = EventKind::kBranch;
    pending.taken = taken;
    pending.next_pc = target;
  };
  interp.on_mem = [&](uint64_t, uint64_t addr, int bytes, bool is_store) {
    pending.kind = is_store ? EventKind::kStore : EventKind::kLoad;
    pending.addr = addr;
    pending.size = static_cast<uint8_t>(bytes);
  };
  interp.on_step = [&](uint64_t pc, uint64_t) {
    pending.pc = pc;
    out.events.push_back(pending);
    pending = StepEvent{};
  };
  interp.run(max_insts);
  out.executed = interp.executed();
  out.halted = interp.halted();
  out.pc = interp.pc();
  out.regs = interp.regs();
  out.mem_digest = memory.digest();
  return out;
}

/// Runs `program` on FunctionalEngine, collecting the per-block event
/// spans.
RunTrace run_engine(const isa::Program& program,
                    uint64_t max_insts = UINT64_MAX) {
  RunTrace out;
  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  isa::FunctionalEngine engine(program, memory);
  engine.on_block = [&](uint64_t, const StepEvent* ev, size_t n) {
    out.events.insert(out.events.end(), ev, ev + n);
  };
  engine.run(max_insts);
  out.executed = engine.executed();
  out.halted = engine.halted();
  out.pc = engine.pc();
  out.regs = engine.regs();
  out.mem_digest = memory.digest();
  return out;
}

void expect_identical(const RunTrace& ref, const RunTrace& fast,
                      const std::string& what) {
  EXPECT_EQ(ref.executed, fast.executed) << what;
  EXPECT_EQ(ref.halted, fast.halted) << what;
  EXPECT_EQ(ref.pc, fast.pc) << what;
  EXPECT_EQ(ref.mem_digest, fast.mem_digest) << what;
  for (int r = 0; r < isa::kNumLogicalRegs; ++r) {
    ASSERT_EQ(ref.regs[static_cast<size_t>(r)],
              fast.regs[static_cast<size_t>(r)])
        << what << ": register r" << r;
  }
  ASSERT_EQ(ref.events.size(), fast.events.size()) << what;
  for (size_t i = 0; i < ref.events.size(); ++i) {
    const StepEvent& a = ref.events[i];
    const StepEvent& b = fast.events[i];
    ASSERT_TRUE(a == b) << what << ": event " << i << " differs (ref pc=0x"
                        << std::hex << a.pc << " kind="
                        << static_cast<int>(a.kind) << ", fast pc=0x" << b.pc
                        << " kind=" << static_cast<int>(b.kind) << std::dec
                        << ")";
  }
}

void expect_program_identical(const isa::Program& program,
                              const std::string& what,
                              uint64_t max_insts = UINT64_MAX) {
  expect_identical(run_interpreter(program, max_insts),
                   run_engine(program, max_insts), what);
}

/// Call/ret-heavy generator complementing testing::random_program: a set of
/// leaf/branchy subroutines invoked from a main sequence (and one level of
/// nesting), exercising the link register, RET's indirect targets, and
/// call/ret block chaining. Always terminates.
isa::Program random_call_program(uint64_t seed) {
  isa::Assembler as;
  std::mt19937_64 gen(seed);
  auto pick = [&](int lo, int hi) {
    return static_cast<int>(lo + gen() % static_cast<uint64_t>(hi - lo + 1));
  };
  const uint64_t scratch = as.reserve("scratch", 4096);
  for (int i = 0; i < 16; ++i) {
    as.init_word(scratch + 8 * static_cast<uint64_t>(i), gen());
  }
  for (int r = 1; r <= 10; ++r) {
    as.movi(r, static_cast<int64_t>(gen() % 1000));
  }
  as.movi(13, static_cast<int64_t>(scratch));

  const int n_subs = pick(2, 4);
  // Main: a short counted loop of calls, then fall into the halt. The
  // subroutine bodies live after the halt so they only run when called.
  const int calls = pick(3, 8);
  for (int c = 0; c < calls; ++c) {
    as.call("sub" + std::to_string(pick(0, n_subs - 1)));
    const int rd = pick(1, 10);
    as.addi(rd, rd, pick(-8, 8));
  }
  as.halt();

  // r12 saves the link register across the nested call in sub0.
  for (int s = 0; s < n_subs; ++s) {
    as.label("sub" + std::to_string(s));
    const int body = pick(1, 4);
    for (int i = 0; i < body; ++i) {
      const int rd = pick(1, 10), ra = pick(1, 10), rb = pick(1, 10);
      switch (pick(0, 3)) {
        case 0: as.add(rd, ra, rb); break;
        case 1: as.mul(rd, ra, rb); break;
        case 2:
          as.andi(15, ra, 4088);
          as.add(15, 15, 13);
          as.ld(rd, 15, 0, 8);
          break;
        default: {
          const std::string skip =
              "s" + std::to_string(s) + "_" + std::to_string(i);
          as.beq(ra, rb, skip);
          as.sub(rd, ra, rb);
          as.label(skip);
          break;
        }
      }
    }
    if (s == 0 && n_subs > 1) {
      // One level of nesting: save/restore the link register around it.
      as.mov(12, isa::kLinkReg);
      as.call("sub" + std::to_string(n_subs - 1));
      as.mov(isa::kLinkReg, 12);
    }
    as.ret();
  }
  return as.assemble();
}

// --- differential fuzz over random programs -------------------------------

TEST(EngineDifferential, RandomProgramsFullRun) {
  for (uint64_t seed = 0; seed < 140; ++seed) {
    expect_program_identical(testing::random_program(seed),
                             "random_program seed " + std::to_string(seed));
  }
}

TEST(EngineDifferential, RandomCallProgramsFullRun) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    expect_program_identical(
        random_call_program(seed),
        "random_call_program seed " + std::to_string(seed));
  }
}

TEST(EngineDifferential, Figure1AcrossBranchDifficulty) {
  for (const int p : {0, 25, 50, 75, 100}) {
    expect_program_identical(testing::figure1_program(256, p, 7),
                             "figure1 p_zero=" + std::to_string(p));
  }
}

// max_insts expiring at arbitrary points — including inside a block — must
// leave identical state and an identical event prefix.
TEST(EngineDifferential, BudgetExpiresInsideBlocks) {
  const isa::Program program = testing::random_program(99);
  const uint64_t full = run_interpreter(program).executed;
  ASSERT_GT(full, 16u);
  for (const uint64_t cap :
       {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{7}, uint64_t{13},
        full / 2, full - 1, full, full + 100}) {
    expect_program_identical(program, "cap " + std::to_string(cap), cap);
  }
}

TEST(EngineDifferential, ResumeAfterBudgetMatchesStraightRun) {
  const isa::Program program = testing::random_program(3);
  const RunTrace straight = run_engine(program);
  // Same program run in many small installments on one engine.
  RunTrace chunked;
  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  isa::FunctionalEngine engine(program, memory);
  engine.on_block = [&](uint64_t, const StepEvent* ev, size_t n) {
    chunked.events.insert(chunked.events.end(), ev, ev + n);
  };
  while (engine.run(17) > 0) {
  }
  chunked.executed = engine.executed();
  chunked.halted = engine.halted();
  chunked.pc = engine.pc();
  chunked.regs = engine.regs();
  chunked.mem_digest = memory.digest();
  expect_identical(straight, chunked, "17-instruction installments");
}

// --- hand-built block-boundary edge cases ---------------------------------

// A one-instruction block whose branch targets itself.
TEST(EngineDifferential, SelfLoop) {
  isa::Assembler as;
  as.movi(1, 5);
  as.movi(2, 0);
  as.label("spin");
  as.addi(1, 1, -1);
  as.bne(1, 2, "spin");
  as.halt();
  expect_program_identical(as.assemble(), "self-loop");
}

// Branching into the middle of an already-decoded block must create a
// second block keyed at that entry PC with identical semantics.
TEST(EngineDifferential, BranchIntoBlockMiddle) {
  // First pass enters at "entry" (mid-region); the loop back through
  // "head" then decodes the full region from its true start, overlapping
  // the earlier block. The r2 flip makes the second beq fall through.
  isa::Assembler as;
  as.movi(1, 0);
  as.movi(2, 1);
  as.movi(3, 1);
  as.jmp("entry");
  as.label("head");
  as.addi(1, 1, 10);
  as.movi(2, 0);       // second pass: beq falls through to halt
  as.label("entry");   // first entry lands mid-region
  as.addi(1, 1, 1);
  as.addi(1, 1, 2);
  as.beq(2, 3, "head");
  as.halt();
  expect_program_identical(as.assemble(), "branch into block middle");
}

// HALT in the middle of a straight-line region: the fall-through of the
// preceding block runs into a block that halts immediately; the halt must
// not retire or emit an event.
TEST(EngineDifferential, HaltMidStraightLine) {
  isa::Assembler as;
  as.movi(1, 1);
  as.addi(1, 1, 1);
  as.halt();
  as.addi(1, 1, 100);  // dead code after the halt
  as.halt();
  expect_program_identical(as.assemble(), "halt mid straight line");
}

// Conditional branch whose taken target is the halt: taken/not-taken edges
// chain to different blocks.
TEST(EngineDifferential, BothBranchArms) {
  for (const int64_t a : {int64_t{0}, int64_t{1}}) {
    isa::Assembler as;
    as.movi(1, a);
    as.movi(2, 0);
    as.beq(1, 2, "done");
    as.addi(3, 3, 7);
    as.label("done");
    as.halt();
    expect_program_identical(as.assemble(),
                             "branch arm a=" + std::to_string(a));
  }
}

// Running off the end of the code image (no halt) must halt both engines at
// the same pc with the same count.
TEST(EngineDifferential, RunsOffImageEdge) {
  isa::Assembler as;
  as.movi(1, 42);
  as.addi(1, 1, 1);  // no halt: execution falls off the image
  expect_program_identical(as.assemble(), "image edge");
}

// RET to a garbage address: the indirect target leaves the image.
TEST(EngineDifferential, RetToInvalidPc) {
  isa::Assembler as;
  as.movi(isa::kLinkReg, 0x12345);  // unaligned garbage
  as.ret();
  as.halt();
  expect_program_identical(as.assemble(), "ret to invalid pc");
}

// --- engine-specific behaviour --------------------------------------------

TEST(FunctionalEngine, SetPcRedirectsAndClearsHalt) {
  isa::Assembler as;
  as.label("a");
  as.movi(1, 1);
  as.halt();
  as.label("b");
  as.movi(1, 2);
  as.halt();
  const isa::Program program = as.assemble();

  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  isa::FunctionalEngine engine(program, memory);
  engine.run();
  EXPECT_TRUE(engine.halted());
  EXPECT_EQ(engine.reg(1), 1u);
  engine.set_pc(program.base() + 2 * isa::kInstBytes);  // label b
  EXPECT_FALSE(engine.halted());
  engine.run();
  EXPECT_TRUE(engine.halted());
  EXPECT_EQ(engine.reg(1), 2u);
}

TEST(FunctionalEngine, BlockCacheHitsDominateOnLoops) {
  const isa::Program program = testing::figure1_program(512);
  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  isa::FunctionalEngine engine(program, memory);
  engine.run();
  EXPECT_TRUE(engine.halted());
  // The figure-1 loop re-enters the same few blocks hundreds of times.
  EXPECT_LT(engine.blocks_decoded() * 10, engine.blocks_entered());
}

TEST(FunctionalEngine, NullSinkCollectsNothingButExecutes) {
  const isa::Program program = testing::random_program(11);
  const RunTrace ref = run_interpreter(program);
  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  isa::FunctionalEngine engine(program, memory);
  engine.run();  // no on_block
  EXPECT_EQ(engine.executed(), ref.executed);
  EXPECT_EQ(engine.regs(), ref.regs);
  EXPECT_EQ(memory.digest(), ref.mem_digest);
}

// --- slice report ---------------------------------------------------------

struct Slice {
  uint64_t pc = 0;
  uint32_t n = 0;
  bool ends_in_cond_branch = false;
  bool operator==(const Slice&) const = default;
};

struct SliceRun {
  std::vector<Slice> slices;
  uint64_t executed = 0;
  uint64_t pc = 0;
  std::array<uint64_t, isa::kNumLogicalRegs> regs{};
  uint64_t mem_digest = 0;
  bool operator==(const SliceRun&) const = default;
};

/// Runs `program` on the engine in installments of `chunk` instructions,
/// reading the block slices from the slice sink or, with `from_events`,
/// deriving them from the event sink's spans (entry pc, span length,
/// whether the last event is kBranch).
SliceRun run_slices(const isa::Program& program, uint64_t chunk,
                    bool from_events) {
  SliceRun out;
  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  isa::FunctionalEngine engine(program, memory);
  if (from_events) {
    engine.on_block = [&](uint64_t pc, const StepEvent* ev, size_t n) {
      out.slices.push_back({pc, static_cast<uint32_t>(n),
                            ev[n - 1].kind == EventKind::kBranch});
    };
  } else {
    engine.on_slice = [&](uint64_t pc, uint32_t n, bool branch) {
      out.slices.push_back({pc, n, branch});
    };
  }
  while (engine.run(chunk) > 0) {
  }
  out.executed = engine.executed();
  out.pc = engine.pc();
  out.regs = engine.regs();
  out.mem_digest = memory.digest();
  return out;
}

/// `slices` split into one-instruction slices: a slice runs consecutive
/// PCs, and only its last instruction can be a conditional branch.
std::vector<Slice> per_instruction(const std::vector<Slice>& slices) {
  std::vector<Slice> out;
  for (const Slice& s : slices) {
    for (uint32_t i = 0; i < s.n; ++i) {
      out.push_back({s.pc + i * isa::kInstBytes, 1,
                     i + 1 == s.n && s.ends_in_cond_branch});
    }
  }
  return out;
}

/// A counted loop whose straight-line body (300 ops) is longer than the
/// engine's 256-op block cap.
isa::Program over_block_cap_program() {
  isa::Assembler as;
  as.movi(1, 0);
  as.movi(2, 5);
  as.label("loop");
  for (int i = 0; i < 300; ++i) as.addi(3 + i % 4, 3 + i % 4, i);
  as.addi(1, 1, 1);
  as.blt(1, 2, "loop");
  as.halt();
  return as.assemble();
}

TEST(SliceReport, MatchesEventSpansOnBothEngines) {
  std::vector<std::pair<std::string, isa::Program>> programs;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    programs.emplace_back("random " + std::to_string(seed),
                          testing::random_program(seed));
  }
  for (uint64_t seed = 0; seed < 20; ++seed) {
    programs.emplace_back("call " + std::to_string(seed),
                          random_call_program(seed));
  }
  programs.emplace_back("over block cap", over_block_cap_program());
  bool cut_by_cap = false;
  for (const auto& [name, program] : programs) {
    // The reference Interpreter's stream, one instruction per slice.
    std::vector<Slice> oracle;
    for (const StepEvent& ev : run_interpreter(program).events) {
      oracle.push_back({ev.pc, 1, ev.kind == EventKind::kBranch});
    }
    // Whole runs, and installments that end inside blocks.
    for (const uint64_t chunk : {UINT64_MAX, uint64_t{17}, uint64_t{1}}) {
      const SliceRun slices = run_slices(program, chunk, false);
      ASSERT_EQ(slices, run_slices(program, chunk, true))
          << name << " chunk " << chunk;
      ASSERT_EQ(per_instruction(slices.slices), oracle)
          << name << " chunk " << chunk;
      uint64_t total = 0;
      for (const Slice& s : slices.slices) {
        total += s.n;
        cut_by_cap = cut_by_cap || s.n == 256;
      }
      EXPECT_EQ(total, slices.executed) << name;
    }
  }
  EXPECT_TRUE(cut_by_cap) << "no slice reached the 256-op block cap";
}

TEST(SliceReport, RejectsBothSinks) {
  const isa::Program program = testing::random_program(5);
  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  isa::FunctionalEngine engine(program, memory);
  engine.on_block = [](uint64_t, const StepEvent*, size_t) {};
  engine.on_slice = [](uint64_t, uint32_t, bool) {};
  EXPECT_THROW(engine.run(), std::logic_error);
}

TEST(FunctionalEngine, SetArchStateResumesFromASnapshot) {
  const isa::Program program = random_call_program(4);
  const RunTrace straight = run_interpreter(program);
  ASSERT_GT(straight.executed, 20u);
  for (const uint64_t at : {uint64_t{0}, uint64_t{7}, straight.executed / 2}) {
    mem::MainMemory memory;
    isa::load_data_image(program, memory);
    isa::FunctionalEngine first(program, memory);
    first.run(at);
    mem::MainMemory copy = memory.clone();
    isa::FunctionalEngine resumed(program, copy);
    resumed.set_arch_state(first.regs(), first.pc());
    resumed.run();
    const std::string what = "from " + std::to_string(at);
    EXPECT_EQ(at + resumed.executed(), straight.executed) << what;
    EXPECT_TRUE(resumed.halted()) << what;
    EXPECT_EQ(resumed.pc(), straight.pc) << what;
    EXPECT_EQ(resumed.regs(), straight.regs) << what;
    EXPECT_EQ(copy.digest(), straight.mem_digest) << what;
  }
}

TEST(FunctionalEngine, RunToIsMonotonic) {
  const isa::Program program = testing::figure1_program(256);
  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  isa::FunctionalEngine engine(program, memory);
  engine.run_to(50);
  EXPECT_EQ(engine.executed(), 50u);
  engine.run_to(30);  // no-op: positions are monotonic
  EXPECT_EQ(engine.executed(), 50u);
  engine.run_to(80);
  EXPECT_EQ(engine.executed(), 80u);
}

}  // namespace
}  // namespace cfir
