// Shared test utilities: the paper's Figure 1 hammock as a runnable
// program, a structured random-program generator used by the
// differential property tests (every generated program terminates), a
// per-record functional-warming reference, and config-grid bindings.
#pragma once

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "isa/assembler.hpp"
#include "isa/engine.hpp"
#include "isa/program.hpp"
#include "mem/main_memory.hpp"
#include "stats/stats.hpp"
#include "trace/sampling.hpp"
#include "trace/warming.hpp"

namespace cfir::testing {

/// Trains `warmer` on `program`'s committed records from the warmer's
/// position up to instruction `n_insts` (or HALT), one on_record() call
/// per event of a fresh FunctionalEngine; the prefix the warmer already
/// holds is executed untrained. The independent per-record reference
/// that trace::capture_warm_states_grid's batched fan-out is checked
/// against.
inline void warm_on_engine(trace::FunctionalWarmer& warmer,
                           const isa::Program& program, uint64_t n_insts) {
  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  isa::FunctionalEngine engine(program, memory);
  engine.run_to(warmer.warmed());
  engine.on_block = [&](uint64_t, const isa::StepEvent* ev, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      warmer.on_record(trace::to_trace_record(ev[i]));
    }
  };
  engine.run_to(n_insts);
}

/// The (name, config) points of a grid as run_shard / write_manifest
/// bindings; run_shard captures their functional warm state itself.
inline std::vector<trace::ConfigBinding> bindings_of(
    const std::vector<std::pair<std::string, core::CoreConfig>>& points) {
  std::vector<trace::ConfigBinding> bindings;
  for (const auto& [name, config] : points) bindings.push_back({name, config});
  return bindings;
}

/// A SimStats block with every X-macro counter (and the two non-additive
/// fields) randomized — shared by the merge-algebra and blob round-trip
/// tests so the field coverage cannot drift between suites when SimStats
/// grows a field. `counter_cap` bounds the counters (keep it far below
/// 2^53 so merge_scaled's double round trip stays exact).
inline stats::SimStats random_sim_stats(std::mt19937_64& gen,
                                        uint64_t counter_cap = 1000000) {
  stats::SimStats s;
#define X(field) s.field = gen() % counter_cap;
  CFIR_SIMSTATS_COUNTERS(X)
#undef X
  s.halted = (gen() & 1) != 0;
  s.regs_in_use_max = gen() % 512;
  return s;
}

/// The code of Figure 1, scaled: walks `n` words, counts zeros/non-zeros
/// and accumulates the sum. `p_zero_percent` controls branch difficulty.
/// Register map: r2 = non-zero count, r3 = zero count, r4 = sum.
inline isa::Program figure1_program(size_t n = 512, int p_zero_percent = 50,
                                    uint64_t seed = 42) {
  isa::Assembler as;
  std::mt19937_64 gen(seed);
  std::bernoulli_distribution zero(p_zero_percent / 100.0);
  const uint64_t a = as.reserve("a", n * 8);
  for (size_t i = 0; i < n; ++i) {
    as.init_word(a + 8 * i, zero(gen) ? 0 : 1 + gen() % 100);
  }
  const int rIdx = 1, rCnt = 2, rZero = 3, rSum = 4, rV = 0;
  const int rBase = 5, rEnd = 6, rZ = 7;
  as.movi(rIdx, 0);
  as.movi(rCnt, 0);
  as.movi(rZero, 0);
  as.movi(rSum, 0);
  as.movi(rBase, static_cast<int64_t>(a));
  as.movi(rEnd, static_cast<int64_t>(n * 8));
  as.movi(rZ, 0);
  as.label("loop");
  as.add(rV, rBase, rIdx);
  as.ld(rV, rV, 0, 8);        // I5: strided load
  as.beq(rV, rZ, "else_");    // I6/I7: hard hammock
  as.addi(rCnt, rCnt, 1);     // I8: then
  as.jmp("ip");               // I9
  as.label("else_");
  as.addi(rZero, rZero, 1);   // I10: else
  as.label("ip");             // I11: re-convergent point
  as.add(rSum, rSum, rV);     // control independent, strided-fed
  as.addi(rIdx, rIdx, 8);     // I12
  as.blt(rIdx, rEnd, "loop"); // I13/I14
  as.halt();
  return as.assemble();
}

/// Structured random programs: register arithmetic, hammocks, counted
/// loops, and masked memory traffic into a private scratch region. Always
/// terminates (loops have fixed trip counts; only structured control flow).
inline isa::Program random_program(uint64_t seed) {
  isa::Assembler as;
  std::mt19937_64 gen(seed);
  auto pick = [&](int lo, int hi) {
    return static_cast<int>(lo + gen() % static_cast<uint64_t>(hi - lo + 1));
  };
  const uint64_t scratch = as.reserve("scratch", 4096);
  for (int i = 0; i < 32; ++i) {
    as.init_word(scratch + 8 * static_cast<uint64_t>(i), gen());
  }
  // r1..r12 general, r13 scratch base, r14 loop counters, r15 temp.
  for (int r = 1; r <= 12; ++r) {
    as.movi(r, static_cast<int64_t>(gen() % 100000));
  }
  as.movi(13, static_cast<int64_t>(scratch));
  int label_id = 0;
  auto fresh = [&](const char* p) {
    return std::string(p) + std::to_string(label_id++);
  };

  auto emit_arith = [&] {
    const int rd = pick(1, 12), ra = pick(1, 12), rb = pick(1, 12);
    switch (pick(0, 9)) {
      case 0: as.add(rd, ra, rb); break;
      case 1: as.sub(rd, ra, rb); break;
      case 2: as.mul(rd, ra, rb); break;
      case 3: as.div(rd, ra, rb); break;
      case 4: as.xor_(rd, ra, rb); break;
      case 5: as.and_(rd, ra, rb); break;
      case 6: as.or_(rd, ra, rb); break;
      case 7: as.slt(rd, ra, rb); break;
      case 8: as.addi(rd, ra, pick(-64, 64)); break;
      default: as.shli(rd, ra, pick(0, 7)); break;
    }
  };
  auto emit_mem = [&] {
    const int ra = pick(1, 12);
    as.andi(15, ra, 4088);  // mask into the scratch region, 8-aligned
    as.add(15, 15, 13);
    if (gen() & 1) {
      as.ld(pick(1, 12), 15, 0, 8);
    } else {
      as.st(pick(1, 12), 15, 0, 8);
    }
  };
  auto emit_hammock = [&] {
    const std::string els = fresh("h_else"), join = fresh("h_join");
    const int ra = pick(1, 12), rb = pick(1, 12);
    as.br(gen() & 1 ? isa::Opcode::kBlt : isa::Opcode::kBeq, ra, rb, els);
    emit_arith();
    if (gen() & 1) emit_arith();
    as.jmp(join);
    as.label(els);
    emit_arith();
    as.label(join);
    emit_arith();
  };

  const int blocks = pick(4, 10);
  for (int b = 0; b < blocks; ++b) {
    switch (pick(0, 3)) {
      case 0:
        for (int i = pick(1, 4); i > 0; --i) emit_arith();
        break;
      case 1:
        emit_mem();
        break;
      case 2:
        emit_hammock();
        break;
      default: {
        // Counted loop with a small body.
        const std::string head = fresh("loop");
        const int trips = pick(3, 40);
        as.movi(14, trips);
        as.movi(15, 0);
        as.label(head);
        emit_arith();
        if (gen() & 1) emit_mem();
        if (gen() & 1) emit_hammock();
        as.addi(14, 14, -1);
        as.movi(15, 0);
        as.bne(14, 15, head);
        break;
      }
    }
  }
  as.halt();
  return as.assemble();
}

}  // namespace cfir::testing
