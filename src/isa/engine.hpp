// Superblock-caching functional engine (ROADMAP "Fast functional engine").
//
// Everything upstream of detailed simulation — trace capture, BBV
// collection, checkpoints and above all grid-shared functional warming —
// streams committed instructions through `FunctionalEngine`. The reference
// `Interpreter` (interpreter.hpp) pays, per instruction: an image bounds
// check (`Program::try_at`), a cold `switch` dispatch, an out-of-line
// `eval_alu`/`eval_branch` call, and a `std::function` observer check.
// `FunctionalEngine` removes all four: each basic block is decoded ONCE
// into a flat cached array of pre-resolved micro-ops (operands, immediates
// and branch targets pre-extracted; handler selected at decode time),
// executed with computed-goto threaded dispatch, with direct block→block
// chaining for fall-through and taken edges so the entry-PC hash map is off
// the hot path after the first visit. The Interpreter stays as the oracle
// the engine is checked against (tests/test_engine_differential.cpp,
// sim::differential_run), not as a second path the pipeline runs on.
//
// Event contract (see docs/functional-engine.md): `run_into(out, n)` runs
// like `run(n)` and writes one isa::StepEvent per retired instruction
// straight into the caller's buffer, in program order — no callback and
// no intermediate copy. The stream is bit-identical, instruction for
// instruction, to what the Interpreter's on_retire observer sees and to
// the detailed core's commit spans (the differential and observer suites
// lock this in). A consumer that needs only where execution went — the
// BBV pass — sets the slice sink `on_slice(entry_pc, n,
// ends_in_cond_branch)` and calls run(), which writes no events at all;
// run() with no sink set reports nothing (the fast-forward / restore-skip
// path).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "isa/interpreter.hpp"
#include "isa/program.hpp"
#include "mem/main_memory.hpp"

namespace cfir::isa {

/// Kept only because perfbench (frozen with the repo benchmark) names it in
/// `FunctionalEngine(program, memory, EngineKind::kCached)`. It has one
/// value, so it selects nothing; no other code passes it.
enum class EngineKind : uint8_t { kCached = 1 };

class FunctionalEngine {
 public:
  /// `memory` is used in place; apply the program's data image first.
  /// `program` and `memory` must outlive the engine. The unnamed third
  /// parameter exists for perfbench only (see EngineKind).
  FunctionalEngine(const Program& program, mem::MainMemory& memory,
                   EngineKind = EngineKind::kCached);

  /// Executes at most `max_insts` instructions; returns the number
  /// executed. Stops earlier at HALT or when the PC leaves the code image.
  /// A budget expiring inside a block executes exactly the budgeted prefix
  /// of that block, so callers can stop at arbitrary instruction counts.
  /// Reports each executed block slice to on_slice when it is set.
  uint64_t run(uint64_t max_insts = UINT64_MAX);
  /// run(max_insts), writing the StepEvent of each retired instruction to
  /// out[0, n) in program order, where n (<= max_insts) is the returned
  /// count: `out` must have room for max_insts events. Throws
  /// std::logic_error when on_slice is set (one report per run).
  uint64_t run_into(StepEvent* out, uint64_t max_insts);
  /// Runs forward to program-global instruction count `target` (no-op when
  /// already there or past — positions are monotonic).
  void run_to(uint64_t target) {
    if (target > executed_) run(target - executed_);
  }

  [[nodiscard]] bool halted() const { return halted_; }
  [[nodiscard]] uint64_t pc() const { return pc_; }
  /// Redirects execution (checkpoint restore); clears the halted flag.
  void set_pc(uint64_t pc) {
    pc_ = pc;
    halted_ = false;
  }
  /// Seeds the registers and pc before a run (resuming from a snapshot);
  /// clears the halted flag. executed() keeps counting from where it was.
  void set_arch_state(const std::array<uint64_t, kNumLogicalRegs>& regs,
                      uint64_t pc) {
    regs_ = regs;
    set_pc(pc);
  }
  [[nodiscard]] uint64_t executed() const { return executed_; }
  [[nodiscard]] uint64_t reg(int r) const {
    return regs_[static_cast<size_t>(r)];
  }
  [[nodiscard]] const std::array<uint64_t, kNumLogicalRegs>& regs() const {
    return regs_;
  }

  /// Slice observer: invoked by run() once per executed block slice with
  /// its entry pc, its instruction count (>= 1) and whether its last
  /// instruction is a conditional branch (only the last can be). Writes
  /// no StepEvents. A budget that expires inside a block reports the
  /// budgeted prefix. Null (the default) reports nothing; may be (re)set
  /// between calls at any instruction boundary.
  std::function<void(uint64_t entry_pc, uint32_t n, bool ends_in_cond_branch)>
      on_slice;

  // Block-cache telemetry (lifetime totals; also exported once per run()
  // to the obs registry as engine.blocks / engine.block_hit_rate).
  [[nodiscard]] uint64_t blocks_entered() const { return blocks_entered_; }
  [[nodiscard]] uint64_t blocks_decoded() const { return blocks_decoded_; }

 private:
  /// One pre-decoded micro-op. `op` selects the handler (decode-time
  /// resolution: the execution loop indexes a dispatch table with it);
  /// operands and immediate are pre-extracted, `bytes` pre-computes the
  /// access width for loads/stores.
  struct MicroOp {
    int64_t imm = 0;
    Opcode op = Opcode::kNop;
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    uint8_t bytes = 0;
  };

  /// One decoded basic block: a slice of the micro-op pool plus lazily
  /// filled chain edges to successor blocks (indices into blocks_, -1 =
  /// not chained yet). Blocks end at the first control transfer or HALT
  /// (inclusive), at the image edge, or at kMaxBlockOps.
  struct Block {
    uint64_t entry_pc = 0;
    uint32_t first = 0;      ///< pool_ index of the first micro-op
    uint32_t count = 0;      ///< micro-ops in the block (incl. terminator)
    int32_t fall_chain = -1;  ///< fall-through / not-taken successor
    int32_t taken_chain = -1; ///< taken / jmp / call target successor
    uint64_t ind_target = 0;  ///< 1-entry BTB for RET: last indirect target
    int32_t ind_chain = -1;   ///< block for ind_target (-1 = none cached)
  };

  /// How an executed block slice ended.
  enum class Exit : uint8_t {
    kFall,      ///< ran off the end (no terminator: cap / image edge)
    kNotTaken,  ///< conditional branch fell through
    kTaken,     ///< conditional branch / jmp / call went to the target
    kIndirect,  ///< ret: target from a register
    kHalt,
    kBudget,    ///< max_insts expired inside the block
  };

  /// What a run reports per executed block slice; bound once per call.
  enum class Report : uint8_t {
    kNone,    ///< nothing (run() with no sink set)
    kEvents,  ///< run_into: the slice's StepEvents into the caller's buffer
    kSlices,  ///< on_slice with the slice's pc, length and last kind
  };

  /// Finds the cached block at `pc`, decoding it on a miss; -1 when `pc`
  /// is outside the image (execution halts there).
  int32_t lookup_or_decode(uint64_t pc);
  int32_t decode_block(uint64_t entry_pc);
  /// Executes up to `budget` micro-ops starting at block `bi_inout`,
  /// following already-filled chain edges from block to block without
  /// leaving the dispatch loop; reports each block slice per `R` (kEvents:
  /// one event per retired instruction through `ev`, which has room for
  /// `budget`). Returns why it stopped (HALT, budget, or a cold edge that
  /// needs a decode); `bi_inout` becomes the last block executed and
  /// `next_pc_out` the architectural successor PC.
  template <Report R>
  Exit exec_chain(int32_t& bi_inout, uint64_t budget, uint64_t& next_pc_out,
                  StepEvent* ev);
  template <Report R>
  uint64_t run_loop(uint64_t target, StepEvent* out);
  /// run() and run_into(): the budget, the report and the telemetry.
  uint64_t run_reported(Report report, uint64_t max_insts, StepEvent* out);
  /// Load/store via the 1-entry page caches below — same result as
  /// mem_.read / mem_.write, minus the per-byte hash lookup.
  uint64_t load(uint64_t addr, uint32_t bytes);
  void store(uint64_t addr, uint64_t value, uint32_t bytes);

  const Program& program_;
  mem::MainMemory& mem_;
  std::array<uint64_t, kNumLogicalRegs> regs_{};
  uint64_t pc_;
  uint64_t executed_ = 0;
  bool halted_ = false;

  // Software mini-TLB: the last page touched by a load and by a store.
  // MainMemory pages are heap-allocated and never freed or moved, so a hit
  // needs no revalidation; absent pages are never cached (a later store
  // can materialize them).
  const uint8_t* ld_page_ = nullptr;
  uint64_t ld_page_no_ = 0;
  uint8_t* st_page_ = nullptr;
  uint64_t st_page_no_ = 0;

  std::vector<Block> blocks_;
  std::vector<MicroOp> pool_;
  std::unordered_map<uint64_t, int32_t> block_of_pc_;
  /// Decode stops after this many micro-ops even without a terminator, so
  /// one straight-line region cannot make an unbounded block (and so an
  /// unbounded slice).
  static constexpr uint32_t kMaxBlockOps = 256;
  uint64_t blocks_entered_ = 0;
  uint64_t blocks_decoded_ = 0;
};

}  // namespace cfir::isa
