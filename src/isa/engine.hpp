// Superblock-caching functional engine (ROADMAP "Fast functional engine").
//
// Everything upstream of detailed simulation — trace capture, BBV
// collection, checkpoints and above all grid-shared functional warming —
// streams committed instructions through `FunctionalEngine`. The reference
// `Interpreter` (interpreter.hpp) pays, per instruction: an image bounds
// check (`Program::try_at`), a cold `switch` dispatch, an out-of-line
// `eval_alu`/`eval_branch` call, and three `std::function` observer checks.
// `FunctionalEngine` removes all four: each basic block is decoded ONCE
// into a flat cached array of pre-resolved micro-ops (operands, immediates
// and branch targets pre-extracted; handler selected at decode time),
// executed with computed-goto threaded dispatch, with direct block→block
// chaining for fall-through and taken edges so the entry-PC hash map is off
// the hot path after the first visit. The Interpreter stays as the oracle
// the engine is checked against (tests/test_engine_differential.cpp,
// sim::differential_run), not as a second path the pipeline runs on.
//
// Observer batching contract (see docs/functional-engine.md): instead of
// three per-instruction callbacks, the engine exposes ONE per-block sink,
// `on_block(entry_pc, events, n)`, invoked after each executed block slice
// with the retired-instruction events in program order. The event stream is
// bit-identical — instruction for instruction — to what the Interpreter's
// on_branch/on_mem/on_step observers assemble (the differential suite locks
// this in over adversarial random programs), so consumers pay per-block
// callback cost, not per-instruction virtual cost. A consumer that needs
// only where execution went — the BBV pass — sets the slice sink
// `on_slice(entry_pc, n, ends_in_cond_branch)` instead, which writes no
// events at all. With neither sink set, nothing is collected (the
// fast-forward / restore-skip path).
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

/// Retired-instruction event kind. Values intentionally mirror
/// trace::RecordKind so conversion is a cast, but isa stays independent of
/// the trace layer.
enum class EventKind : uint8_t {
  kPlain = 0,   ///< ALU / jumps / calls / rets
  kBranch = 1,  ///< conditional branch
  kLoad = 2,
  kStore = 3,
};

/// One retired instruction, as observed by a per-block sink. Field
/// semantics match the Interpreter observers: `next_pc` is the actual
/// successor of a conditional branch (kBranch only), `addr`/`size` the
/// access of a load/store.
struct StepEvent {
  uint64_t pc = 0;
  uint64_t next_pc = 0;  ///< kBranch only
  uint64_t addr = 0;     ///< kLoad/kStore only
  EventKind kind = EventKind::kPlain;
  bool taken = false;    ///< kBranch only
  uint8_t size = 0;      ///< kLoad/kStore only: access bytes (1/2/4/8)

  bool operator==(const StepEvent&) const = default;
};

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
  /// of that block (and delivers a partial event span), so callers can stop
  /// at arbitrary instruction counts.
  uint64_t run(uint64_t max_insts = UINT64_MAX);
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

  /// Per-block observer: invoked once per executed block slice with the
  /// retired events in program order. Null (the default) disables event
  /// collection — the pure-execution fast path. May be (re)set between
  /// run() calls at any instruction boundary.
  std::function<void(uint64_t entry_pc, const StepEvent* events, size_t n)>
      on_block;
  /// Slice observer: invoked once per executed block slice with its entry
  /// pc, its instruction count (>= 1) and whether its last instruction is
  /// a conditional branch (only the last can be). Writes no StepEvents.
  /// The slices are exactly those on_block would report, so a budget that
  /// expires inside a block reports the budgeted prefix. At most one of
  /// on_block and on_slice may be set when run() is called.
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

  /// What run() reports per executed block slice; bound once per run().
  enum class Report : uint8_t {
    kNone,    ///< nothing (no sink set)
    kEvents,  ///< on_block with the slice's StepEvents
    kSlices,  ///< on_slice with the slice's pc, length and last kind
  };

  /// Finds the cached block at `pc`, decoding it on a miss; -1 when `pc`
  /// is outside the image (execution halts there).
  int32_t lookup_or_decode(uint64_t pc);
  int32_t decode_block(uint64_t entry_pc);
  /// Executes up to `budget` micro-ops starting at block `bi_inout`,
  /// following already-filled chain edges from block to block without
  /// leaving the dispatch loop; reports each block slice per `R`. Returns
  /// why it stopped (HALT, budget, or a cold edge that needs a decode);
  /// `bi_inout` becomes the last block executed and `next_pc_out` the
  /// architectural successor PC.
  template <Report R>
  Exit exec_chain(int32_t& bi_inout, uint64_t budget, uint64_t& next_pc_out);
  template <Report R>
  uint64_t run_loop(uint64_t target);
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
  /// Per-slice event buffer. Fixed size (a block never exceeds
  /// kMaxBlockOps micro-ops, and each op emits at most one event) so the
  /// collect path appends through a raw cursor — no per-op capacity check.
  static constexpr uint32_t kMaxBlockOps = 256;
  std::array<StepEvent, kMaxBlockOps> events_;
  uint64_t blocks_entered_ = 0;
  uint64_t blocks_decoded_ = 0;
};

}  // namespace cfir::isa
