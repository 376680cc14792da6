// Superblock-caching functional engine (ROADMAP "Fast functional engine").
//
// Everything upstream of detailed simulation — trace capture, replay
// verification, BBV collection and above all grid-shared functional warming
// — streams committed instructions through a functional core. The reference
// `Interpreter` (interpreter.hpp) pays, per instruction: an image bounds
// check (`Program::try_at`), a cold `switch` dispatch, an out-of-line
// `eval_alu`/`eval_branch` call, and three `std::function` observer checks.
// `FastEngine` removes all four: each basic block is decoded ONCE into a
// flat cached array of pre-resolved micro-ops (operands, immediates and
// branch targets pre-extracted; handler selected at decode time), executed
// with computed-goto threaded dispatch, with direct block→block chaining
// for fall-through and taken edges so the entry-PC hash map is off the hot
// path after the first visit.
//
// Observer batching contract (see docs/functional-engine.md): instead of
// three per-instruction callbacks, `FastEngine` exposes ONE per-block sink,
// `on_block(entry_pc, events, n)`, invoked after each executed block slice
// with the retired-instruction events in program order. The event stream is
// bit-identical — instruction for instruction — to what the Interpreter's
// on_branch/on_mem/on_step observers assemble (tests/
// test_engine_differential.cpp locks this in over adversarial random
// programs), so consumers pay per-block callback cost, not per-instruction
// virtual cost. A null sink disables event collection entirely (the
// fast-forward / restore-skip path).
//
// `FunctionalEngine` below is the uniform facade the pipeline uses: it runs
// on `FastEngine` when the `CFIR_ENGINE` knob selects `cached` (the
// default) and on the reference `Interpreter` under `switch` (kept as the
// bit-exact oracle), delivering the identical event stream either way.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "isa/interpreter.hpp"
#include "isa/program.hpp"
#include "mem/main_memory.hpp"

namespace cfir::isa {

/// Which functional core backs the pipeline's streaming passes.
enum class EngineKind : uint8_t {
  kSwitch = 0,  ///< reference Interpreter (per-instruction switch; oracle)
  kCached = 1,  ///< FastEngine (decode-once cached superblocks; default)
};

[[nodiscard]] const char* engine_kind_name(EngineKind kind);
/// Reads `CFIR_ENGINE` ("switch" | "cached"; unset/empty = cached). Throws
/// on typos so a misspelled knob fails loudly instead of silently running
/// the wrong engine.
[[nodiscard]] EngineKind engine_kind_from_env();

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

class FastEngine {
 public:
  /// `memory` is used in place; apply the program's data image first.
  /// `program` and `memory` must outlive the engine.
  FastEngine(const Program& program, mem::MainMemory& memory);

  /// Executes at most `max_insts` instructions; returns the number
  /// executed. Stops earlier at HALT or when the PC leaves the code image.
  /// A budget expiring inside a block executes exactly the budgeted prefix
  /// of that block (and delivers a partial event span), so callers can stop
  /// at arbitrary instruction counts.
  uint64_t run(uint64_t max_insts = UINT64_MAX);

  [[nodiscard]] bool halted() const { return halted_; }
  [[nodiscard]] uint64_t pc() const { return pc_; }
  /// Redirects execution (checkpoint restore); clears the halted flag.
  void set_pc(uint64_t pc) {
    pc_ = pc;
    halted_ = false;
  }
  [[nodiscard]] uint64_t executed() const { return executed_; }
  [[nodiscard]] uint64_t reg(int r) const {
    return regs_[static_cast<size_t>(r)];
  }
  void set_reg(int r, uint64_t v) { regs_[static_cast<size_t>(r)] = v; }
  [[nodiscard]] const std::array<uint64_t, kNumLogicalRegs>& regs() const {
    return regs_;
  }

  /// Per-block observer: invoked once per executed block slice with the
  /// retired events in program order. Null (the default) disables event
  /// collection — the pure-execution fast path. May be (re)set between
  /// run() calls at any instruction boundary.
  std::function<void(uint64_t entry_pc, const StepEvent* events, size_t n)>
      on_block;

  /// Invalidation hook for self-modifying / hot-swapped code images: bumps
  /// the decode epoch and drops every cached block (and chain edge). The
  /// next run() re-decodes from the live Program. Architectural state (pc,
  /// regs, executed) is untouched.
  void invalidate_code();
  /// Decode-epoch counter: starts at 0, +1 per invalidate_code().
  [[nodiscard]] uint64_t epoch() const { return epoch_; }

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

  /// Finds the cached block at `pc`, decoding it on a miss; -1 when `pc`
  /// is outside the image (execution halts there).
  int32_t lookup_or_decode(uint64_t pc);
  int32_t decode_block(uint64_t entry_pc);
  /// Executes up to `budget` micro-ops starting at block `bi_inout`,
  /// following already-filled chain edges from block to block without
  /// leaving the dispatch loop; delivers one on_block span per block when
  /// `Collect`. Returns why it stopped (HALT, budget, or a cold edge that
  /// needs a decode); `bi_inout` becomes the last block executed and
  /// `next_pc_out` the architectural successor PC.
  template <bool Collect>
  Exit exec_chain(int32_t& bi_inout, uint64_t budget, uint64_t& next_pc_out);
  template <bool Collect>
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
  uint64_t epoch_ = 0;
  uint64_t blocks_entered_ = 0;
  uint64_t blocks_decoded_ = 0;
};

/// Uniform functional-execution facade: the pipeline's streaming passes
/// (warming, trace record, BBV, checkpoint fast-forward) run on whichever
/// engine `kind` selects and receive the identical event stream through the
/// same per-block sink either way. `kSwitch` wires the sink to the
/// reference Interpreter's observers (spans of one); `kCached` passes
/// FastEngine's block spans through.
class FunctionalEngine {
 public:
  using Sink =
      std::function<void(uint64_t entry_pc, const StepEvent* events, size_t n)>;

  FunctionalEngine(const Program& program, mem::MainMemory& memory,
                   EngineKind kind = engine_kind_from_env());

  /// Installs (or clears, with {}) the per-block event sink. May be called
  /// between runs at any instruction boundary — e.g. fast-skip a restored
  /// prefix sink-less, then attach the sink and continue.
  void set_sink(Sink sink);

  /// Executes at most `max_insts` instructions; returns the number
  /// executed (see FastEngine::run for the stop conditions).
  uint64_t run(uint64_t max_insts = UINT64_MAX);
  /// Runs forward to program-global instruction count `target` (no-op when
  /// already there or past — positions are monotonic).
  void run_to(uint64_t target);

  [[nodiscard]] EngineKind kind() const { return kind_; }
  [[nodiscard]] bool halted() const;
  [[nodiscard]] uint64_t pc() const;
  [[nodiscard]] uint64_t executed() const;
  [[nodiscard]] const std::array<uint64_t, kNumLogicalRegs>& regs() const;

 private:
  EngineKind kind_;
  // Exactly one of the two is live, per kind_.
  std::unique_ptr<Interpreter> interp_;
  std::unique_ptr<FastEngine> fast_;
  Sink sink_;
  StepEvent pending_;  ///< switch path: event under construction
};

}  // namespace cfir::isa
