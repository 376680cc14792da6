#include "isa/engine.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

// Threaded (computed-goto) dispatch uses the GNU "labels as values"
// extension, which both toolchains this repo builds with (GCC, Clang)
// provide.

namespace cfir::isa {

// Decode stops after kMaxBlockOps micro-ops (the events_ buffer size) even
// without a terminator, so one pathological straight-line region cannot
// produce an unbounded block (the fall-through edge chains the pieces back
// together at full speed).

FunctionalEngine::FunctionalEngine(const Program& program,
                                   mem::MainMemory& memory, EngineKind)
    : program_(program), mem_(memory), pc_(program.base()) {}

int32_t FunctionalEngine::decode_block(uint64_t entry_pc) {
  const uint32_t first = static_cast<uint32_t>(pool_.size());
  uint64_t pc = entry_pc;
  uint32_t count = 0;
  while (count < kMaxBlockOps) {
    const Instruction* inst = program_.try_at(pc);
    if (inst == nullptr) break;  // image edge: the fall-through halts
    MicroOp u;
    u.imm = inst->imm;
    u.op = inst->op;
    u.rd = inst->rd;
    u.rs1 = inst->rs1;
    u.rs2 = inst->rs2;
    u.bytes = static_cast<uint8_t>(mem_bytes(inst->op));
    pool_.push_back(u);
    ++count;
    // Any control transfer (cond branch, jmp, call, ret) or HALT terminates
    // the block; everything before it is straight-line by construction.
    if (is_branch(inst->op) || inst->op == Opcode::kHalt) break;
    pc += kInstBytes;
  }
  if (count == 0) {
    pool_.resize(first);
    return -1;  // entry outside the image (or unaligned)
  }
  Block b;
  b.entry_pc = entry_pc;
  b.first = first;
  b.count = count;
  blocks_.push_back(b);
  ++blocks_decoded_;
  return static_cast<int32_t>(blocks_.size() - 1);
}

int32_t FunctionalEngine::lookup_or_decode(uint64_t pc) {
  const auto it = block_of_pc_.find(pc);
  if (it != block_of_pc_.end()) return it->second;
  const int32_t bi = decode_block(pc);
  block_of_pc_.emplace(pc, bi);  // negative results cached too
  return bi;
}

inline uint64_t FunctionalEngine::load(uint64_t addr, uint32_t bytes) {
  const uint64_t off = addr & (mem::MainMemory::kPageSize - 1);
  if (off + bytes <= mem::MainMemory::kPageSize) {
    const uint64_t no = addr >> mem::MainMemory::kPageBits;
    const uint8_t* p;
    if (st_page_ != nullptr && st_page_no_ == no) {
      p = st_page_;  // freshest view of a page we also write
    } else if (ld_page_ != nullptr && ld_page_no_ == no) {
      p = ld_page_;
    } else {
      p = mem_.page_data(addr);
      if (p == nullptr) return 0;  // absent page reads as zero; not cached
      ld_page_ = p;
      ld_page_no_ = no;
    }
    uint64_t v = 0;
    for (uint32_t i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(p[off + i]) << (8 * i);
    }
    return v;
  }
  return mem_.read(addr, static_cast<int>(bytes));  // page-crossing access
}

inline void FunctionalEngine::store(uint64_t addr, uint64_t value,
                                    uint32_t bytes) {
  const uint64_t off = addr & (mem::MainMemory::kPageSize - 1);
  if (off + bytes <= mem::MainMemory::kPageSize) {
    const uint64_t no = addr >> mem::MainMemory::kPageBits;
    if (st_page_ == nullptr || st_page_no_ != no) {
      st_page_ = mem_.mutable_page_data(addr);
      st_page_no_ = no;
    }
    for (uint32_t i = 0; i < bytes; ++i) {
      st_page_[off + i] = static_cast<uint8_t>(value >> (8 * i));
    }
    return;
  }
  mem_.write(addr, value, static_cast<int>(bytes));  // page-crossing access
}

template <FunctionalEngine::Report R>
FunctionalEngine::Exit FunctionalEngine::exec_chain(int32_t& bi_inout,
                                                    uint64_t budget,
                                                    uint64_t& next_pc_out) {
  // Only the event report writes StepEvents and tracks the per-op pc.
  constexpr bool kCollect = R == Report::kEvents;
  int32_t bi = bi_inout;
  uint64_t remaining = budget;  // > 0: run_loop never calls with 0 left
  uint64_t* const regs = regs_.data();
  const Block* blk;
  const MicroOp* begin;
  const MicroOp* u;
  const MicroOp* end;
  uint64_t pc;
  uint64_t nxt;
  uint32_t slice;
  bool truncated;
  bool btaken;
  // Raw append cursor into the fixed events_ buffer (a slice never exceeds
  // kMaxBlockOps ops and each op emits at most one event).
  StepEvent* ev = events_.data();

  // Hot path: handlers at block exits follow already-filled chain edges by
  // jumping straight back to enter_block — control returns to run_loop
  // only on HALT, budget expiry, or a cold edge that needs a decode.
enter_block:
  ++blocks_entered_;
  blk = &blocks_[static_cast<size_t>(bi)];
  slice = blk->count;
  truncated = remaining < slice;
  if (truncated) {
    // max_insts expires inside this block: execute exactly the budgeted
    // prefix (the terminator is the last op, so it is never reached).
    slice = static_cast<uint32_t>(remaining);
  }
  begin = pool_.data() + blk->first;
  u = begin;
  end = begin + slice;
  pc = blk->entry_pc;
  if constexpr (kCollect) ev = events_.data();

#define CFIR_EMIT_PLAIN()                                                    \
  do {                                                                       \
    if constexpr (kCollect) {                                                \
      *ev++ = StepEvent{pc, 0, 0, EventKind::kPlain, false, 0};              \
    }                                                                        \
  } while (0)

  // Handler addresses indexed by Opcode value — decode-time handler
  // selection, threaded per-op dispatch (each handler jumps straight to the
  // next op's handler; no central loop branch).
  static const void* const kL[] = {
      &&h_nop,  &&h_halt, &&h_add,  &&h_sub,  &&h_mul,  &&h_div,  &&h_rem,
      &&h_and,  &&h_or,   &&h_xor,  &&h_shl,  &&h_shr,  &&h_sar,  &&h_slt,
      &&h_sltu, &&h_seq,  &&h_min,  &&h_max,  &&h_addi, &&h_muli, &&h_andi,
      &&h_ori,  &&h_xori, &&h_shli, &&h_shrli, &&h_movi, &&h_mov, &&h_ld,
      &&h_ld,   &&h_ld,   &&h_ld,   &&h_st,   &&h_st,   &&h_st,   &&h_st,
      &&h_beq,  &&h_bne,  &&h_blt,  &&h_bge,  &&h_bltu, &&h_bgeu, &&h_jmp,
      &&h_call, &&h_ret,
  };
  static_assert(sizeof(kL) / sizeof(kL[0]) ==
                static_cast<size_t>(Opcode::kOpcodeCount));

// Without event collection nothing reads `pc` mid-block, so the per-op
// increment is compiled out and block-exit handlers recompute it from the
// micro-op index instead (CFIR_CUR_PC).
#define CFIR_ADVANCE()                                                       \
  do {                                                                       \
    if (++u == end) goto fall_out;                                           \
    if constexpr (kCollect) pc += kInstBytes;                                \
    goto* kL[static_cast<size_t>(u->op)];                                    \
  } while (0)
#define CFIR_CUR_PC()                                                        \
  (kCollect ? pc                                                             \
            : blk->entry_pc + static_cast<uint64_t>(u - begin) * kInstBytes)
#define CFIR_NEXT()                                                          \
  do {                                                                       \
    CFIR_EMIT_PLAIN();                                                       \
    CFIR_ADVANCE();                                                          \
  } while (0)

  goto* kL[static_cast<size_t>(u->op)];

h_nop:
  CFIR_NEXT();
h_add:
  regs[u->rd] = regs[u->rs1] + regs[u->rs2];
  CFIR_NEXT();
h_sub:
  regs[u->rd] = regs[u->rs1] - regs[u->rs2];
  CFIR_NEXT();
h_mul:
  regs[u->rd] = regs[u->rs1] * regs[u->rs2];
  CFIR_NEXT();
h_div: {
  // Same semantics as eval_alu: /0 -> 0, INT64_MIN / -1 defined as
  // unsigned negation (no signed-overflow UB).
  const uint64_t a = regs[u->rs1], b = regs[u->rs2];
  regs[u->rd] = b == 0 ? 0
                : static_cast<int64_t>(b) == -1
                    ? uint64_t{0} - a
                    : static_cast<uint64_t>(static_cast<int64_t>(a) /
                                            static_cast<int64_t>(b));
  CFIR_NEXT();
}
h_rem: {
  const uint64_t a = regs[u->rs1], b = regs[u->rs2];
  regs[u->rd] = b == 0 ? a
                : static_cast<int64_t>(b) == -1
                    ? 0
                    : static_cast<uint64_t>(static_cast<int64_t>(a) %
                                            static_cast<int64_t>(b));
  CFIR_NEXT();
}
h_and:
  regs[u->rd] = regs[u->rs1] & regs[u->rs2];
  CFIR_NEXT();
h_or:
  regs[u->rd] = regs[u->rs1] | regs[u->rs2];
  CFIR_NEXT();
h_xor:
  regs[u->rd] = regs[u->rs1] ^ regs[u->rs2];
  CFIR_NEXT();
h_shl:
  regs[u->rd] = regs[u->rs1] << (regs[u->rs2] & 63);
  CFIR_NEXT();
h_shr:
  regs[u->rd] = regs[u->rs1] >> (regs[u->rs2] & 63);
  CFIR_NEXT();
h_sar:
  regs[u->rd] = static_cast<uint64_t>(static_cast<int64_t>(regs[u->rs1]) >>
                                      (regs[u->rs2] & 63));
  CFIR_NEXT();
h_slt:
  regs[u->rd] = static_cast<int64_t>(regs[u->rs1]) <
                        static_cast<int64_t>(regs[u->rs2])
                    ? 1
                    : 0;
  CFIR_NEXT();
h_sltu:
  regs[u->rd] = regs[u->rs1] < regs[u->rs2] ? 1 : 0;
  CFIR_NEXT();
h_seq:
  regs[u->rd] = regs[u->rs1] == regs[u->rs2] ? 1 : 0;
  CFIR_NEXT();
h_min: {
  const auto a = static_cast<int64_t>(regs[u->rs1]);
  const auto b = static_cast<int64_t>(regs[u->rs2]);
  regs[u->rd] = static_cast<uint64_t>(a < b ? a : b);
  CFIR_NEXT();
}
h_max: {
  const auto a = static_cast<int64_t>(regs[u->rs1]);
  const auto b = static_cast<int64_t>(regs[u->rs2]);
  regs[u->rd] = static_cast<uint64_t>(a > b ? a : b);
  CFIR_NEXT();
}
h_addi:
  regs[u->rd] = regs[u->rs1] + static_cast<uint64_t>(u->imm);
  CFIR_NEXT();
h_muli:
  regs[u->rd] = regs[u->rs1] * static_cast<uint64_t>(u->imm);
  CFIR_NEXT();
h_andi:
  regs[u->rd] = regs[u->rs1] & static_cast<uint64_t>(u->imm);
  CFIR_NEXT();
h_ori:
  regs[u->rd] = regs[u->rs1] | static_cast<uint64_t>(u->imm);
  CFIR_NEXT();
h_xori:
  regs[u->rd] = regs[u->rs1] ^ static_cast<uint64_t>(u->imm);
  CFIR_NEXT();
h_shli:
  regs[u->rd] = regs[u->rs1] << (u->imm & 63);
  CFIR_NEXT();
h_shrli:
  regs[u->rd] = regs[u->rs1] >> (u->imm & 63);
  CFIR_NEXT();
h_movi:
  regs[u->rd] = static_cast<uint64_t>(u->imm);
  CFIR_NEXT();
h_mov:
  regs[u->rd] = regs[u->rs1];
  CFIR_NEXT();
h_ld: {
  const uint64_t addr = regs[u->rs1] + static_cast<uint64_t>(u->imm);
  regs[u->rd] = load(addr, u->bytes);
  if constexpr (kCollect) {
    *ev++ = StepEvent{pc, 0, addr, EventKind::kLoad, false, u->bytes};
  }
  CFIR_ADVANCE();
}
h_st: {
  const uint64_t addr = regs[u->rs1] + static_cast<uint64_t>(u->imm);
  store(addr, regs[u->rs2], u->bytes);
  if constexpr (kCollect) {
    *ev++ = StepEvent{pc, 0, addr, EventKind::kStore, false, u->bytes};
  }
  CFIR_ADVANCE();
}
h_beq:
  btaken = regs[u->rs1] == regs[u->rs2];
  goto do_branch;
h_bne:
  btaken = regs[u->rs1] != regs[u->rs2];
  goto do_branch;
h_blt:
  btaken = static_cast<int64_t>(regs[u->rs1]) <
           static_cast<int64_t>(regs[u->rs2]);
  goto do_branch;
h_bge:
  btaken = static_cast<int64_t>(regs[u->rs1]) >=
           static_cast<int64_t>(regs[u->rs2]);
  goto do_branch;
h_bltu:
  btaken = regs[u->rs1] < regs[u->rs2];
  goto do_branch;
h_bgeu:
  btaken = regs[u->rs1] >= regs[u->rs2];
  goto do_branch;
do_branch: {
  nxt = btaken ? static_cast<uint64_t>(u->imm) : CFIR_CUR_PC() + kInstBytes;
  if constexpr (kCollect) {
    *ev++ = StepEvent{pc, nxt, 0, EventKind::kBranch, btaken, 0};
  }
  ++u;
  if (btaken) goto exit_taken;
  goto exit_fall;
}
h_jmp:
  nxt = static_cast<uint64_t>(u->imm);
  CFIR_EMIT_PLAIN();
  ++u;
  goto exit_taken;
h_call:
  regs[kLinkReg] = CFIR_CUR_PC() + kInstBytes;
  nxt = static_cast<uint64_t>(u->imm);
  CFIR_EMIT_PLAIN();
  ++u;
  goto exit_taken;
h_ret:
  nxt = regs[u->rs1];
  CFIR_EMIT_PLAIN();
  ++u;
  goto exit_indirect;
h_halt:
  // HALT neither retires nor emits an event (interpreter parity): u stays
  // on the halt op so it is not counted as consumed.
  nxt = CFIR_CUR_PC();
  goto exit_halt;

#undef CFIR_ADVANCE
#undef CFIR_NEXT
#undef CFIR_CUR_PC

// Block-exit bookkeeping shared by every edge: retire the consumed slice
// and report it (its event span, or its pc, length and last kind) before
// chaining or returning. A slice's last consumed op is its only possible
// conditional branch; HALT is never consumed.
#define CFIR_BLOCK_DONE()                                                    \
  do {                                                                       \
    const uint64_t consumed = static_cast<uint64_t>(u - begin);              \
    executed_ += consumed;                                                   \
    remaining -= consumed;                                                   \
    if constexpr (kCollect) {                                                \
      if (ev != events_.data()) {                                            \
        on_block(blk->entry_pc, events_.data(),                              \
                 static_cast<size_t>(ev - events_.data()));                  \
      }                                                                      \
    } else if constexpr (R == Report::kSlices) {                             \
      if (consumed != 0) {                                                   \
        on_slice(blk->entry_pc, static_cast<uint32_t>(consumed),             \
                 is_cond_branch(u[-1].op));                                  \
      }                                                                      \
    }                                                                        \
  } while (0)

fall_out:
  // Ran off the end: budget cut, decode cap, or image edge. The successor
  // is the next sequential slot; computed from the micro-op index because
  // the no-collect path does not maintain `pc`.
  nxt = blk->entry_pc + static_cast<uint64_t>(u - begin) * kInstBytes;
  if (truncated) goto exit_budget;
  goto exit_fall;

exit_taken:
  CFIR_BLOCK_DONE();
  if (blk->taken_chain >= 0 && remaining > 0) {
    bi = blk->taken_chain;
    goto enter_block;
  }
  bi_inout = bi;
  next_pc_out = nxt;
  return remaining == 0 ? Exit::kBudget : Exit::kTaken;

exit_fall:
  CFIR_BLOCK_DONE();
  if (blk->fall_chain >= 0 && remaining > 0) {
    bi = blk->fall_chain;
    goto enter_block;
  }
  bi_inout = bi;
  next_pc_out = nxt;
  return remaining == 0 ? Exit::kBudget : Exit::kFall;

exit_indirect:
  CFIR_BLOCK_DONE();
  // 1-entry BTB: the chain is only valid for the target it was filled for
  // (RET returns to whichever call site is live).
  if (blk->ind_chain >= 0 && blk->ind_target == nxt && remaining > 0) {
    bi = blk->ind_chain;
    goto enter_block;
  }
  bi_inout = bi;
  next_pc_out = nxt;
  return remaining == 0 ? Exit::kBudget : Exit::kIndirect;

exit_halt:
  CFIR_BLOCK_DONE();
  bi_inout = bi;
  next_pc_out = nxt;
  return Exit::kHalt;

exit_budget:
  CFIR_BLOCK_DONE();  // consumed == remaining, so remaining is now 0
  bi_inout = bi;
  next_pc_out = nxt;
  return Exit::kBudget;

#undef CFIR_EMIT_PLAIN
#undef CFIR_BLOCK_DONE
}

// flatten pulls exec_chain into the loop body (each instantiation has
// exactly one call site). The loop here only sees cold events — a chain
// edge that needs its first decode, budget expiry, HALT, or the PC leaving
// the image; hot chained edges never leave exec_chain.
template <FunctionalEngine::Report R>
__attribute__((flatten))
uint64_t FunctionalEngine::run_loop(uint64_t target) {
  const uint64_t start = executed_;
  int32_t bi = lookup_or_decode(pc_);
  while (executed_ < target) {
    if (bi < 0) {
      halted_ = true;  // PC left the code image; pc_ stays on the bad slot
      break;
    }
    uint64_t next_pc = 0;
    const Exit ex = exec_chain<R>(bi, target - executed_, next_pc);
    pc_ = next_pc;
    if (ex == Exit::kHalt) {
      halted_ = true;
      break;
    }
    if (ex == Exit::kBudget) break;  // target reached exactly
    // Cold edge: block `bi` exited on `ex` with no chain filled. Decode the
    // successor and fill the slot — written through blocks_[...] because
    // the decode may reallocate blocks_.
    const int32_t nxt = lookup_or_decode(next_pc);
    switch (ex) {
      case Exit::kTaken:
        blocks_[static_cast<size_t>(bi)].taken_chain = nxt;
        break;
      case Exit::kIndirect:
        blocks_[static_cast<size_t>(bi)].ind_chain = nxt;
        blocks_[static_cast<size_t>(bi)].ind_target = next_pc;
        break;
      default:  // kFall (fall-through and not-taken branches)
        blocks_[static_cast<size_t>(bi)].fall_chain = nxt;
        break;
    }
    bi = nxt;
  }
  return executed_ - start;
}

uint64_t FunctionalEngine::run(uint64_t max_insts) {
  if (halted_ || max_insts == 0) return 0;
  const uint64_t start = executed_;
  // Saturating target: max_insts == UINT64_MAX means "to HALT".
  const uint64_t target =
      max_insts > UINT64_MAX - start ? UINT64_MAX : start + max_insts;
  const obs::Stopwatch clock;
  const uint64_t blocks_before = blocks_entered_;
  // The report is bound once per run, never checked per instruction.
  if (on_block && on_slice) {
    throw std::logic_error("FunctionalEngine: on_block and on_slice both set");
  }
  const uint64_t ran = on_block   ? run_loop<Report::kEvents>(target)
                       : on_slice ? run_loop<Report::kSlices>(target)
                                  : run_loop<Report::kNone>(target);
  if (ran > 0) {
    // Telemetry once per run() call (interpreter convention): functional
    // instructions land in the shared interp.insts counter, plus the
    // block-cache effectiveness pair documented in docs/observability.md.
    obs::Registry& reg = obs::Registry::instance();
    reg.counter("interp.insts").add(ran);
    reg.counter("engine.blocks").add(blocks_entered_ - blocks_before);
    reg.histogram("engine.run_us").observe(clock.elapsed_us());
    if (blocks_entered_ > 0) {
      reg.gauge("engine.block_hit_rate")
          .set(1.0 - static_cast<double>(blocks_decoded_) /
                         static_cast<double>(blocks_entered_));
    }
  }
  return ran;
}

}  // namespace cfir::isa
