// Compact 64-bit RISC ISA used by the simulator substrate.
//
// The ISA deliberately mirrors the properties the paper's mechanism relies
// on: 64 logical registers (the NRBQ/CRP masks and the rename-map extension
// in the paper are sized for 64 logical registers), fixed-size instruction
// slots so that "the instruction one location above the branch target"
// (re-convergence heuristic, paper section 2.3.1) is well defined, and
// absolute branch targets resolved at assembly time.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

namespace cfir::isa {

/// Number of architectural (logical) integer registers.
inline constexpr int kNumLogicalRegs = 64;
/// Size of one instruction slot; PCs advance in units of this.
inline constexpr uint64_t kInstBytes = 4;
/// Register used as the link register by CALL/RET.
inline constexpr uint8_t kLinkReg = 63;

/// Operation codes. Arithmetic is 64-bit two's complement (wrapping).
enum class Opcode : uint8_t {
  kNop,
  kHalt,
  // Register-register ALU.
  kAdd, kSub, kMul, kDiv, kRem,
  kAnd, kOr, kXor,
  kShl, kShr, kSar,
  kSlt, kSltu, kSeq,
  kMin, kMax,
  // Register-immediate ALU.
  kAddi, kMuli, kAndi, kOri, kXori, kShli, kShrli,
  kMovi,  ///< rd = imm
  kMov,   ///< rd = rs1
  // Memory: address = rs1 + imm. Loads zero-extend sub-word accesses.
  kLd8, kLd4, kLd2, kLd1,
  kSt8, kSt4, kSt2, kSt1,
  // Control. Conditional branches compare rs1 against rs2; target is the
  // absolute PC held in imm (labels are resolved by the assembler).
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kJmp,   ///< unconditional direct jump to imm
  kCall,  ///< r63 = pc + 4; jump to imm
  kRet,   ///< jump to rs1 (predicted via the return address stack)
  kOpcodeCount,
};

/// One static instruction. `imm` holds immediates, load/store displacements
/// and absolute branch targets.
struct Instruction {
  Opcode op = Opcode::kNop;
  uint8_t rd = 0;
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
  int64_t imm = 0;

  bool operator==(const Instruction&) const = default;
};

/// Functional-unit class an instruction executes on (latencies are
/// configured in core::CoreConfig following Table 1 of the paper).
enum class FuClass : uint8_t {
  kNone,     ///< nop/halt/jumps resolved at decode
  kIntAlu,   ///< simple integer
  kIntMul,
  kIntDiv,
  kMem,      ///< loads and stores (address generation + cache access)
  kBranch,   ///< conditional branches and indirect jumps (use an ALU)
};

/// Attribute bits of one opcode (OpAttrs::bits).
inline constexpr uint8_t kOpDest = 1 << 0;      ///< writes rd
inline constexpr uint8_t kOpSrc1 = 1 << 1;      ///< reads rs1
inline constexpr uint8_t kOpSrc2 = 1 << 2;      ///< reads rs2
inline constexpr uint8_t kOpLoad = 1 << 3;
inline constexpr uint8_t kOpStore = 1 << 4;
inline constexpr uint8_t kOpCondBr = 1 << 5;    ///< compares rs1 against rs2
inline constexpr uint8_t kOpUncondBr = 1 << 6;  ///< jmp/call/ret

/// Static attributes of one opcode. Every predicate below is one read of
/// kOpAttrs, so the pipeline's per-instruction decode makes no calls.
struct OpAttrs {
  const char* name;
  uint8_t bits;
  FuClass fu;
  uint8_t mem_bytes;  ///< access width, 0 for non-memory
};

/// One row per opcode, in Opcode order.
inline constexpr OpAttrs kOpAttrs[] = {
    /*kNop*/  {"nop", 0, FuClass::kNone, 0},
    /*kHalt*/ {"halt", 0, FuClass::kNone, 0},
    /*kAdd*/  {"add", kOpDest | kOpSrc1 | kOpSrc2, FuClass::kIntAlu, 0},
    /*kSub*/  {"sub", kOpDest | kOpSrc1 | kOpSrc2, FuClass::kIntAlu, 0},
    /*kMul*/  {"mul", kOpDest | kOpSrc1 | kOpSrc2, FuClass::kIntMul, 0},
    /*kDiv*/  {"div", kOpDest | kOpSrc1 | kOpSrc2, FuClass::kIntDiv, 0},
    /*kRem*/  {"rem", kOpDest | kOpSrc1 | kOpSrc2, FuClass::kIntDiv, 0},
    /*kAnd*/  {"and", kOpDest | kOpSrc1 | kOpSrc2, FuClass::kIntAlu, 0},
    /*kOr*/   {"or", kOpDest | kOpSrc1 | kOpSrc2, FuClass::kIntAlu, 0},
    /*kXor*/  {"xor", kOpDest | kOpSrc1 | kOpSrc2, FuClass::kIntAlu, 0},
    /*kShl*/  {"shl", kOpDest | kOpSrc1 | kOpSrc2, FuClass::kIntAlu, 0},
    /*kShr*/  {"shr", kOpDest | kOpSrc1 | kOpSrc2, FuClass::kIntAlu, 0},
    /*kSar*/  {"sar", kOpDest | kOpSrc1 | kOpSrc2, FuClass::kIntAlu, 0},
    /*kSlt*/  {"slt", kOpDest | kOpSrc1 | kOpSrc2, FuClass::kIntAlu, 0},
    /*kSltu*/ {"sltu", kOpDest | kOpSrc1 | kOpSrc2, FuClass::kIntAlu, 0},
    /*kSeq*/  {"seq", kOpDest | kOpSrc1 | kOpSrc2, FuClass::kIntAlu, 0},
    /*kMin*/  {"min", kOpDest | kOpSrc1 | kOpSrc2, FuClass::kIntAlu, 0},
    /*kMax*/  {"max", kOpDest | kOpSrc1 | kOpSrc2, FuClass::kIntAlu, 0},
    /*kAddi*/ {"addi", kOpDest | kOpSrc1, FuClass::kIntAlu, 0},
    /*kMuli*/ {"muli", kOpDest | kOpSrc1, FuClass::kIntMul, 0},
    /*kAndi*/ {"andi", kOpDest | kOpSrc1, FuClass::kIntAlu, 0},
    /*kOri*/  {"ori", kOpDest | kOpSrc1, FuClass::kIntAlu, 0},
    /*kXori*/ {"xori", kOpDest | kOpSrc1, FuClass::kIntAlu, 0},
    /*kShli*/ {"shli", kOpDest | kOpSrc1, FuClass::kIntAlu, 0},
    /*kShrli*/{"shrli", kOpDest | kOpSrc1, FuClass::kIntAlu, 0},
    /*kMovi*/ {"movi", kOpDest, FuClass::kIntAlu, 0},
    /*kMov*/  {"mov", kOpDest | kOpSrc1, FuClass::kIntAlu, 0},
    /*kLd8*/  {"ld8", kOpDest | kOpSrc1 | kOpLoad, FuClass::kMem, 8},
    /*kLd4*/  {"ld4", kOpDest | kOpSrc1 | kOpLoad, FuClass::kMem, 4},
    /*kLd2*/  {"ld2", kOpDest | kOpSrc1 | kOpLoad, FuClass::kMem, 2},
    /*kLd1*/  {"ld1", kOpDest | kOpSrc1 | kOpLoad, FuClass::kMem, 1},
    /*kSt8*/  {"st8", kOpSrc1 | kOpSrc2 | kOpStore, FuClass::kMem, 8},
    /*kSt4*/  {"st4", kOpSrc1 | kOpSrc2 | kOpStore, FuClass::kMem, 4},
    /*kSt2*/  {"st2", kOpSrc1 | kOpSrc2 | kOpStore, FuClass::kMem, 2},
    /*kSt1*/  {"st1", kOpSrc1 | kOpSrc2 | kOpStore, FuClass::kMem, 1},
    /*kBeq*/  {"beq", kOpSrc1 | kOpSrc2 | kOpCondBr, FuClass::kBranch, 0},
    /*kBne*/  {"bne", kOpSrc1 | kOpSrc2 | kOpCondBr, FuClass::kBranch, 0},
    /*kBlt*/  {"blt", kOpSrc1 | kOpSrc2 | kOpCondBr, FuClass::kBranch, 0},
    /*kBge*/  {"bge", kOpSrc1 | kOpSrc2 | kOpCondBr, FuClass::kBranch, 0},
    /*kBltu*/ {"bltu", kOpSrc1 | kOpSrc2 | kOpCondBr, FuClass::kBranch, 0},
    /*kBgeu*/ {"bgeu", kOpSrc1 | kOpSrc2 | kOpCondBr, FuClass::kBranch, 0},
    /*kJmp*/  {"jmp", kOpUncondBr, FuClass::kNone, 0},
    /*kCall*/ {"call", kOpDest | kOpUncondBr, FuClass::kIntAlu, 0},
    /*kRet*/  {"ret", kOpSrc1 | kOpUncondBr, FuClass::kBranch, 0},
};
static_assert(std::size(kOpAttrs) == static_cast<size_t>(Opcode::kOpcodeCount),
              "kOpAttrs needs exactly one row per opcode");

[[nodiscard]] inline const OpAttrs& attrs(Opcode op) {
  assert(static_cast<size_t>(op) < std::size(kOpAttrs));
  return kOpAttrs[static_cast<size_t>(op)];
}
[[nodiscard]] inline bool has_attr(Opcode op, uint8_t bits) {
  return (attrs(op).bits & bits) != 0;
}

[[nodiscard]] inline bool has_dest(Opcode op) { return has_attr(op, kOpDest); }
[[nodiscard]] inline bool reads_rs1(Opcode op) { return has_attr(op, kOpSrc1); }
[[nodiscard]] inline bool reads_rs2(Opcode op) { return has_attr(op, kOpSrc2); }
/// 0, 1 or 2 register sources.
[[nodiscard]] inline int num_sources(Opcode op) {
  return (reads_rs1(op) ? 1 : 0) + (reads_rs2(op) ? 1 : 0);
}
[[nodiscard]] inline bool is_load(Opcode op) { return has_attr(op, kOpLoad); }
[[nodiscard]] inline bool is_store(Opcode op) { return has_attr(op, kOpStore); }
[[nodiscard]] inline bool is_mem(Opcode op) {
  return has_attr(op, kOpLoad | kOpStore);
}
[[nodiscard]] inline bool is_cond_branch(Opcode op) {
  return has_attr(op, kOpCondBr);
}
/// jmp/call/ret.
[[nodiscard]] inline bool is_uncond_branch(Opcode op) {
  return has_attr(op, kOpUncondBr);
}
/// Any control transfer.
[[nodiscard]] inline bool is_branch(Opcode op) {
  return has_attr(op, kOpCondBr | kOpUncondBr);
}
/// The target comes from a register.
[[nodiscard]] inline bool is_indirect(Opcode op) { return op == Opcode::kRet; }
[[nodiscard]] inline FuClass fu_class(Opcode op) { return attrs(op).fu; }
/// Number of bytes accessed by a load/store opcode; 0 otherwise.
[[nodiscard]] inline int mem_bytes(Opcode op) { return attrs(op).mem_bytes; }
[[nodiscard]] inline const char* opcode_name(Opcode op) {
  return attrs(op).name;
}
[[nodiscard]] std::string disassemble(const Instruction& inst, uint64_t pc);

/// Evaluates a two-source ALU operation (used by both the reference
/// interpreter and the out-of-order core so that semantics can never
/// diverge between them).
[[nodiscard]] uint64_t eval_alu(Opcode op, uint64_t a, uint64_t b, int64_t imm);

/// Evaluates a conditional-branch predicate.
[[nodiscard]] bool eval_branch(Opcode op, uint64_t a, uint64_t b);

/// What a retired instruction did, as far as its StepEvent says.
enum class EventKind : uint8_t {
  kPlain = 0,   ///< ALU / jumps / calls / rets
  kBranch = 1,  ///< conditional branch
  kLoad = 2,
  kStore = 3,
};

/// One retired instruction: the one record every producer (the functional
/// engine's run_into, the Interpreter's on_retire, the detailed core's
/// commit span) hands over and every consumer (traces, functional warming,
/// BBVs) reads. `next_pc` is the actual successor of a conditional branch
/// (kBranch only), `addr`/`size` the access of a load/store; every field
/// a kind does not name stays zero. HALT retires no event.
struct StepEvent {
  uint64_t pc = 0;
  uint64_t next_pc = 0;  ///< kBranch only
  uint64_t addr = 0;     ///< kLoad/kStore only
  EventKind kind = EventKind::kPlain;
  bool taken = false;    ///< kBranch only
  uint8_t size = 0;      ///< kLoad/kStore only: access bytes (1/2/4/8)

  bool operator==(const StepEvent&) const = default;
};

}  // namespace cfir::isa
