#include "isa/isa.hpp"

#include <cassert>
#include <sstream>

namespace cfir::isa {

std::string disassemble(const Instruction& inst, uint64_t pc) {
  std::ostringstream os;
  os << std::hex << "0x" << pc << std::dec << ": " << opcode_name(inst.op);
  const Opcode op = inst.op;
  auto r = [](int n) {
    std::string s = "r";
    s += std::to_string(n);
    return s;
  };
  if (op == Opcode::kNop || op == Opcode::kHalt) {
    // no operands
  } else if (is_load(op)) {
    os << ' ' << r(inst.rd) << ", " << inst.imm << '(' << r(inst.rs1) << ')';
  } else if (is_store(op)) {
    os << ' ' << r(inst.rs2) << ", " << inst.imm << '(' << r(inst.rs1) << ')';
  } else if (is_cond_branch(op)) {
    os << ' ' << r(inst.rs1) << ", " << r(inst.rs2) << ", 0x" << std::hex
       << inst.imm;
  } else if (op == Opcode::kJmp || op == Opcode::kCall) {
    os << " 0x" << std::hex << inst.imm;
  } else if (op == Opcode::kRet) {
    os << ' ' << r(inst.rs1);
  } else if (op == Opcode::kMovi) {
    os << ' ' << r(inst.rd) << ", " << inst.imm;
  } else if (op == Opcode::kMov) {
    os << ' ' << r(inst.rd) << ", " << r(inst.rs1);
  } else if (reads_rs2(op)) {
    os << ' ' << r(inst.rd) << ", " << r(inst.rs1) << ", " << r(inst.rs2);
  } else {
    os << ' ' << r(inst.rd) << ", " << r(inst.rs1) << ", " << inst.imm;
  }
  return os.str();
}

uint64_t eval_alu(Opcode op, uint64_t a, uint64_t b, int64_t imm) {
  const auto sa = static_cast<int64_t>(a);
  const auto sb = static_cast<int64_t>(b);
  const auto ub = static_cast<uint64_t>(imm);
  switch (op) {
    case Opcode::kAdd:  return a + b;
    case Opcode::kSub:  return a - b;
    case Opcode::kMul:  return a * b;
    // Division by zero yields 0 (no traps in this ISA); INT64_MIN / -1 is
    // defined as unsigned negation to avoid signed overflow.
    case Opcode::kDiv:
      if (b == 0) return 0;
      if (sb == -1) return uint64_t{0} - a;
      return static_cast<uint64_t>(sa / sb);
    case Opcode::kRem:
      if (b == 0) return a;
      if (sb == -1) return 0;
      return static_cast<uint64_t>(sa % sb);
    case Opcode::kAnd:  return a & b;
    case Opcode::kOr:   return a | b;
    case Opcode::kXor:  return a ^ b;
    case Opcode::kShl:  return a << (b & 63);
    case Opcode::kShr:  return a >> (b & 63);
    case Opcode::kSar:  return static_cast<uint64_t>(sa >> (b & 63));
    case Opcode::kSlt:  return sa < sb ? 1 : 0;
    case Opcode::kSltu: return a < b ? 1 : 0;
    case Opcode::kSeq:  return a == b ? 1 : 0;
    case Opcode::kMin:  return static_cast<uint64_t>(sa < sb ? sa : sb);
    case Opcode::kMax:  return static_cast<uint64_t>(sa > sb ? sa : sb);
    case Opcode::kAddi: return a + ub;
    case Opcode::kMuli: return a * ub;
    case Opcode::kAndi: return a & ub;
    case Opcode::kOri:  return a | ub;
    case Opcode::kXori: return a ^ ub;
    case Opcode::kShli: return a << (imm & 63);
    case Opcode::kShrli:return a >> (imm & 63);
    case Opcode::kMovi: return ub;
    case Opcode::kMov:  return a;
    default:
      assert(false && "eval_alu called on non-ALU opcode");
      return 0;
  }
}

bool eval_branch(Opcode op, uint64_t a, uint64_t b) {
  const auto sa = static_cast<int64_t>(a);
  const auto sb = static_cast<int64_t>(b);
  switch (op) {
    case Opcode::kBeq:  return a == b;
    case Opcode::kBne:  return a != b;
    case Opcode::kBlt:  return sa < sb;
    case Opcode::kBge:  return sa >= sb;
    case Opcode::kBltu: return a < b;
    case Opcode::kBgeu: return a >= b;
    default:
      assert(false && "eval_branch called on non-branch opcode");
      return false;
  }
}

}  // namespace cfir::isa
