// Two ways to author programs for the simulator:
//   * `Assembler` — a builder API with labels, forward references and a
//     managed data segment; used by the synthetic workloads.
//   * `assemble_text` — a small text assembler ("add r1, r2, r3", labels,
//     `.word`/`.bytes` directives); used by tests and examples.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "isa/program.hpp"

namespace cfir::isa {

/// Error thrown on malformed input (unknown label, bad mnemonic, ...).
class AssemblerError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Assembler {
 public:
  explicit Assembler(uint64_t code_base = kCodeBase,
                     uint64_t data_base = kDataBase)
      : code_base_(code_base), data_cursor_(data_base) {}

  // --- labels -------------------------------------------------------------
  /// Binds `name` to the PC of the next emitted instruction.
  void label(const std::string& name);
  /// PC the next emitted instruction will occupy.
  [[nodiscard]] uint64_t here() const;

  // --- ALU ----------------------------------------------------------------
  void op3(Opcode op, int rd, int rs1, int rs2);
  void add(int rd, int rs1, int rs2) { op3(Opcode::kAdd, rd, rs1, rs2); }
  void sub(int rd, int rs1, int rs2) { op3(Opcode::kSub, rd, rs1, rs2); }
  void mul(int rd, int rs1, int rs2) { op3(Opcode::kMul, rd, rs1, rs2); }
  void div(int rd, int rs1, int rs2) { op3(Opcode::kDiv, rd, rs1, rs2); }
  void rem(int rd, int rs1, int rs2) { op3(Opcode::kRem, rd, rs1, rs2); }
  void and_(int rd, int rs1, int rs2) { op3(Opcode::kAnd, rd, rs1, rs2); }
  void or_(int rd, int rs1, int rs2) { op3(Opcode::kOr, rd, rs1, rs2); }
  void xor_(int rd, int rs1, int rs2) { op3(Opcode::kXor, rd, rs1, rs2); }
  void shl(int rd, int rs1, int rs2) { op3(Opcode::kShl, rd, rs1, rs2); }
  void shr(int rd, int rs1, int rs2) { op3(Opcode::kShr, rd, rs1, rs2); }
  void slt(int rd, int rs1, int rs2) { op3(Opcode::kSlt, rd, rs1, rs2); }
  void sltu(int rd, int rs1, int rs2) { op3(Opcode::kSltu, rd, rs1, rs2); }
  void seq(int rd, int rs1, int rs2) { op3(Opcode::kSeq, rd, rs1, rs2); }
  void min(int rd, int rs1, int rs2) { op3(Opcode::kMin, rd, rs1, rs2); }
  void max(int rd, int rs1, int rs2) { op3(Opcode::kMax, rd, rs1, rs2); }

  void opi(Opcode op, int rd, int rs1, int64_t imm);
  void addi(int rd, int rs1, int64_t imm) { opi(Opcode::kAddi, rd, rs1, imm); }
  void muli(int rd, int rs1, int64_t imm) { opi(Opcode::kMuli, rd, rs1, imm); }
  void andi(int rd, int rs1, int64_t imm) { opi(Opcode::kAndi, rd, rs1, imm); }
  void ori(int rd, int rs1, int64_t imm) { opi(Opcode::kOri, rd, rs1, imm); }
  void xori(int rd, int rs1, int64_t imm) { opi(Opcode::kXori, rd, rs1, imm); }
  void shli(int rd, int rs1, int64_t imm) { opi(Opcode::kShli, rd, rs1, imm); }
  void shrli(int rd, int rs1, int64_t imm) { opi(Opcode::kShrli, rd, rs1, imm); }
  void movi(int rd, int64_t imm);
  void mov(int rd, int rs1) { opi(Opcode::kMov, rd, rs1, 0); }

  // --- memory -------------------------------------------------------------
  void ld(int rd, int rs1, int64_t disp = 0, int bytes = 8);
  void st(int rs2, int rs1, int64_t disp = 0, int bytes = 8);

  // --- control ------------------------------------------------------------
  void br(Opcode op, int rs1, int rs2, const std::string& target);
  void beq(int rs1, int rs2, const std::string& t) { br(Opcode::kBeq, rs1, rs2, t); }
  void bne(int rs1, int rs2, const std::string& t) { br(Opcode::kBne, rs1, rs2, t); }
  void blt(int rs1, int rs2, const std::string& t) { br(Opcode::kBlt, rs1, rs2, t); }
  void bge(int rs1, int rs2, const std::string& t) { br(Opcode::kBge, rs1, rs2, t); }
  void bltu(int rs1, int rs2, const std::string& t) { br(Opcode::kBltu, rs1, rs2, t); }
  void bgeu(int rs1, int rs2, const std::string& t) { br(Opcode::kBgeu, rs1, rs2, t); }
  void jmp(const std::string& target);
  void call(const std::string& target);
  void ret(int rs1 = kLinkReg);
  void nop();
  void halt();

  // --- data segment -------------------------------------------------------
  /// Reserves `bytes` of zero-initialized data, 8-byte aligned, and returns
  /// its address; `name` becomes a data label usable by `data_addr`.
  uint64_t reserve(const std::string& name, uint64_t bytes);
  [[nodiscard]] uint64_t data_addr(const std::string& name) const;
  /// Writes a 64-bit word into reserved data space at `addr`.
  void init_word(uint64_t addr, uint64_t value);
  void init_bytes(uint64_t addr, const std::vector<uint8_t>& bytes);

  /// Resolves all pending label references and produces the Program. Its
  /// data image holds one segment per maximal run of written bytes, in
  /// address order, and a byte written twice keeps the later write.
  [[nodiscard]] Program assemble();

 private:
  struct Fixup {
    size_t inst_index;
    std::string label;
  };
  /// One init_word / init_bytes call: `size` bytes for `addr`, kept at
  /// `offset` in data_bytes_.
  struct DataWrite {
    uint64_t addr = 0;
    size_t offset = 0;
    size_t size = 0;
  };
  void emit(Instruction inst);
  void write_data(uint64_t addr, const uint8_t* bytes, size_t n);

  uint64_t code_base_;
  uint64_t data_cursor_;
  std::vector<Instruction> code_;
  std::unordered_map<std::string, uint64_t> labels_;
  std::unordered_map<std::string, uint64_t> data_labels_;
  std::vector<Fixup> fixups_;
  std::vector<uint8_t> data_bytes_;  ///< every write's bytes, in program order
  std::vector<DataWrite> data_writes_;
};

/// Parses a textual assembly listing into a Program.
[[nodiscard]] Program assemble_text(std::string_view source);

}  // namespace cfir::isa
