#include "isa/assembler.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cstring>
#include <iterator>
#include <sstream>

namespace cfir::isa {

namespace {
void check_reg(int r) {
  if (r < 0 || r >= kNumLogicalRegs) {
    throw AssemblerError("register out of range: r" + std::to_string(r));
  }
}
}  // namespace

void Assembler::label(const std::string& name) {
  if (!labels_.emplace(name, here()).second) {
    throw AssemblerError("duplicate label: " + name);
  }
}

uint64_t Assembler::here() const {
  return code_base_ + code_.size() * kInstBytes;
}

void Assembler::emit(Instruction inst) { code_.push_back(inst); }

void Assembler::op3(Opcode op, int rd, int rs1, int rs2) {
  check_reg(rd); check_reg(rs1); check_reg(rs2);
  emit({op, static_cast<uint8_t>(rd), static_cast<uint8_t>(rs1),
        static_cast<uint8_t>(rs2), 0});
}

void Assembler::opi(Opcode op, int rd, int rs1, int64_t imm) {
  check_reg(rd); check_reg(rs1);
  emit({op, static_cast<uint8_t>(rd), static_cast<uint8_t>(rs1), 0, imm});
}

void Assembler::movi(int rd, int64_t imm) {
  check_reg(rd);
  emit({Opcode::kMovi, static_cast<uint8_t>(rd), 0, 0, imm});
}

void Assembler::ld(int rd, int rs1, int64_t disp, int bytes) {
  check_reg(rd); check_reg(rs1);
  Opcode op;
  switch (bytes) {
    case 8: op = Opcode::kLd8; break;
    case 4: op = Opcode::kLd4; break;
    case 2: op = Opcode::kLd2; break;
    case 1: op = Opcode::kLd1; break;
    default: throw AssemblerError("bad load width");
  }
  emit({op, static_cast<uint8_t>(rd), static_cast<uint8_t>(rs1), 0, disp});
}

void Assembler::st(int rs2, int rs1, int64_t disp, int bytes) {
  check_reg(rs2); check_reg(rs1);
  Opcode op;
  switch (bytes) {
    case 8: op = Opcode::kSt8; break;
    case 4: op = Opcode::kSt4; break;
    case 2: op = Opcode::kSt2; break;
    case 1: op = Opcode::kSt1; break;
    default: throw AssemblerError("bad store width");
  }
  emit({op, 0, static_cast<uint8_t>(rs1), static_cast<uint8_t>(rs2), disp});
}

void Assembler::br(Opcode op, int rs1, int rs2, const std::string& target) {
  check_reg(rs1); check_reg(rs2);
  fixups_.push_back({code_.size(), target});
  emit({op, 0, static_cast<uint8_t>(rs1), static_cast<uint8_t>(rs2), 0});
}

void Assembler::jmp(const std::string& target) {
  fixups_.push_back({code_.size(), target});
  emit({Opcode::kJmp, 0, 0, 0, 0});
}

void Assembler::call(const std::string& target) {
  fixups_.push_back({code_.size(), target});
  emit({Opcode::kCall, kLinkReg, 0, 0, 0});
}

void Assembler::ret(int rs1) {
  check_reg(rs1);
  emit({Opcode::kRet, 0, static_cast<uint8_t>(rs1), 0, 0});
}

void Assembler::nop() { emit({Opcode::kNop, 0, 0, 0, 0}); }
void Assembler::halt() { emit({Opcode::kHalt, 0, 0, 0, 0}); }

uint64_t Assembler::reserve(const std::string& name, uint64_t bytes) {
  data_cursor_ = (data_cursor_ + 7) & ~uint64_t{7};
  const uint64_t addr = data_cursor_;
  data_cursor_ += bytes;
  if (!data_labels_.emplace(name, addr).second) {
    throw AssemblerError("duplicate data label: " + name);
  }
  return addr;
}

uint64_t Assembler::data_addr(const std::string& name) const {
  const auto it = data_labels_.find(name);
  if (it == data_labels_.end()) throw AssemblerError("no data label: " + name);
  return it->second;
}

void Assembler::write_data(uint64_t addr, const uint8_t* bytes, size_t n) {
  if (n == 0) return;
  data_writes_.push_back({addr, data_bytes_.size(), n});
  data_bytes_.insert(data_bytes_.end(), bytes, bytes + n);
}

void Assembler::init_word(uint64_t addr, uint64_t value) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<uint8_t>(value >> (8 * i));
  write_data(addr, bytes, sizeof bytes);
}

void Assembler::init_bytes(uint64_t addr, const std::vector<uint8_t>& bytes) {
  write_data(addr, bytes.data(), bytes.size());
}

Program Assembler::assemble() {
  for (const Fixup& f : fixups_) {
    const auto it = labels_.find(f.label);
    if (it == labels_.end()) {
      throw AssemblerError("undefined label: " + f.label);
    }
    code_[f.inst_index].imm = static_cast<int64_t>(it->second);
  }
  Program prog(code_, code_base_);
  for (const auto& [name, pc] : labels_) prog.set_label(name, pc);

  // One segment per maximal run of written bytes: a Program is copied into
  // every Simulator, so thousands of 8-byte segments would be thousands of
  // allocations per unit. Overlapping and touching writes merge into one
  // run; the writes then land in program order, so a later write to a byte
  // wins exactly as when each was applied on its own.
  std::vector<const DataWrite*> by_addr;
  by_addr.reserve(data_writes_.size());
  for (const DataWrite& w : data_writes_) by_addr.push_back(&w);
  std::stable_sort(by_addr.begin(), by_addr.end(),
                   [](const DataWrite* a, const DataWrite* b) {
                     return a->addr < b->addr;
                   });
  std::vector<DataSegment> runs;
  for (const DataWrite* w : by_addr) {
    if (!runs.empty() &&
        w->addr <= runs.back().addr + runs.back().bytes.size()) {
      DataSegment& run = runs.back();
      run.bytes.resize(std::max<uint64_t>(run.bytes.size(),
                                          w->addr + w->size - run.addr));
    } else {
      runs.push_back({w->addr, std::vector<uint8_t>(w->size)});
    }
  }
  for (const DataWrite& w : data_writes_) {
    const auto run = std::prev(std::upper_bound(
        runs.begin(), runs.end(), w.addr,
        [](uint64_t addr, const DataSegment& s) { return addr < s.addr; }));
    std::memcpy(run->bytes.data() + (w.addr - run->addr),
                data_bytes_.data() + w.offset, w.size);
  }
  for (DataSegment& run : runs) prog.add_data(std::move(run));
  return prog;
}

// --------------------------------------------------------------------------
// Text assembler.
// --------------------------------------------------------------------------
namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : line) {
    if (c == '#' || c == ';') break;  // comment
    if (std::isspace(static_cast<unsigned char>(c)) || c == ',' || c == '(' ||
        c == ')') {
      if (!cur.empty()) { out.push_back(cur); cur.clear(); }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

int parse_reg(const std::string& tok) {
  if (tok.size() < 2 || (tok[0] != 'r' && tok[0] != 'R')) {
    throw AssemblerError("expected register, got: " + tok);
  }
  return std::stoi(tok.substr(1));
}

int64_t parse_imm(const std::string& tok) {
  return static_cast<int64_t>(std::stoll(tok, nullptr, 0));
}

}  // namespace

Program assemble_text(std::string_view source) {
  Assembler as;
  std::istringstream in{std::string(source)};
  std::string line;
  while (std::getline(in, line)) {
    auto toks = tokenize(line);
    if (toks.empty()) continue;
    // Label definitions end with ':'.
    while (!toks.empty() && toks[0].back() == ':') {
      as.label(toks[0].substr(0, toks[0].size() - 1));
      toks.erase(toks.begin());
    }
    if (toks.empty()) continue;
    const std::string& m = toks[0];
    auto argc = toks.size() - 1;
    auto need = [&](size_t n) {
      if (argc != n) throw AssemblerError("bad operand count for " + m);
    };
    if (m == "nop") { need(0); as.nop(); }
    else if (m == "halt") { need(0); as.halt(); }
    else if (m == "movi") { need(2); as.movi(parse_reg(toks[1]), parse_imm(toks[2])); }
    else if (m == "mov") { need(2); as.mov(parse_reg(toks[1]), parse_reg(toks[2])); }
    else if (m == "jmp") { need(1); as.jmp(toks[1]); }
    else if (m == "call") { need(1); as.call(toks[1]); }
    else if (m == "ret") { if (argc == 0) as.ret(); else { need(1); as.ret(parse_reg(toks[1])); } }
    else if (m == "ld8" || m == "ld") { need(3); as.ld(parse_reg(toks[1]), parse_reg(toks[3]), parse_imm(toks[2]), 8); }
    else if (m == "ld4") { need(3); as.ld(parse_reg(toks[1]), parse_reg(toks[3]), parse_imm(toks[2]), 4); }
    else if (m == "ld2") { need(3); as.ld(parse_reg(toks[1]), parse_reg(toks[3]), parse_imm(toks[2]), 2); }
    else if (m == "ld1") { need(3); as.ld(parse_reg(toks[1]), parse_reg(toks[3]), parse_imm(toks[2]), 1); }
    else if (m == "st8" || m == "st") { need(3); as.st(parse_reg(toks[1]), parse_reg(toks[3]), parse_imm(toks[2]), 8); }
    else if (m == "st4") { need(3); as.st(parse_reg(toks[1]), parse_reg(toks[3]), parse_imm(toks[2]), 4); }
    else if (m == "st2") { need(3); as.st(parse_reg(toks[1]), parse_reg(toks[3]), parse_imm(toks[2]), 2); }
    else if (m == "st1") { need(3); as.st(parse_reg(toks[1]), parse_reg(toks[3]), parse_imm(toks[2]), 1); }
    else if (m == "beq" || m == "bne" || m == "blt" || m == "bge" ||
             m == "bltu" || m == "bgeu") {
      need(3);
      Opcode op = m == "beq" ? Opcode::kBeq
                : m == "bne" ? Opcode::kBne
                : m == "blt" ? Opcode::kBlt
                : m == "bge" ? Opcode::kBge
                : m == "bltu" ? Opcode::kBltu : Opcode::kBgeu;
      as.br(op, parse_reg(toks[1]), parse_reg(toks[2]), toks[3]);
    } else {
      // Three-operand forms: either reg,reg,reg or reg,reg,imm.
      static const std::unordered_map<std::string, std::pair<Opcode, Opcode>>
          kAlu = {
              {"add", {Opcode::kAdd, Opcode::kAddi}},
              {"sub", {Opcode::kSub, Opcode::kOpcodeCount}},
              {"mul", {Opcode::kMul, Opcode::kMuli}},
              {"div", {Opcode::kDiv, Opcode::kOpcodeCount}},
              {"rem", {Opcode::kRem, Opcode::kOpcodeCount}},
              {"and", {Opcode::kAnd, Opcode::kAndi}},
              {"or", {Opcode::kOr, Opcode::kOri}},
              {"xor", {Opcode::kXor, Opcode::kXori}},
              {"shl", {Opcode::kShl, Opcode::kShli}},
              {"shr", {Opcode::kShr, Opcode::kShrli}},
              {"sar", {Opcode::kSar, Opcode::kOpcodeCount}},
              {"slt", {Opcode::kSlt, Opcode::kOpcodeCount}},
              {"sltu", {Opcode::kSltu, Opcode::kOpcodeCount}},
              {"seq", {Opcode::kSeq, Opcode::kOpcodeCount}},
              {"min", {Opcode::kMin, Opcode::kOpcodeCount}},
              {"max", {Opcode::kMax, Opcode::kOpcodeCount}},
          };
      const auto it = kAlu.find(m);
      if (it == kAlu.end()) throw AssemblerError("unknown mnemonic: " + m);
      need(3);
      const bool reg_form = toks[3][0] == 'r' || toks[3][0] == 'R';
      if (reg_form) {
        as.op3(it->second.first, parse_reg(toks[1]), parse_reg(toks[2]),
               parse_reg(toks[3]));
      } else {
        if (it->second.second == Opcode::kOpcodeCount) {
          throw AssemblerError("no immediate form for " + m);
        }
        as.opi(it->second.second, parse_reg(toks[1]), parse_reg(toks[2]),
               parse_imm(toks[3]));
      }
    }
  }
  return as.assemble();
}

}  // namespace cfir::isa
