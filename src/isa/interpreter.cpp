#include "isa/interpreter.hpp"

#include "obs/metrics.hpp"

namespace cfir::isa {

Interpreter::Interpreter(const Program& program, mem::MainMemory& memory)
    : program_(program), mem_(memory), pc_(program.base()) {}

template <bool Observed>
bool Interpreter::step_impl() {
  if (halted_) return false;
  const Instruction* inst = program_.try_at(pc_);
  if (inst == nullptr) {
    halted_ = true;
    return false;
  }
  const Opcode op = inst->op;
  uint64_t next_pc = pc_ + kInstBytes;
  StepEvent ev{.pc = pc_};  // what on_retire sees; dead when unobserved
  switch (op) {
    case Opcode::kNop:
      break;
    case Opcode::kHalt:
      halted_ = true;
      return false;
    case Opcode::kJmp:
      next_pc = static_cast<uint64_t>(inst->imm);
      break;
    case Opcode::kCall:
      regs_[kLinkReg] = pc_ + kInstBytes;
      next_pc = static_cast<uint64_t>(inst->imm);
      break;
    case Opcode::kRet:
      next_pc = regs_[inst->rs1];
      break;
    default: {
      if (is_cond_branch(op)) {
        const bool taken = eval_branch(op, regs_[inst->rs1], regs_[inst->rs2]);
        if (taken) next_pc = static_cast<uint64_t>(inst->imm);
        ev.kind = EventKind::kBranch;
        ev.taken = taken;
        ev.next_pc = next_pc;
      } else if (is_load(op)) {
        const uint64_t addr = regs_[inst->rs1] + static_cast<uint64_t>(inst->imm);
        const int bytes = mem_bytes(op);
        regs_[inst->rd] = mem_.read(addr, bytes);
        ev.kind = EventKind::kLoad;
        ev.addr = addr;
        ev.size = static_cast<uint8_t>(bytes);
      } else if (is_store(op)) {
        const uint64_t addr = regs_[inst->rs1] + static_cast<uint64_t>(inst->imm);
        const int bytes = mem_bytes(op);
        mem_.write(addr, regs_[inst->rs2], bytes);
        ev.kind = EventKind::kStore;
        ev.addr = addr;
        ev.size = static_cast<uint8_t>(bytes);
      } else {
        // ALU.
        regs_[inst->rd] =
            eval_alu(op, regs_[inst->rs1], regs_[inst->rs2], inst->imm);
      }
      break;
    }
  }
  if constexpr (Observed) {
    if (on_retire) on_retire(ev);
  }
  pc_ = next_pc;
  ++executed_;
  return true;
}

bool Interpreter::step() { return step_impl<true>(); }

uint64_t Interpreter::run(uint64_t max_insts) {
  const uint64_t start = executed_;
  // Saturating target so `max_insts == UINT64_MAX` ("run to HALT") cannot
  // overflow once `executed_` is nonzero.
  const uint64_t target =
      max_insts > UINT64_MAX - start ? UINT64_MAX : start + max_insts;
  const obs::Stopwatch clock;
  // Bind the observer check once: with no observer attached the loop runs
  // the specialization with the `if (on_retire)` compiled out.
  if (on_retire) {
    while (executed_ < target && step_impl<true>()) {
    }
  } else {
    while (executed_ < target && step_impl<false>()) {
    }
  }
  const uint64_t ran = executed_ - start;
  // Telemetry once per run() call, never per instruction — run() is the
  // throughput backbone of planning, warming and trace capture.
  if (ran > 0) {
    obs::Registry& reg = obs::Registry::instance();
    reg.counter("interp.insts").add(ran);
    reg.histogram("interp.run_us").observe(clock.elapsed_us());
  }
  return ran;
}

void load_data_image(const Program& program, mem::MainMemory& memory) {
  for (const DataSegment& seg : program.data()) {
    memory.write_block(seg.addr, seg.bytes.data(), seg.bytes.size());
  }
}

InterpResult run_program(const Program& program, uint64_t max_insts) {
  mem::MainMemory memory;
  load_data_image(program, memory);
  Interpreter interp(program, memory);
  interp.run(max_insts);
  InterpResult r;
  r.executed = interp.executed();
  r.halted = interp.halted();
  r.regs = interp.regs();
  r.mem_digest = memory.digest();
  return r;
}

}  // namespace cfir::isa
