// Functional reference interpreter. This is the architectural oracle: the
// out-of-order core (with or without the paper's mechanism) must produce
// exactly the same final register file and memory image. Its on_retire
// stream is the reference the engine's and the core's event streams are
// checked against.
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "isa/program.hpp"
#include "mem/main_memory.hpp"

namespace cfir::isa {

class Interpreter {
 public:
  /// `memory` is used in place; apply the program's data image first (or use
  /// `run_program` below).
  Interpreter(const Program& program, mem::MainMemory& memory);

  /// Executes at most `max_insts` instructions; returns the number executed.
  /// Stops earlier at HALT or when the PC leaves the code image.
  uint64_t run(uint64_t max_insts = UINT64_MAX);

  /// Executes one instruction; returns false when halted / out of image.
  bool step();

  [[nodiscard]] bool halted() const { return halted_; }
  [[nodiscard]] uint64_t pc() const { return pc_; }
  /// Redirects execution (checkpoint restore); clears the halted flag.
  void set_pc(uint64_t pc) {
    pc_ = pc;
    halted_ = false;
  }
  [[nodiscard]] uint64_t executed() const { return executed_; }
  [[nodiscard]] uint64_t reg(int r) const { return regs_[static_cast<size_t>(r)]; }
  void set_reg(int r, uint64_t v) { regs_[static_cast<size_t>(r)] = v; }
  [[nodiscard]] const std::array<uint64_t, kNumLogicalRegs>& regs() const {
    return regs_;
  }

  /// Optional observer (trace replay and the tests that check the other
  /// producers against this oracle): fires after every retired
  /// instruction with its StepEvent. HALT retires none.
  std::function<void(const StepEvent&)> on_retire;

 private:
  /// Shared step body; `Observed` compiles the observer check in or out so
  /// run() can bind "observer attached?" once instead of re-testing it per
  /// instruction.
  template <bool Observed>
  bool step_impl();

  const Program& program_;
  mem::MainMemory& mem_;
  std::array<uint64_t, kNumLogicalRegs> regs_{};
  uint64_t pc_;
  uint64_t executed_ = 0;
  bool halted_ = false;
};

/// Applies `program`'s data image to `memory`.
void load_data_image(const Program& program, mem::MainMemory& memory);

/// Convenience: clone-free full run. Applies the data image to a fresh
/// memory, runs to completion (or `max_insts`) and returns final state.
struct InterpResult {
  uint64_t executed = 0;
  bool halted = false;
  std::array<uint64_t, kNumLogicalRegs> regs{};
  uint64_t mem_digest = 0;
};
[[nodiscard]] InterpResult run_program(const Program& program,
                                       uint64_t max_insts = UINT64_MAX);

}  // namespace cfir::isa
