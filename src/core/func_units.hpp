// Per-cycle functional-unit availability (fully pipelined pools, Table 1).
#pragma once

#include <cstdint>

#include "core/config.hpp"
#include "isa/isa.hpp"

namespace cfir::core {

class FuPool {
 public:
  explicit FuPool(const CoreConfig& cfg) : cfg_(cfg) { new_cycle(); }

  void new_cycle() {
    simple_int_ = cfg_.simple_int_units;
    muldiv_ = cfg_.muldiv_units;
    mem_ports_ = cfg_.cache_ports;
  }

  [[nodiscard]] uint32_t simple_int_left() const { return simple_int_; }
  [[nodiscard]] uint32_t muldiv_left() const { return muldiv_; }
  [[nodiscard]] uint32_t mem_ports_left() const { return mem_ports_; }

  /// Attempts to reserve the FU needed by `op` (memory ports are reserved
  /// separately by the memory stage). Returns false when the pool is empty.
  bool try_reserve(isa::Opcode op) {
    switch (isa::fu_class(op)) {
      case isa::FuClass::kIntAlu:
      case isa::FuClass::kBranch:
        if (simple_int_ == 0) return false;
        --simple_int_;
        return true;
      case isa::FuClass::kIntMul:
      case isa::FuClass::kIntDiv:
        if (muldiv_ == 0) return false;
        --muldiv_;
        return true;
      case isa::FuClass::kMem:
        // Address generation shares the memory path; ports are handled by
        // the memory stage, so dispatching the AGU op is free here.
        return true;
      case isa::FuClass::kNone:
        return true;
    }
    return true;
  }
  bool try_reserve_mem_port() {
    if (mem_ports_ == 0) return false;
    --mem_ports_;
    return true;
  }
  void give_back_mem_port() { ++mem_ports_; }

  /// Execution latency of `op` excluding cache time.
  [[nodiscard]] uint32_t latency(isa::Opcode op) const {
    switch (isa::fu_class(op)) {
      case isa::FuClass::kIntAlu: return cfg_.int_alu_latency;
      case isa::FuClass::kBranch: return cfg_.branch_latency;
      case isa::FuClass::kIntMul: return cfg_.mul_latency;
      case isa::FuClass::kIntDiv:
        return op == isa::Opcode::kDiv || op == isa::Opcode::kRem
                   ? cfg_.div_latency
                   : cfg_.mul_latency;
      case isa::FuClass::kMem: return cfg_.agu_latency;
      case isa::FuClass::kNone: return 1;
    }
    return 1;
  }

 private:
  const CoreConfig& cfg_;
  uint32_t simple_int_ = 0;
  uint32_t muldiv_ = 0;
  uint32_t mem_ports_ = 0;
};

}  // namespace cfir::core
