// Per-cycle functional-unit availability (fully pipelined pools, Table 1).
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "core/config.hpp"
#include "isa/isa.hpp"

namespace cfir::core {

class FuPool {
 public:
  /// Resolves every opcode's pool and latency once, so issue reads two
  /// table entries instead of switching on the FU class.
  explicit FuPool(const CoreConfig& cfg) : cfg_(cfg) {
    for (size_t i = 0; i < kOps; ++i) {
      const auto op = static_cast<isa::Opcode>(i);
      switch (isa::fu_class(op)) {
        case isa::FuClass::kIntAlu:
          pool_[i] = kSimpleInt;
          latency_[i] = cfg_.int_alu_latency;
          break;
        case isa::FuClass::kBranch:
          pool_[i] = kSimpleInt;
          latency_[i] = cfg_.branch_latency;
          break;
        case isa::FuClass::kIntMul:
          pool_[i] = kMulDiv;
          latency_[i] = cfg_.mul_latency;
          break;
        case isa::FuClass::kIntDiv:
          pool_[i] = kMulDiv;
          latency_[i] = op == isa::Opcode::kDiv || op == isa::Opcode::kRem
                            ? cfg_.div_latency
                            : cfg_.mul_latency;
          break;
        case isa::FuClass::kMem:
          // Address generation shares the memory path; ports are handled
          // by the memory stage, so dispatching the AGU op is free here.
          pool_[i] = kUnlimited;
          latency_[i] = cfg_.agu_latency;
          break;
        case isa::FuClass::kNone:
          pool_[i] = kUnlimited;
          latency_[i] = 1;
          break;
      }
    }
    new_cycle();
  }

  void new_cycle() {
    left_[kSimpleInt] = cfg_.simple_int_units;
    left_[kMulDiv] = cfg_.muldiv_units;
    left_[kUnlimited] = std::numeric_limits<uint32_t>::max();
    mem_ports_ = cfg_.cache_ports;
  }

  [[nodiscard]] uint32_t simple_int_left() const { return left_[kSimpleInt]; }
  [[nodiscard]] uint32_t muldiv_left() const { return left_[kMulDiv]; }
  [[nodiscard]] uint32_t mem_ports_left() const { return mem_ports_; }

  /// Attempts to reserve the FU needed by `op` (memory ports are reserved
  /// separately by the memory stage). Returns false when the pool is empty.
  bool try_reserve(isa::Opcode op) {
    uint32_t& left = left_[pool_[static_cast<size_t>(op)]];
    if (left == 0) return false;
    --left;
    return true;
  }
  bool try_reserve_mem_port() {
    if (mem_ports_ == 0) return false;
    --mem_ports_;
    return true;
  }

  /// Execution latency of `op` excluding cache time.
  [[nodiscard]] uint32_t latency(isa::Opcode op) const {
    return latency_[static_cast<size_t>(op)];
  }

 private:
  static constexpr size_t kOps = static_cast<size_t>(isa::Opcode::kOpcodeCount);
  enum Pool : uint8_t { kSimpleInt, kMulDiv, kUnlimited };

  const CoreConfig& cfg_;
  std::array<Pool, kOps> pool_{};
  std::array<uint32_t, kOps> latency_{};
  std::array<uint32_t, 3> left_{};  ///< per Pool; kUnlimited never runs out
  uint32_t mem_ports_ = 0;
};

}  // namespace cfir::core
