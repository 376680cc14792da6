// Physical register file with a free list and explicit ownership tracking
// for replica-held registers (paper sections 2.3.3/2.4.2): replica registers
// are allocated by the SRSMT with a configurable reserve left for rename,
// and only join the normal lifetime once a validation commits.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cfir::core {

class PhysRegFile {
 public:
  explicit PhysRegFile(uint32_t num_regs);

  /// Allocates for a scalar rename. Returns -1 when the free list is empty.
  [[nodiscard]] int alloc() {
    if (free_.empty()) {
      refused_ = true;
      return -1;
    }
    const int r = free_.back();
    free_.pop_back();
    regs_[static_cast<size_t>(r)].ready = false;
    return r;
  }
  /// Allocates for a replica only when more than `reserve` registers would
  /// remain free. Returns -1 otherwise.
  [[nodiscard]] int alloc_replica(uint32_t reserve) {
    if (free_.size() <= reserve) {
      refused_ = true;
      return -1;
    }
    return alloc();
  }
  void free_reg(int r) {
    assert(r >= 0 && r < static_cast<int>(regs_.size()));
    regs_[static_cast<size_t>(r)].ready = false;
    free_.push_back(r);
  }

  [[nodiscard]] uint64_t value(int r) const { return regs_[static_cast<size_t>(r)].value; }
  [[nodiscard]] bool ready(int r) const { return regs_[static_cast<size_t>(r)].ready; }
  void write(int r, uint64_t v) {
    regs_[static_cast<size_t>(r)].value = v;
    regs_[static_cast<size_t>(r)].ready = true;
  }
  void mark_unready(int r) { regs_[static_cast<size_t>(r)].ready = false; }

  [[nodiscard]] uint32_t size() const { return static_cast<uint32_t>(regs_.size()); }
  [[nodiscard]] uint32_t free_count() const { return static_cast<uint32_t>(free_.size()); }
  [[nodiscard]] uint32_t in_use() const { return size() - free_count(); }
  /// Whether alloc() or alloc_replica() ever returned -1: a file with
  /// more registers would have answered differently (Core::hit_capacity).
  [[nodiscard]] bool refused() const { return refused_; }

 private:
  struct Reg {
    uint64_t value = 0;
    bool ready = false;
  };
  std::vector<Reg> regs_;
  std::vector<int> free_;
  bool refused_ = false;
};

}  // namespace cfir::core
