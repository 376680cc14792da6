// Stride predictor, paper Figure 3: a 4-way x 256-set table indexed by load
// PC holding {last address, stride, 2-bit confidence, S flag}. The S flag
// marks loads selected for speculative vectorization by the
// control-independence selection logic (or unconditionally under the vect
// policy); `origin_branch_pc` remembers which hard branch selected the load
// so reuse can be credited to its episode (Figure 5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/warmable.hpp"

namespace cfir::ci {

class StridePredictor : public util::Warmable {
 public:
  StridePredictor(uint32_t sets = 256, uint32_t ways = 4);

  struct Info {
    bool known = false;       ///< entry present
    bool confident = false;   ///< confidence counter > 1 (paper)
    int64_t stride = 0;
    uint64_t last_addr = 0;
    bool selected = false;    ///< S flag
    uint64_t origin_branch_pc = 0;
  };

  /// Trains with a committed load (in program order).
  void train(uint64_t pc, uint64_t addr);

  /// train() plus the vect policy's commit rule, in one set walk: the
  /// trained entry, once confident with a non-zero stride, is selected
  /// with origin 0 unless it already is (it then keeps its origin). A
  /// fresh entry is never confident, so never selected.
  void train_and_select(uint64_t pc, uint64_t addr);

  [[nodiscard]] Info lookup(uint64_t pc) const;

  /// Sets the S flag (selection for speculative vectorization). Returns
  /// false when the load has no predictor entry.
  bool select(uint64_t pc, uint64_t origin_branch_pc);
  void clear_selection(uint64_t pc);

  /// Hardware budget, section 3.1: 4 * 256 * 24 bytes = 24576.
  [[nodiscard]] uint64_t storage_bytes() const;

  // Functional warming reuses train() in commit order — the detailed core
  // only trains at commit, so the table contents (tags, addresses, strides,
  // confidence, LRU) are a pure function of the committed load stream. The
  // S flags are additionally commit-derivable under the vect policy (every
  // confident strided load selects at commit); under the ci policy they are
  // driven by speculative episode state and stay cold after warming.
  [[nodiscard]] uint64_t debug_digest() const override;
  void serialize(util::ByteWriter& out) const override;
  void deserialize(util::ByteReader& in) override;

 private:
  struct Entry {
    uint64_t tag = 0;
    bool valid = false;
    uint64_t last_addr = 0;
    int64_t stride = 0;
    uint8_t confidence = 0;  ///< 2-bit saturating
    bool s_flag = false;
    uint64_t origin_branch_pc = 0;
    uint64_t lru = 0;
  };
  [[nodiscard]] const Entry* find(uint64_t pc) const;
  Entry* find_mut(uint64_t pc);
  Entry& find_or_alloc(uint64_t pc);
  Entry& train_entry(uint64_t pc, uint64_t addr);

  uint32_t sets_;
  uint32_t ways_;
  uint64_t stamp_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace cfir::ci
