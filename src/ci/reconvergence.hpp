// Re-convergent point estimation and tracking, paper section 2.3.1-2.3.2:
//
//  * RP heuristics — backward branches re-converge at the fall-through;
//    forward branches are classified by inspecting the instruction one slot
//    above the target (an unconditional forward branch there means
//    if-then-else, otherwise if-then).
//  * NRBQ — a 16-entry queue of in-flight conditional branches, each with a
//    64-bit mask of logical registers written after that branch and before
//    the next one.
//  * CRP — the current re-convergent point: RP address, R (reached) flag
//    and the accumulated write mask used to filter control-independent
//    instructions.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "isa/program.hpp"

namespace cfir::ci {

/// Estimates the re-convergent point of the conditional branch at
/// `branch_pc` using the static heuristics of section 2.3.1.
[[nodiscard]] uint64_t estimate_reconvergence_point(const isa::Program& prog,
                                                    uint64_t branch_pc,
                                                    const isa::Instruction& br);

struct NrbqEntry {
  uint64_t branch_seq = 0;
  uint64_t branch_pc = 0;
  uint64_t rp_pc = 0;
  uint64_t mask = 0;   ///< logical registers written since this branch
  bool reached = false;  ///< decode passed this branch's re-convergent point
};

/// Not-Retired Branch Queue: a fixed-capacity ring, oldest entry first.
///
/// Register writes are folded into the masks lazily: on_dest_write only
/// records the bit, and the bits recorded since the last fold are ORed
/// into every entry short of its re-convergent point just before that set
/// of entries changes (a push, an entry reaching its point) and before a
/// mask is read (find, mask_of). Removing an entry needs no fold, so each
/// write lands in exactly the entries it would have been written into at
/// once, and a write or a decoded PC far from every pending point costs
/// O(1).
class Nrbq {
 public:
  explicit Nrbq(uint32_t capacity = 16)
      : capacity_(capacity), ring_(capacity) {}

  /// Pushes a decoded conditional branch; evicts the oldest entry when full
  /// (that branch then simply cannot seed a CRP).
  void push(uint64_t branch_seq, uint64_t branch_pc, uint64_t rp_pc);
  /// Every decoded PC: entries whose re-convergent point this is stop
  /// accumulating mask bits (the paper's mask covers writes *between* the
  /// branch and its RP — Figure 1's I11 must not disqualify itself by
  /// writing R4 after the join).
  void observe_pc(uint64_t pc) {
    if ((rp_filter_ & rp_bit(pc)) != 0) reach(pc);
  }
  /// Records a register write: sets the bit in every entry that has not yet
  /// passed its re-convergent point. Each entry's mask therefore holds
  /// exactly "registers written after this branch and before its RP, on
  /// either path" — the region the CRP needs (see DESIGN.md on why the
  /// paper's OR-to-tail formulation is interpreted this way: with a literal
  /// OR the paper's own Figure 1 example would taint R4/R0 and never select
  /// I11).
  void on_dest_write(int logical) { pending_ |= uint64_t{1} << logical; }
  /// Branch left the window from the front (commit).
  void on_branch_commit(uint64_t branch_seq);
  /// Branch squashed from the back.
  void on_branch_squash(uint64_t branch_seq);

  /// The accumulated write mask of `branch_seq`'s region (CRP mask
  /// initialization of section 2.3.2). Returns 0 for unknown branches.
  [[nodiscard]] uint64_t mask_of(uint64_t branch_seq);
  [[nodiscard]] const NrbqEntry* find(uint64_t branch_seq);
  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] uint32_t capacity() const { return capacity_; }

  /// Section 3.1: 16 entries * 8 bytes.
  [[nodiscard]] uint64_t storage_bytes() const { return capacity_ * 8; }

 private:
  /// Ring position of the i-th oldest entry (i <= size_).
  [[nodiscard]] uint32_t pos(uint32_t i) const {
    const uint32_t p = head_ + i;
    return p >= capacity_ ? p - capacity_ : p;
  }
  /// Calls fn on every entry as two contiguous runs of the ring.
  template <typename Fn>
  void for_each_entry(Fn&& fn) {
    const uint32_t first = std::min(size_, capacity_ - head_);
    for (uint32_t i = head_; i < head_ + first; ++i) fn(ring_[i]);
    for (uint32_t i = 0; i < size_ - first; ++i) fn(ring_[i]);
  }
  [[nodiscard]] static uint64_t rp_bit(uint64_t pc) {
    return uint64_t{1} << ((pc / isa::kInstBytes) & 63);
  }
  /// observe_pc past the filter: marks the entries whose point is `pc`.
  void reach(uint64_t pc);
  /// ORs the pending writes into every entry short of its point.
  void fold();

  uint32_t capacity_;
  std::vector<NrbqEntry> ring_;
  uint32_t head_ = 0;
  uint32_t size_ = 0;
  uint64_t pending_ = 0;    ///< writes not yet folded into the masks
  /// rp_bit of every entry short of its point, and possibly of entries
  /// gone since (reach clears those): a decoded PC outside it reaches none.
  uint64_t rp_filter_ = 0;
};

/// Current Re-convergent Point register.
struct Crp {
  bool active = false;
  bool reached = false;     ///< R flag
  uint64_t rp_pc = 0;
  uint64_t mask = 0;
  uint64_t branch_pc = 0;   ///< the hard mispredicted branch (episode owner)
  uint32_t select_budget = 0;  ///< instructions still inspectable past RP

  /// Section 3.1: 8 bytes PC + 8 bytes mask.
  [[nodiscard]] static uint64_t storage_bytes() { return 16; }
};

}  // namespace cfir::ci
