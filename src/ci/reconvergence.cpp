#include "ci/reconvergence.hpp"

namespace cfir::ci {

uint64_t estimate_reconvergence_point(const isa::Program& prog,
                                      uint64_t branch_pc,
                                      const isa::Instruction& br) {
  const uint64_t target = static_cast<uint64_t>(br.imm);
  if (target <= branch_pc) {
    // Backward branch: loop-closing; re-converges at the fall-through
    // (Figure 2a).
    return branch_pc + isa::kInstBytes;
  }
  // Forward branch: inspect the instruction one location above the target.
  const uint64_t probe_pc = target - isa::kInstBytes;
  const isa::Instruction* probe = prog.try_at(probe_pc);
  if (probe != nullptr && probe->op == isa::Opcode::kJmp &&
      static_cast<uint64_t>(probe->imm) > probe_pc) {
    // Unconditional forward branch right above the target: the classic
    // if-then-else shape (Figure 2c); re-converge where that jump lands.
    return static_cast<uint64_t>(probe->imm);
  }
  // if-then shape (Figure 2b): re-converge at the branch target itself.
  return target;
}

void Nrbq::push(uint64_t branch_seq, uint64_t branch_pc, uint64_t rp_pc) {
  if (capacity_ == 0) return;
  fold();  // earlier writes are not this branch's
  if (size_ == capacity_) {
    head_ = pos(1);
    --size_;
  }
  ring_[pos(size_)] = NrbqEntry{branch_seq, branch_pc, rp_pc, 0};
  ++size_;
  rp_filter_ |= rp_bit(rp_pc);
}

void Nrbq::reach(uint64_t pc) {
  bool hit = false;
  for_each_entry([&](const NrbqEntry& e) {
    hit |= !e.reached && e.rp_pc == pc;
  });
  if (hit) {
    fold();  // the writes so far belong to the regions closing here
    for_each_entry([pc](NrbqEntry& e) {
      if (!e.reached && e.rp_pc == pc) e.reached = true;
    });
  }
  rp_filter_ = 0;
  for_each_entry([this](const NrbqEntry& e) {
    if (!e.reached) rp_filter_ |= rp_bit(e.rp_pc);
  });
}

void Nrbq::fold() {
  if (pending_ == 0) return;
  for_each_entry([this](NrbqEntry& e) {
    if (!e.reached) e.mask |= pending_;
  });
  pending_ = 0;
}

void Nrbq::on_branch_commit(uint64_t branch_seq) {
  if (size_ > 0 && ring_[head_].branch_seq == branch_seq) {
    head_ = pos(1);
    --size_;
  }
}

void Nrbq::on_branch_squash(uint64_t branch_seq) {
  if (size_ > 0 && ring_[pos(size_ - 1)].branch_seq == branch_seq) --size_;
}

uint64_t Nrbq::mask_of(uint64_t branch_seq) {
  const NrbqEntry* e = find(branch_seq);
  return e == nullptr ? 0 : e->mask;
}

const NrbqEntry* Nrbq::find(uint64_t branch_seq) {
  fold();
  for (uint32_t i = 0; i < size_; ++i) {
    const NrbqEntry& e = ring_[pos(i)];
    if (e.branch_seq == branch_seq) return &e;
  }
  return nullptr;
}

}  // namespace cfir::ci
