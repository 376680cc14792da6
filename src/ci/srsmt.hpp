// SRSMT — Scalar Register Set Map Table, paper Figure 6 and sections
// 2.3.3-2.3.4. A 4-way x 64-set PC-indexed table; each entry manages the
// ring of speculative replicas of one vectorized instruction:
//
//   PC | set of registers | Nregs | decode | commit | issue | seq1 | seq2 |
//   DAEC | address range
//
// Replica index k (absolute, monotonically increasing) corresponds to the
// k-th dynamic instance of the instruction after the entry's anchor; for
// loads its address is anchor + stride*(k+1). Every decoded instance of the
// PC consumes one index so the ring stays aligned with the instance stream;
// a validation that cannot reuse (replica not materialized yet) simply
// executes normally and retires its index at commit.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "isa/isa.hpp"

namespace cfir::ci {

inline constexpr uint32_t kInvalidSrsmtSlot =
    std::numeric_limits<uint32_t>::max();

/// `abs % n` for a fixed n >= 1 without a division, exact for every
/// 64-bit `abs`. Power-of-two n (every replica count the figures sweep)
/// is a mask; any other n takes the direct remainder of Lemire, Kaser and
/// Kurz, "Faster remainder by direct computation" (2019): with
/// M = floor((2^128 - 1) / n) + 1, abs % n == ((M * abs mod 2^128) * n)
/// >> 128.
class RingMod {
 public:
  RingMod() = default;
  explicit RingMod(uint32_t n) : n_(n), pow2_(std::has_single_bit(n)) {
    const Wide m = ~Wide{0} / n + 1;
    m_hi_ = static_cast<uint64_t>(m >> 64);
    m_lo_ = static_cast<uint64_t>(m);
  }
  [[nodiscard]] uint32_t operator()(uint64_t abs) const {
    if (pow2_) return static_cast<uint32_t>(abs & (n_ - 1));
    const Wide low = ((static_cast<Wide>(m_hi_) << 64) | m_lo_) * abs;
    const Wide bottom = static_cast<Wide>(static_cast<uint64_t>(low)) * n_;
    const Wide top = (low >> 64) * n_;
    return static_cast<uint32_t>((top + (bottom >> 64)) >> 64);
  }

 private:
  using Wide = unsigned __int128;
  uint32_t n_ = 1;
  bool pow2_ = true;
  uint64_t m_hi_ = 0;  ///< M, kept as two words so entries stay 8-aligned
  uint64_t m_lo_ = 0;
};

/// One speculative replica (a ring element of an entry).
struct Replica {
  enum class State : uint8_t {
    kEmpty,    ///< not materialized (no register/slot allocated)
    kWaiting,  ///< waiting for producer ring values
    kReady,    ///< operands available, eligible for issue
    kIssued,   ///< executing
    kDone,     ///< value produced
  };
  State state = State::kEmpty;
  uint64_t abs_index = 0;
  int phys_reg = -1;        ///< monolithic register file mode
  int spec_slot = -1;       ///< speculative-data-memory mode
  uint64_t value = 0;       ///< kept in the ring for consumer entries
  uint64_t addr = 0;        ///< loads
  bool consumed = false;    ///< a committed validation took the register
  uint8_t waiting_ops = 0;  ///< producers still pending (arith)
  // Operand values are latched when the replica becomes ready, so ring
  // wraparound of a producer can never corrupt an already-armed replica.
  uint64_t captured_a = 0;
  uint64_t captured_b = 0;
};

/// Operand descriptor — the paper's seq1/seq2 fields: either the PC (and
/// entry identity) of a vectorized producer or a captured scalar value.
struct SrsmtOperand {
  bool present = false;
  bool is_vector = false;
  bool is_self = false;  ///< recurrence: replica k reads own replica k-1
                         ///< (the paper's I11 "ADD R4,R4,R0" needs this —
                         ///< its seq1 is its own PC)
  uint64_t producer_pc = 0;
  uint32_t producer_slot = kInvalidSrsmtSlot;
  uint32_t producer_uid = 0;
  uint64_t index_offset = 0;  ///< producer ring index = own index + offset
  uint64_t scalar_value = 0;
};

struct SrsmtEntry {
  bool valid = false;
  uint32_t uid = 0;  ///< generation id; consumers check it before reading
  uint64_t pc = 0;
  isa::Instruction inst;
  bool is_load = false;

  // Load stream state.
  int64_t stride = 0;
  uint64_t base_addr = 0;  ///< address of the anchor instance
  bool anchored = false;   ///< anchor valid (set at the creator's commit)
  uint64_t anchor_value = 0;  ///< creator's committed result (self chains)

  // Operands (arith).
  SrsmtOperand op1, op2;

  // Counters (Figure 6). Absolute indices; ring position = index % Nregs.
  uint64_t decode_count = 0;   ///< indices handed to decoded instances
  uint64_t commit_count = 0;   ///< indices retired by committed instances
  uint64_t materialized = 0;   ///< replicas created (high-water index)
  uint32_t issue_count = 0;    ///< replicas currently executing
  uint32_t daec = 0;           ///< Dead Association Elimination Counter
  uint64_t lru = 0;
  uint64_t origin_branch_pc = 0;  ///< selecting hard branch (Figure 5 credit)
  bool mat_pending = false;    ///< materialization stalled (no registers)
  bool poisoned = false;       ///< ring desynced from the architectural
                               ///< stream; no new reuses or replicas, the
                               ///< entry is released once it drains

  std::vector<Replica> ring;              ///< Nregs elements
  RingMod ring_pos;                       ///< abs -> ring position
  /// Entries whose operands read us, each slot at most twice; see
  /// add_consumer.
  std::vector<uint32_t> consumer_slots;

  [[nodiscard]] uint32_t nregs() const {
    return static_cast<uint32_t>(ring.size());
  }
  [[nodiscard]] Replica& at(uint64_t abs) { return ring[ring_pos(abs)]; }
  [[nodiscard]] const Replica& at(uint64_t abs) const {
    return ring[ring_pos(abs)];
  }
  /// Whether ring position for `abs` currently holds that absolute index.
  [[nodiscard]] bool holds(uint64_t abs) const {
    const Replica& r = at(abs);
    return r.state != Replica::State::kEmpty && r.abs_index == abs;
  }
  /// Predicted address of replica `abs` (loads).
  [[nodiscard]] uint64_t addr_of(uint64_t abs) const {
    return base_addr + static_cast<uint64_t>(stride) * (abs + 1);
  }
  /// Deallocation eligibility, paper 2.3.3: no in-flight validations and no
  /// replicas executing.
  [[nodiscard]] bool deallocatable() const {
    return decode_count == commit_count && issue_count == 0;
  }
  /// Records that the entry at `slot` has an operand that reads this one.
  /// Every (re)creation of a consumer at a slot records it again, but a
  /// slot's third and later records are dropped: a completion's walk over
  /// the list (ReplicaEngine::notify_consumers) reads nothing it changes
  /// except the consumer's own waiting counts and arm states, and only
  /// moves those toward armed, so after two visits each replica it touches
  /// is armed or parked at one pending operand and a third visit is a
  /// no-op.
  void add_consumer(uint32_t slot) {
    int seen = 0;
    for (const uint32_t c : consumer_slots) {
      if (c == slot && ++seen == 2) return;
    }
    consumer_slots.push_back(slot);
  }
};

/// The table proper. Besides each entry's `valid` flag it keeps three
/// indexes: the PC of every valid slot in one flat array, so find() reads
/// one set's tags instead of its entries; a bitmask of the valid slots,
/// so the table-wide walks (DAEC aging on a misprediction, the watchdog
/// reclaim) visit only live entries; and a bitmask of the valid load
/// entries, the only ones the store-range check on a committed store
/// concerns. Entries become valid only through alloc(), loads only
/// through mark_load(), and invalid only through invalidate(), which
/// keep the indexes in step.
class Srsmt {
 public:
  Srsmt(uint32_t sets, uint32_t ways, uint32_t replicas_per_entry);

  /// Slot of the valid entry for `pc`, or kInvalidSrsmtSlot.
  [[nodiscard]] uint32_t find(uint64_t pc) const {
    const uint32_t base = set_of(pc) * ways_;
    for (uint32_t w = 0; w < ways_; ++w) {
      if (pcs_[base + w] == pc) return base + w;
    }
    return kInvalidSrsmtSlot;
  }
  /// Allocates a slot for `pc`: free way first, then a deallocatable LRU
  /// victim (whose resources the caller must have released via the
  /// `release` callback passed here). Returns kInvalidSrsmtSlot if none.
  template <typename ReleaseFn>
  uint32_t alloc(uint64_t pc, ReleaseFn&& release) {
    const uint32_t set = set_of(pc);
    const uint32_t base = set * ways_;
    uint32_t victim = kInvalidSrsmtSlot;
    for (uint32_t w = 0; w < ways_; ++w) {
      SrsmtEntry& e = entries_[base + w];
      if (!e.valid) { victim = base + w; break; }
    }
    if (victim == kInvalidSrsmtSlot) {
      uint64_t best_lru = ~uint64_t{0};
      for (uint32_t w = 0; w < ways_; ++w) {
        SrsmtEntry& e = entries_[base + w];
        if (e.deallocatable() && e.lru < best_lru) {
          best_lru = e.lru;
          victim = base + w;
        }
      }
      if (victim == kInvalidSrsmtSlot) return kInvalidSrsmtSlot;
      release(victim);
    }
    // The new entry takes over the victim's ring and consumer storage.
    SrsmtEntry& e = entries_[victim];
    std::vector<Replica> ring = std::move(e.ring);
    std::vector<uint32_t> consumers = std::move(e.consumer_slots);
    e = SrsmtEntry{};
    ring.assign(replicas_, Replica{});
    consumers.clear();
    e.ring = std::move(ring);
    e.consumer_slots = std::move(consumers);
    e.ring_pos = ring_pos_;
    e.valid = true;
    pcs_[victim] = pc;
    live_[victim / 64] |= uint64_t{1} << (victim % 64);
    e.pc = pc;
    e.uid = ++uid_counter_;
    e.lru = ++stamp_;
    return victim;
  }

  [[nodiscard]] SrsmtEntry& entry(uint32_t slot) { return entries_[slot]; }
  [[nodiscard]] const SrsmtEntry& entry(uint32_t slot) const {
    return entries_[slot];
  }
  [[nodiscard]] uint32_t num_slots() const {
    return static_cast<uint32_t>(entries_.size());
  }
  void touch(uint32_t slot) { entries_[slot].lru = ++stamp_; }

  /// Makes the freshly allocated entry at `slot` a strided-load entry.
  void mark_load(uint32_t slot) {
    entries_[slot].is_load = true;
    loads_[slot / 64] |= uint64_t{1} << (slot % 64);
  }

  /// Marks `slot` free; its resources must already be released.
  void invalidate(uint32_t slot) {
    entries_[slot].valid = false;
    pcs_[slot] = kNoPc;
    live_[slot / 64] &= ~(uint64_t{1} << (slot % 64));
    loads_[slot / 64] &= ~(uint64_t{1} << (slot % 64));
  }

  /// Calls fn(slot) for every valid slot in ascending slot order, exactly
  /// as a walk over the whole table that skips invalid entries would:
  /// fn may invalidate entries, and a slot invalidated before the walk
  /// reaches it is skipped. The order is part of the simulated behaviour,
  /// since releases return registers to the free list in visit order.
  template <typename Fn>
  void for_each_live(Fn&& fn) {
    for_each_set(live_, fn);
  }
  /// for_each_live restricted to load entries (the store-range check).
  template <typename Fn>
  void for_each_live_load(Fn&& fn) {
    for_each_set(loads_, fn);
  }

  /// Section 3.1: 4 ways * 64 sets * 45 bytes = 11520 bytes.
  [[nodiscard]] uint64_t storage_bytes() const {
    return static_cast<uint64_t>(sets_) * ways_ * 45;
  }

 private:
  template <typename Fn>
  static void for_each_set(const std::vector<uint64_t>& mask, Fn& fn) {
    for (size_t w = 0; w < mask.size(); ++w) {
      uint64_t bits = mask[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        fn(static_cast<uint32_t>(w * 64 + static_cast<size_t>(b)));
        // Reread: fn may have invalidated later slots of this word.
        bits = b == 63 ? 0 : mask[w] & (~uint64_t{0} << (b + 1));
      }
    }
  }
  [[nodiscard]] uint32_t set_of(uint64_t pc) const {
    return static_cast<uint32_t>(pc >> 2) & (sets_ - 1);
  }

  uint32_t sets_;
  uint32_t ways_;
  uint32_t replicas_;
  uint64_t stamp_ = 0;
  uint32_t uid_counter_ = 0;
  RingMod ring_pos_;
  std::vector<SrsmtEntry> entries_;
  /// No instruction sits at this PC (PCs are multiples of kInstBytes).
  static constexpr uint64_t kNoPc = ~uint64_t{0};
  std::vector<uint64_t> pcs_;   ///< entries_[s].pc if valid, else kNoPc
  std::vector<uint64_t> live_;   ///< bit s set <=> entries_[s].valid
  std::vector<uint64_t> loads_;  ///< bit s set <=> valid and is_load
};

}  // namespace cfir::ci
