// Dynamic-instruction record and the mechanism hook interface through which
// the paper's control-independence machinery (src/ci) plugs into the core.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>

#include "isa/isa.hpp"

namespace cfir::core {

inline constexpr int kNoReg = -1;
inline constexpr uint32_t kInvalidSlot = std::numeric_limits<uint32_t>::max();

/// Per-ROB-slot records that nothing initializes: each is built or
/// written before anything reads it, so a short detailed unit pays for
/// the slots it uses, not for the window. Records are never destroyed,
/// only rebuilt or overwritten.
template <typename T>
struct RawFree {
  void operator()(T* p) const { ::operator delete(p); }
};
template <typename T>
using SlotArray = std::unique_ptr<T[], RawFree<T>>;

/// `n` uninitialized records. Debug builds fill them with 0xA5 bytes, so a
/// read of a record nothing built shows (see Core::at).
template <typename T>
[[nodiscard]] SlotArray<T> make_slot_array(size_t n) {
  static_assert(std::is_trivially_destructible_v<T>,
                "slot records are never destroyed, only rebuilt");
  const size_t bytes = sizeof(T) * n;
  SlotArray<T> slots(static_cast<T*>(::operator new(bytes)));
#ifndef NDEBUG
  std::memset(static_cast<void*>(slots.get()), 0xA5, bytes);
#endif
  return slots;
}

/// Per-instruction bookkeeping owned by the attached mechanism.
struct MechInfo {
  uint64_t replica_index = 0;      ///< absolute replica counter consumed
  uint64_t squash_value = 0;       ///< ci-iw: the reused result

  // Reuse state.
  int reuse_phys = kNoReg;         ///< replica register handed to rename
  uint32_t srsmt_slot = kInvalidSlot;
  uint32_t entry_uid = 0;

  // Creation state.
  uint32_t created_slot = kInvalidSlot;
  uint32_t created_uid = 0;

  bool reused = false;             ///< validated against SRSMT; skips execute
  bool via_copy = false;           ///< spec-memory mode: behaves as copy µop
  bool pd_from_replica = false;    ///< dest phys reg owned by the SRSMT entry
  bool created_entry = false;      ///< this instance allocated the SRSMT entry

  // Index bookkeeping: every decoded instance of a vectorized PC consumes a
  // replica index so the ring stays aligned with the dynamic instance
  // stream even when individual validations fail softly.
  bool index_consumed = false;

  // ci-iw (squash reuse) state: the instruction's result was found in the
  // squash-reuse buffer; the core completes it at dispatch with
  // squash_value.
  bool squash_reused = false;

  /// The mechanism saved the rename-map extension this instruction's
  /// destination replaced (Figure 7) in its own array indexed by ROB slot,
  /// so squash recovery can restore it like the rename map proper.
  bool ext_saved = false;
  /// The replaced extension was the cleared default; squash recovery
  /// restores that without a saved copy.
  bool ext_cleared = false;

  /// Loads: the stride predictor held a confident entry at decode.
  bool stride_confident = false;
};

/// One in-flight instruction (ROB entry). The core builds it in place at
/// the ROB tail; fields are ordered to pack. Cold per-instruction state
/// (the RAS snapshot of a branch, the mechanism's rename-extension
/// snapshot) lives beside it, indexed by ROB slot (`slot`), and means
/// something only while that slot holds the seq that wrote it.
struct DynInst {
  /// A fresh entry at ROB slot `slot`, as fetch builds it: identity, the
  /// decode flags of `attrs` (the row of inst.op), and a default for every
  /// field some stage may read before it writes it. Three fields start
  /// unset, because the stage that produces each writes it before
  /// anything reads it: fetch writes predicted_target for every branch
  /// and gshare_snapshot for conditional branches and RET (the only
  /// readers are their recovery and training), and issue writes a store's
  /// store_value before it can complete and commit.
  DynInst(uint32_t slot_in, uint64_t pc_in, const isa::Instruction& inst_in,
          const isa::OpAttrs& attrs)
      : pc(pc_in),
        inst(inst_in),
        mem_size(attrs.mem_bytes),
        slot(slot_in),
        has_dest((attrs.bits & isa::kOpDest) != 0),
        is_load((attrs.bits & isa::kOpLoad) != 0),
        is_store((attrs.bits & isa::kOpStore) != 0),
        is_branch((attrs.bits & (isa::kOpCondBr | isa::kOpUncondBr)) != 0),
        is_cond_branch((attrs.bits & isa::kOpCondBr) != 0) {}

  // --- identity -------------------------------------------------------------
  uint64_t seq = 0;      ///< global fetch order, never reused within a run
  uint64_t pc;
  isa::Instruction inst;

  // --- execution ------------------------------------------------------------
  uint64_t v1 = 0, v2 = 0;   ///< operand values captured at issue
  uint64_t result = 0;

  // --- memory ---------------------------------------------------------------
  uint64_t mem_addr = 0;
  uint64_t store_value;      ///< stores: written at issue

  // --- control --------------------------------------------------------------
  uint64_t predicted_target;  ///< branches: written at fetch
  uint64_t actual_target = 0;
  uint64_t gshare_snapshot;   ///< conditional branches and RET: fetch

  // --- rename ---------------------------------------------------------------
  int pd = kNoReg;       ///< destination physical register
  int prev_pd = kNoReg;  ///< mapping replaced at rename: restored on squash,
                         ///< freed at commit
  int ps1 = kNoReg;
  int ps2 = kNoReg;
  uint32_t pending_ops = 0;  ///< unready source operands
  int mem_size;
  uint32_t slot;             ///< ROB slot the entry lives in

  // --- flags ----------------------------------------------------------------
  bool has_dest;
  bool issued = false;
  bool completed = false;
  bool is_load, is_store;
  bool is_branch, is_cond_branch;
  bool predicted_taken = false;
  bool actual_taken = false;
  bool resolved = false;
  bool mispredicted = false;
  bool has_ras_snapshot = false;  ///< its ROB record holds a RAS snapshot

  // --- mechanism ------------------------------------------------------------
  MechInfo mech;
};

class Core;

/// Per-cycle leftover resources the mechanism may consume for replicas and
/// copy micro-ops (paper section 2.4.1: speculative instructions have lower
/// priority than the main thread).
struct CycleResources {
  uint32_t issue_slots = 0;
  uint32_t simple_int = 0;
  uint32_t muldiv = 0;
  uint32_t mem_ports = 0;
};

/// Hook interface implemented by the control-independence mechanism (and by
/// the vect / ci-iw baselines). The default implementation is a no-op,
/// giving the plain superscalar.
class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// Called once the core is constructed.
  virtual void attach(Core& /*core*/) {}

  /// Decode/rename time, before the destination is renamed. The hook may
  /// mark `di.mech.reused` (and related fields) to turn the instruction
  /// into a validation that skips execution, and is where vectorization of
  /// strided loads / dependents is triggered.
  virtual void on_decode(DynInst& /*di*/) {}

  /// After the destination has been renamed (`pd` assigned).
  virtual void on_renamed(DynInst& /*di*/) {}

  /// Called on a misprediction *before* the core squashes younger
  /// instructions — this is when the CRP captures the OR of the NRBQ masks
  /// from the mispredicted branch to the tail (paper section 2.3.2), which
  /// must include the wrong-path branches about to be squashed.
  virtual void on_mispredict_pre(DynInst& /*di*/) {}

  /// Branch resolution in the backend. `mispredicted` implies the core has
  /// already squashed younger instructions.
  virtual void on_branch_resolved(DynInst& /*di*/, bool /*mispredicted*/) {}

  /// The commit-time architectural recheck caught a wrong reused value; the
  /// mechanism must deallocate the offending SRSMT entry (the instruction
  /// and everything younger is about to be squashed and refetched).
  virtual void on_misvalidation(DynInst& /*di*/) {}

  /// Spec-memory mode: is the ring value for this copy µop available now?
  virtual bool copy_source_ready(const DynInst& /*di*/) { return true; }
  /// Spec-memory mode: the value is not ready — notify `wake_copy` later.
  virtual void register_copy_waiter(uint32_t /*rob_slot*/,
                                    const DynInst& /*di*/) {}
  /// Spec-memory mode: try to issue the copy µop (read-port arbitration).
  /// On success fills the data latency and the value read from the ring.
  virtual bool try_issue_copy(DynInst& /*di*/, uint64_t /*cycle*/,
                              uint32_t& /*latency*/, uint64_t& /*value*/) {
    return false;
  }

  /// Called for every squashed instruction, youngest first.
  virtual void on_squash(DynInst& /*di*/) {}

  /// In-order commit. For stores this runs *before* the memory write.
  virtual void on_commit(DynInst& /*di*/) {}

  /// Store at commit: return true when the store address conflicts with a
  /// vectorized load range (section 2.4.3); the core then squashes younger
  /// instructions and the mechanism must already have deallocated the entry.
  virtual bool on_store_commit(DynInst& /*di*/) { return false; }

  /// End-of-cycle: leftover resources for replica execution.
  virtual void issue_cycle(uint64_t /*cycle*/, CycleResources& /*res*/) {}

  /// Liveness guard: rename starved for cfg.watchdog_cycles; release
  /// speculatively-held registers.
  virtual void on_watchdog_reclaim() {}

  /// Extra commit latency for stores (the paper charges one extra cycle
  /// per store commit when the CI scheme is active, max 2 stores/cycle).
  [[nodiscard]] virtual uint32_t store_commit_extra_cycles() const { return 0; }
  [[nodiscard]] virtual uint32_t max_store_commits_per_cycle() const { return 8; }

  /// Called once after the run ends (fold deferred statistics).
  virtual void finalize() {}
};

}  // namespace cfir::core
