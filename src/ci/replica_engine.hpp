// Replica engine, paper sections 2.3.3 and 2.4.1: creates the speculative
// instances ("replicas") of vectorized instructions, issues them with the
// cycle's leftover resources (lower priority than the main thread), and
// retires them in writeback. Replicas live outside the window: branch
// squashes never touch them.
//
// Replica index k of a load entry reads anchor + stride*(k+1); replica k of
// an arithmetic entry consumes ring value (k + offset) of each vectorized
// producer (offset captured at entry creation) or a latched scalar operand.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "ci/spec_memory.hpp"
#include "ci/srsmt.hpp"
#include "core/calendar.hpp"
#include "core/pipeline.hpp"

namespace cfir::ci {

/// Why an SRSMT entry is released. DAEC and coherence releases have their
/// own deallocation counters; every other reason counts as a replacement.
enum class ReleaseReason : uint8_t {
  kReplace,        ///< a new entry for the PC or a victim of alloc()
  kDaec,           ///< DAEC aging (section 2.4.2)
  kCoherence,      ///< a committed store hit the load's range (2.4.3)
  kCreatorSquash,  ///< the creating instance was squashed
  kDesync,         ///< the poisoned ring drained
  kMisvalidation,  ///< the commit-time recheck caught a reused value
};

class ReplicaEngine {
 public:
  ReplicaEngine(core::Core& core, Srsmt& srsmt, SpecDataMemory* specmem);

  /// Creates replicas of `slot` up to the ring window
  /// [commit_count, commit_count + Nregs), as registers/slots allow.
  void materialize(uint32_t slot);

  /// Per-cycle: process due completions, retry starved materializations,
  /// then issue ready replicas with the leftover resources.
  void tick(uint64_t cycle, core::CycleResources& res);

  /// Frees every resource still owned by the entry and invalidates it.
  void release_entry(uint32_t slot, ReleaseReason why);

  /// A dynamic instance with index `abs` committed. `reused` tells whether
  /// it consumed the replica value (ownership transfer) or executed
  /// normally (the replica is dead; its register is reclaimed).
  void retire_index(uint32_t slot, uint64_t abs, bool reused);

  /// Reuse support ----------------------------------------------------------
  [[nodiscard]] bool replica_available(const SrsmtEntry& e, uint64_t abs) const;
  [[nodiscard]] bool replica_done(const SrsmtEntry& e, uint64_t abs) const;
  void register_copy_waiter(uint32_t rob_slot, uint64_t seq, uint32_t slot,
                            uint32_t uid, uint64_t abs);
  [[nodiscard]] bool try_issue_copy(uint32_t slot, uint32_t uid, uint64_t abs,
                                    uint64_t cycle, uint32_t& latency,
                                    uint64_t& value);

  /// Liveness guard: frees materialized-but-unclaimed replicas (indices at
  /// or beyond decode_count) so rename can make progress.
  void reclaim_unclaimed();

 private:
  struct Ref {
    uint32_t slot;
    uint32_t uid;
    uint64_t abs;
  };
  struct Completion {
    uint64_t when;
    Ref ref;
  };

  [[nodiscard]] bool ref_live(const Ref& r) const;
  /// Operand value for an arith replica; requires readiness checked before.
  [[nodiscard]] uint64_t operand_value(const SrsmtEntry& e,
                                       const SrsmtOperand& op,
                                       uint64_t abs) const;
  [[nodiscard]] bool operand_ready(const SrsmtEntry& e, const SrsmtOperand& op,
                                   uint64_t abs) const;
  /// Latches operand values and queues the replica (both operands ready).
  void arm_replica(uint32_t slot, SrsmtEntry& e, uint64_t abs);
  void complete(const Ref& ref);
  void notify_consumers(uint32_t producer_slot, uint32_t producer_uid,
                        uint64_t produced_abs);
  void free_replica_storage(Replica& r);

  core::Core& core_;
  Srsmt& srsmt_;
  SpecDataMemory* specmem_;  ///< null in monolithic-register-file mode

  std::deque<Ref> ready_;
  /// Issued replicas by completion cycle; replicas due at the same cycle
  /// complete in issue order.
  core::Calendar<Completion> completions_;
  std::vector<uint32_t> materialize_retry_;
  // Reused tick() scratch: ping-pongs buffers with materialize_retry_ /
  // holds resource-deferred replicas, so the per-cycle hot path stops
  // allocating once warm.
  std::vector<uint32_t> retry_scratch_;
  std::vector<Ref> deferred_scratch_;

  struct CopyWaiter {
    uint32_t rob_slot;
    uint64_t seq;
  };
  /// (slot, abs) -> waiting validation; validated lazily through the core.
  std::unordered_map<uint64_t, CopyWaiter> copy_waiters_;
  [[nodiscard]] static uint64_t waiter_key(uint32_t slot, uint64_t abs) {
    return (static_cast<uint64_t>(slot) << 40) ^ abs;
  }
};

}  // namespace cfir::ci
