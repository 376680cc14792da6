// The out-of-order core: an 8-wide, RUU-style superscalar with wrong-path
// fetch and execution, walk-based rename recovery, an LSQ, a wide-bus
// memory stage and in-order commit with an architectural recheck.
//
// This is the SimpleScalar-sim-outorder-equivalent substrate the paper
// extends; the control-independence machinery attaches through the
// Mechanism hook interface (core/types.hpp).
//
// The scheduler (docs/architecture.md "Detailed core scheduler") uses flat
// structures that allocate nothing per cycle once warm: a cycle-bucketed
// calendar ring for completion events, intrusive seq-sorted lists for the
// ready and stalled-memory sets, a free-listed waiter pool, and a small
// insertion-ordered ring for the wide-bus line buffers. Fetch builds each
// DynInst in place at the ROB tail and dispatch finishes it there; cold
// per-instruction state sits beside it, indexed by ROB slot.
// Golden.DetailedCore* (tests/test_golden.cpp) pins its SimStats and cycle
// counts; bench/micro_detailed measures its throughput.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "branch/gshare.hpp"
#include "branch/mbs.hpp"
#include "branch/ras.hpp"
#include "core/config.hpp"
#include "core/func_units.hpp"
#include "core/lsq.hpp"
#include "core/regfile.hpp"
#include "core/rename.hpp"
#include "core/types.hpp"
#include "isa/program.hpp"
#include "mem/hierarchy.hpp"
#include "mem/main_memory.hpp"
#include "stats/stats.hpp"

namespace cfir::obs {
class Counter;
class Histogram;
}  // namespace cfir::obs

namespace cfir::core {

/// One architecturally committed instruction, as delivered to the batched
/// commit observer. Carries exactly what downstream consumers (the trace
/// recorder, tests) rebuild their records from; field semantics match the
/// committing DynInst.
struct CommitRecord {
  uint64_t pc = 0;
  uint64_t mem_addr = 0;       ///< loads/stores only
  uint64_t actual_target = 0;  ///< conditional branches only
  isa::Opcode op = isa::Opcode::kNop;
  uint8_t mem_size = 0;        ///< loads/stores only: access bytes
  bool is_cond_branch = false;
  bool is_load = false;
  bool is_store = false;
  bool actual_taken = false;   ///< conditional branches only
};

class Core {
 public:
  /// `mechanism` may be null (plain superscalar). `memory` must already hold
  /// the program's data image.
  Core(const CoreConfig& config, const isa::Program& program,
       mem::MainMemory& memory, Mechanism* mechanism);

  /// Runs until `max_commits` instructions commit, HALT commits, or the
  /// program runs off its image. Throws std::runtime_error on deadlock
  /// (which indicates a simulator bug, not a program property).
  void run(uint64_t max_commits);

  /// Executes a single cycle (tests drive this directly).
  void step_cycle();

  [[nodiscard]] bool halted() const { return halted_; }
  [[nodiscard]] uint64_t cycle() const { return cycle_; }
  [[nodiscard]] const stats::SimStats& stats() const { return stats_; }
  [[nodiscard]] stats::SimStats& stats() { return stats_; }

  // --- architectural state (commit order) ---------------------------------
  [[nodiscard]] uint64_t arch_reg(int logical) const {
    return arch_regs_[static_cast<size_t>(logical)];
  }

  /// Seeds the architectural state before the first cycle: logical register
  /// values (mirrored into the current physical mapping) and the fetch PC.
  /// Used to resume simulation from a checkpoint (src/trace/); `memory` must
  /// already hold the checkpointed image.
  void set_arch_state(const std::array<uint64_t, isa::kNumLogicalRegs>& regs,
                      uint64_t pc);

  /// Batched commit observer (same contract as
  /// isa::FunctionalEngine::on_block): spans of architecturally committed
  /// instructions (HALT included), in commit order. Spans are delivered
  /// when the fixed internal buffer fills and flushed at the end of every
  /// run() call; leave empty for zero overhead beyond one branch per
  /// commit. Callers driving step_cycle() directly call flush_commit_span()
  /// to drain the tail.
  std::function<void(const CommitRecord* records, size_t n)> on_commit_span;

  /// Delivers any buffered commit records to on_commit_span now. run()
  /// calls this before returning; only direct step_cycle() drivers need it.
  void flush_commit_span();

  // --- services used by the attached mechanism -----------------------------
  [[nodiscard]] const CoreConfig& config() const { return cfg_; }
  [[nodiscard]] const isa::Program& program() const { return program_; }
  [[nodiscard]] mem::MainMemory& memory() { return mem_; }
  [[nodiscard]] mem::CacheHierarchy& hierarchy() { return hierarchy_; }
  [[nodiscard]] PhysRegFile& regfile() { return regfile_; }
  [[nodiscard]] branch::MbsTable& mbs() { return mbs_; }
  // Branch-prediction state, exposed so the functional-warming path
  // (trace/warming.hpp) can install pre-trained predictor state before the
  // first cycle and so differential tests can digest it after a run.
  [[nodiscard]] branch::Gshare& gshare() { return gshare_; }
  [[nodiscard]] branch::ReturnAddressStack& ras() { return ras_; }
  [[nodiscard]] int rename_lookup(int logical) const {
    return rename_.lookup(logical);
  }

  /// Mechanism wrote `phys` (replica result): wake anything waiting on it.
  void replica_written(int phys);

  /// Mechanism signals the copy source of a waiting reused instruction is
  /// now available.
  void wake_copy(uint32_t rob_slot, uint64_t seq);

  /// Timed load issued by the replica engine. Honours wide-bus batching and
  /// port limits for the current cycle; returns false when no port (or
  /// batching slot) is available. On success `latency_out` is the cycles
  /// until data availability.
  bool try_replica_load_access(uint64_t addr, uint32_t& latency_out);

  /// Remaining L1D ports this cycle (after scalar issue).
  [[nodiscard]] uint32_t mem_ports_left() const {
    return fu_.mem_ports_left();
  }

 private:
  struct Event {
    uint64_t when;
    uint64_t seq;
    uint32_t slot;
  };

  // Stages (executed in this order each cycle).
  void commit_stage();
  void writeback_stage();
  void issue_stage();
  void fetch_stage();

  // Helpers.
  [[nodiscard]] DynInst& at(uint32_t slot) {
    assert(rob_[slot].di.slot == slot && "ROB slot read before fetch built it");
    return rob_[slot].di;
  }
  /// Whether the (slot, seq) an event, waiter or ready node recorded still
  /// names a live instruction. Recorded seqs are >= 1 (next_seq_ starts at
  /// 1) and never reused, and commit and squash both zero rob_[slot].seq
  /// before a slot leaves the window, so the seq match alone decides.
  ///
  /// The ROB is raw storage that fetch builds record by record, and this
  /// never reads an unbuilt one: every (slot, seq) that an event, waiter
  /// or ready node records comes from a fetch, which built that slot
  /// first, and a built slot stays built (commit and squash only zero its
  /// seq). The head and tail walks of commit and squash read only slots
  /// inside the window.
  [[nodiscard]] bool slot_live(uint32_t slot, uint64_t seq) const {
    assert(rob_[slot].di.slot == slot && "ROB slot read before fetch built it");
    return rob_[slot].di.seq == seq;
  }
  [[nodiscard]] uint32_t rob_tail_slot() const;
  /// Renames and schedules the entry fetch built in place at `slot`.
  void dispatch(uint32_t slot);
  bool try_issue(uint32_t slot);
  bool issue_mem(DynInst& di);
  void execute(DynInst& di, uint32_t slot, uint32_t latency);
  void complete(uint32_t slot);
  void resolve_branch(uint32_t slot);
  void schedule_completion(uint32_t slot, uint64_t seq, uint64_t when);
  void add_waiter(int phys, uint32_t slot, uint64_t seq);
  void wake_reg(int phys);
  /// Squashes everything strictly younger than `seq` and redirects fetch.
  void recover_to(uint64_t seq, uint64_t new_fetch_pc, uint64_t resume_delay);
  void squash_younger(uint64_t seq);
  /// Architectural recheck of the head instruction; returns false and
  /// triggers recovery when the executed result is not architectural.
  bool commit_check(DynInst& di);
  void apply_commit(DynInst& di);
  void record_commit(const DynInst& di);

  // --- configuration and attached subsystems --------------------------------
  CoreConfig cfg_;
  const isa::Program& program_;
  mem::MainMemory& mem_;
  Mechanism* mech_;
  mem::CacheHierarchy hierarchy_;
  branch::Gshare gshare_;
  branch::ReturnAddressStack ras_;
  branch::MbsTable mbs_;
  PhysRegFile regfile_;
  RenameMap rename_;
  LoadStoreQueue lsq_;
  FuPool fu_;
  stats::SimStats stats_;

  // --- ROB ring --------------------------------------------------------------
  // One record per slot: the instruction, rebuilt in place by every
  // fetch, and the RAS snapshot that only conditional branches and RET
  // write (DynInst::has_ras_snapshot) and only their recovery reads. One
  // allocation holds both, and it is a SlotArray: nothing initializes a
  // record but fetch's construct_at (see slot_live), so a short detailed
  // unit pays for the slots it uses, not for the window (2.5 MB at 8K
  // entries). In Debug builds at() and slot_live() catch a read of a slot
  // fetch never built.
  struct RobSlot {
    DynInst di;
    branch::ReturnAddressStack::Snapshot ras;
  };
  SlotArray<RobSlot> rob_;
  uint32_t rob_head_ = 0;
  uint32_t rob_count_ = 0;

  // --- wakeup/select ---------------------------------------------------------
  // Completion events live in a cycle-bucketed calendar ring: bucket
  // (when & mask) holds the events due at `when` (latencies are bounded by
  // CoreConfig; anything beyond the ring horizon parks in cal_overflow_
  // and migrates as the horizon advances). Draining time T completes the
  // events due at T in ascending seq order.
  static constexpr uint32_t kCalBuckets = 256;  // power of two
  std::vector<std::vector<Event>> cal_;
  std::vector<Event> cal_overflow_;
  std::vector<Event> cal_scratch_;
  uint64_t cal_next_drain_ = 0;

  // The ready set is a seq-sorted doubly-linked list of pooled nodes that
  // select walks oldest first. Invalidation is lazy: a squashed entry stays
  // until select inspects it, and every inspection, stale or not, counts
  // against the per-cycle inspect limit. A refused entry keeps its place.
  struct ReadyNode {
    uint64_t seq = 0;
    uint32_t slot = 0;
    int32_t prev = -1;
    int32_t next = -1;
  };
  std::vector<ReadyNode> ready_pool_;
  int32_t ready_free_ = -1;
  int32_t ready_head_ = -1;
  int32_t ready_tail_ = -1;
  void ready_push(uint64_t seq, uint32_t slot);
  void ready_unlink(int32_t node);

  // Stalled memory ops thread an intrusive seq-sorted list through ROB
  // slots. A slot is in the list at most once, and squash unlinks eagerly,
  // so every listed entry is live and rob_[slot].seq is its sort key.
  std::vector<int32_t> smem_next_;
  std::vector<int32_t> smem_prev_;
  int32_t smem_head_ = -1;
  int32_t smem_tail_ = -1;
  static constexpr int32_t kUnlinked = -2;
  void smem_insert(uint32_t slot, uint64_t seq);
  void smem_unlink(uint32_t slot);

  // Retry gating for stalled loads: a refused issue_mem attempt has no side
  // effects beyond recomputing the (fixed) address, and its outcome depends
  // only on the LSQ's store population — disambiguation and forwarding
  // consult older stores exclusively — plus, for the port-starved case,
  // data-port availability. lsq_store_epoch_ bumps
  // whenever a store issues (addr+value become known) or leaves the LSQ
  // (commit or squash); a stalled load whose recorded epoch is current is
  // provably refused again and is skipped without replaying the attempt.
  // Port-starved loads additionally retry whenever a port is free (and
  // always under wide_bus, where a line-buffer hit can serve them portless).
  uint64_t lsq_store_epoch_ = 0;
  bool mem_fail_port_ = false;  ///< set by issue_mem on the refusing path
  std::vector<uint64_t> smem_gate_epoch_;
  std::vector<uint8_t> smem_gate_port_;

  // Register waiters draw nodes from one free-listed pool; each physical
  // register keeps a FIFO chain. A wake detaches the whole chain before
  // walking it, so waiters added during the walk wait for the next wake.
  struct WaiterNode {
    uint64_t seq = 0;
    uint32_t slot = 0;
    int32_t next = -1;
  };
  std::vector<WaiterNode> waiter_pool_;
  int32_t waiter_free_ = -1;
  std::vector<int32_t> reg_wait_head_;
  std::vector<int32_t> reg_wait_tail_;

  // --- wide-bus line buffers -----------------------------------------------
  // A wide access reads the whole line into a short-lived buffer; up to
  // cfg.wide_bus_loads_per_access loads can be served from it (section
  // 2.4.5) within a small window, without extra cache accesses or ports.
  // The buffers form a small insertion-ordered ring searched newest-first,
  // so a line's newest insert shadows older ones. Aging is lazy: insert
  // order is cycle order, so the search stops at the first expired entry.
  // Sized so a live entry (<= window+1 cycles old, <= cache_ports
  // inserts/cycle) is never overwritten while live.
  static constexpr uint64_t kLineBufferWindow = 8;
  bool line_ring_lookup(uint64_t line, uint32_t& latency_out);
  void line_ring_insert(uint64_t line, uint32_t latency);
  struct LineSlot {
    uint64_t line = ~uint64_t{0};
    uint64_t ready_cycle = 0;
    uint64_t expire_cycle = 0;
    uint32_t uses = 0;
  };
  std::vector<LineSlot> line_ring_;
  uint32_t line_ring_mask_ = 0;
  uint32_t line_ring_pos_ = 0;
  uint64_t line_ring_fill_ = 0;  ///< slots ever written (validity horizon)

  // --- batched commit observer ----------------------------------------------
  static constexpr size_t kCommitSpan = 256;
  std::array<CommitRecord, kCommitSpan> commit_buf_;
  size_t commit_buf_n_ = 0;

  // --- observability (obs::Registry; host telemetry, never SimStats) --------
  obs::Counter* obs_cycles_ = nullptr;
  obs::Counter* obs_flushes_ = nullptr;
  obs::Histogram* obs_rob_occupancy_ = nullptr;
  uint64_t flushes_ = 0;           ///< recover_to invocations (pipeline flushes)
  uint64_t obs_cycles_exported_ = 0;
  uint64_t obs_flushes_exported_ = 0;

  // --- fetch -------------------------------------------------------------------
  uint64_t fetch_pc_ = 0;
  uint64_t fetch_resume_cycle_ = 0;
  bool fetch_stalled_ = false;  ///< ran off the image / hit HALT; waits redirect
  uint64_t last_fetch_line_ = ~uint64_t{0};
  uint64_t next_seq_ = 1;

  // --- architectural ------------------------------------------------------------
  std::array<uint64_t, isa::kNumLogicalRegs> arch_regs_{};
  uint64_t cycle_ = 0;
  bool halted_ = false;
  uint64_t committed_target_ = UINT64_MAX;
  uint64_t last_commit_cycle_ = 0;
  uint64_t rename_starved_since_ = 0;
  uint32_t stores_committed_this_cycle_ = 0;
  uint32_t commit_slots_used_ = 0;
};

}  // namespace cfir::core
