// CiMechanism — the paper's contribution, assembled: MBS-gated hard-branch
// filtering, NRBQ/CRP re-convergence tracking, CI instruction selection,
// stride-predictor-driven speculative vectorization through the SRSMT and
// replica engine, validation/reuse at decode, DAEC register reclamation and
// store-range memory coherence.
//
// The same class implements the `vect` baseline (reference [12] of the
// paper: full-blown dynamic vectorization) by switching the selection
// policy to "every confident strided load", with no MBS/CRP gating.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ci/replica_engine.hpp"
#include "ci/reconvergence.hpp"
#include "ci/spec_memory.hpp"
#include "ci/srsmt.hpp"
#include "ci/stride_predictor.hpp"
#include "core/pipeline.hpp"

namespace cfir::ci {

/// Rename-map extension, paper Figures 3 and 7: per logical register the
/// stridedPC set (capped at cfg.stridedpc_per_entry) plus the V/S flag and
/// the producer "sequence" (PC) with its SRSMT entry identity. Only the
/// first strided_count PCs mean anything, and the producer fields only
/// while vs is set.
struct RenameExt {
  std::array<uint64_t, 4> strided_pcs{};
  uint8_t strided_count = 0;
  bool vs = false;
  uint64_t seq_pc = 0;
  uint32_t entry_slot = kInvalidSrsmtSlot;
  uint32_t entry_uid = 0;
};

class CiMechanism : public core::Mechanism {
 public:
  explicit CiMechanism(const core::CoreConfig& cfg);
  ~CiMechanism() override;

  void attach(core::Core& core) override;
  void on_decode(core::DynInst& di) override;
  void on_renamed(core::DynInst& di) override;
  void on_mispredict_pre(core::DynInst& di) override;
  void on_branch_resolved(core::DynInst& di, bool mispredicted) override;
  void on_squash(core::DynInst& di) override;
  void on_commit(core::DynInst& di) override;
  bool on_store_commit(core::DynInst& di) override;
  void issue_cycle(uint64_t cycle, core::CycleResources& res) override;
  void on_misvalidation(core::DynInst& di) override;
  void on_watchdog_reclaim() override;
  bool copy_source_ready(const core::DynInst& di) override;
  void register_copy_waiter(uint32_t rob_slot, const core::DynInst& di) override;
  bool try_issue_copy(core::DynInst& di, uint64_t cycle, uint32_t& latency,
                      uint64_t& value) override;
  [[nodiscard]] uint32_t store_commit_extra_cycles() const override {
    return 1;  // section 2.4.3
  }
  [[nodiscard]] uint32_t max_store_commits_per_cycle() const override {
    return 2;  // section 2.4.3
  }

  /// Folds episode statistics (Figure 5) into the core's stat block; called
  /// by the simulator after the run. Incremental: only the delta since the
  /// previous call is added, so the warm-up machinery can snapshot stats
  /// mid-run (Simulator::run is re-entrant) without double counting.
  void finalize() override;

  /// Extra hardware budget of the scheme, section 3.1 (bytes).
  [[nodiscard]] uint64_t storage_bytes() const;

  // Introspection for tests and examples.
  [[nodiscard]] const Srsmt& srsmt() const { return srsmt_; }
  [[nodiscard]] const StridePredictor& stride_predictor() const {
    return stride_;
  }
  /// Mutable access for the functional-warming path, which installs a
  /// commit-order-trained stride table before the first cycle.
  [[nodiscard]] StridePredictor& stride_predictor() { return stride_; }
  [[nodiscard]] const Nrbq& nrbq() const { return nrbq_; }
  [[nodiscard]] const Crp& crp() const { return crp_; }
  [[nodiscard]] const RenameExt& rename_ext(int logical) const {
    return ext_[static_cast<size_t>(logical)];
  }

 private:
  struct EpisodeStats {
    uint64_t episodes = 0;
    uint64_t selected = 0;
    uint64_t reused = 0;
    bool cur_selected = false;
    bool cur_reused = false;
  };

  [[nodiscard]] bool vect_policy() const {
    return cfg_.policy == core::Policy::kVect;
  }
  [[nodiscard]] static bool vectorizable_arith(const isa::Instruction& inst);
  /// Validation at decode; may set the reuse fields of `di`.
  void validate_or_create(core::DynInst& di);
  void create_load_entry(core::DynInst& di, const StridePredictor::Info& sp);
  void create_arith_entry(core::DynInst& di);
  /// Credits the CRP's episode (crp_episode_) with a CI selection.
  void mark_selected();
  void mark_reused(uint64_t branch_pc);
  void run_daec();

  core::CoreConfig cfg_;
  core::Core* core_ = nullptr;
  StridePredictor stride_;
  Srsmt srsmt_;
  std::unique_ptr<SpecDataMemory> specmem_;
  std::unique_ptr<ReplicaEngine> engine_;
  Nrbq nrbq_;
  Crp crp_;
  std::array<RenameExt, isa::kNumLogicalRegs> ext_{};
  /// Per ROB slot: the extension entry a destination-writing instruction
  /// replaced at rename (valid while its DynInst::mech.ext_saved is set),
  /// restored youngest-first on squash; a replaced cleared entry is not
  /// copied but flagged (mech.ext_cleared) and restored as RenameExt{}.
  /// Uninitialized like the core's ROB: on_renamed writes a slot before
  /// any squash can read it.
  core::SlotArray<RenameExt> ext_snap_;
  std::unordered_map<uint64_t, EpisodeStats> episodes_;
  /// episodes_[crp_.branch_pc], set whenever the CRP is (re)armed; map
  /// nodes never move, so the pointer stays valid.
  EpisodeStats* crp_episode_ = nullptr;
  /// Episode totals already folded into the core stats by finalize().
  uint64_t folded_episodes_ = 0;
  uint64_t folded_selected_ = 0;
  uint64_t folded_reused_ = 0;
};

}  // namespace cfir::ci
