#include "ci/mechanism.hpp"

#include <cassert>

namespace cfir::ci {

using core::DynInst;
using isa::Opcode;

// Per ROB slot the core keeps a DynInst and a RAS snapshot, and this
// mechanism one RenameExt snapshot; a 408-byte budget for the three keeps
// a Core's construction cost and footprint in check at 8K-entry windows.
static_assert(sizeof(core::DynInst) +
                      sizeof(branch::ReturnAddressStack::Snapshot) +
                      sizeof(RenameExt) <=
                  408,
              "per-ROB-slot state outgrew its budget");

CiMechanism::CiMechanism(const core::CoreConfig& cfg)
    : cfg_(cfg),
      stride_(cfg.stride_sets, cfg.stride_ways),
      srsmt_(cfg.srsmt_sets, cfg.srsmt_ways, cfg.replicas),
      nrbq_(cfg.nrbq_entries) {
  if (cfg_.use_spec_memory) {
    specmem_ = std::make_unique<SpecDataMemory>(
        cfg_.spec_memory_slots, cfg_.spec_memory_latency,
        cfg_.spec_memory_read_ports, cfg_.spec_memory_write_ports);
  }
}

CiMechanism::~CiMechanism() = default;

void CiMechanism::attach(core::Core& core) {
  core_ = &core;
  engine_ = std::make_unique<ReplicaEngine>(core, srsmt_, specmem_.get());
  ext_snap_ = core::make_slot_array<RenameExt>(core.config().rob_size);
}

bool CiMechanism::vectorizable_arith(const isa::Instruction& inst) {
  // Writes rd, is neither memory nor control (CALL is control), and reads
  // at least one register (MOVI reads none).
  const uint8_t bits = isa::attrs(inst.op).bits;
  constexpr uint8_t kKind = isa::kOpDest | isa::kOpLoad | isa::kOpStore |
                            isa::kOpCondBr | isa::kOpUncondBr;
  return (bits & kKind) == isa::kOpDest &&
         (bits & (isa::kOpSrc1 | isa::kOpSrc2)) != 0;
}

// ---------------------------------------------------------------------------
// Decode: validation of previously vectorized PCs, or fresh vectorization.
// ---------------------------------------------------------------------------
void CiMechanism::on_decode(DynInst& di) {
  // CRP "reached" check (R flag, section 2.3.2); the NRBQ entries track
  // their own re-convergent points the same way.
  nrbq_.observe_pc(di.pc);
  if (crp_.active && !crp_.reached && di.pc == crp_.rp_pc) {
    crp_.reached = true;
    crp_.select_budget = cfg_.ci_select_window;
  }
  if (di.is_load || vectorizable_arith(di.inst)) validate_or_create(di);
}

void CiMechanism::validate_or_create(DynInst& di) {
  auto& stats = core_->stats();
  // A load's stride entry, looked up once per decode: nothing trains the
  // predictor before this instruction's rename, which reads the verdict
  // from di.mech.
  StridePredictor::Info sp;
  if (di.is_load) {
    sp = stride_.lookup(di.pc);
    di.mech.stride_confident = sp.known && sp.confident;
  }
  const uint32_t slot = srsmt_.find(di.pc);
  if (slot == kInvalidSrsmtSlot) {
    // No entry: consider creating one (step 3 of the paper — vectorization
    // happens the next time the selected instruction is encountered).
    if (di.is_load) {
      if (sp.known && sp.confident && sp.selected && sp.stride != 0) {
        create_load_entry(di, sp);
      }
    } else {
      create_arith_entry(di);
    }
    return;
  }

  SrsmtEntry& e = srsmt_.entry(slot);
  srsmt_.touch(slot);

  // Validation (step 4 / section 2.3.4). A poisoned (desynced) ring is a
  // standing hard failure: it re-vectorizes once quiescent.
  bool hard_fail = e.poisoned;
  bool soft_fail = false;
  if (di.is_load) {
    if (!sp.known || sp.stride != e.stride) {
      hard_fail = true;  // the stride did not keep on being the same
    } else if (!sp.confident) {
      soft_fail = true;
    } else if (!e.anchored) {
      soft_fail = true;  // creator has not committed yet
    }
  } else {
    for (const SrsmtOperand* op : {&e.op1, &e.op2}) {
      if (!op->present) continue;
      const int logical = op == &e.op1 ? di.inst.rs1 : di.inst.rs2;
      const RenameExt& x = ext_[static_cast<size_t>(logical)];
      if (op->is_self) {
        // The recurrence input must still be produced by this very entry
        // (paper: I11's seq1 is I11's own PC).
        if (!x.vs || x.seq_pc != di.pc || x.entry_uid != e.uid) {
          hard_fail = true;
          break;
        }
      } else if (op->is_vector) {
        if (!x.vs || x.seq_pc != op->producer_pc ||
            x.entry_uid != op->producer_uid) {
          hard_fail = true;  // producer identity changed
          break;
        }
      } else {
        const int ps = op == &e.op1 ? di.ps1 : di.ps2;
        if (ps < 0 || !core_->regfile().ready(ps)) {
          soft_fail = true;
        } else if (core_->regfile().value(ps) != op->scalar_value) {
          hard_fail = true;  // scalar operand changed value
          break;
        }
      }
    }
  }

  if (hard_fail && e.decode_count == e.commit_count) {
    // Quiescent: no in-flight validations reference the ring, so the entry
    // and its registers can be dropped and re-vectorized with the new
    // operands (paper 2.3.4).
    ++stats.validations_failed;
    engine_->release_entry(slot, ReleaseReason::kReplace);
    if (di.is_load) {
      if (sp.known && sp.confident && sp.selected && sp.stride != 0) {
        create_load_entry(di, sp);
      }
    } else {
      create_arith_entry(di);
    }
    return;
  }
  // A hard failure with validations still in flight degrades to a soft
  // failure: the instance executes normally (consuming its index so the
  // ring stays aligned) and the release happens at a later encounter once
  // the ring drains. Eager release here would strand the in-flight
  // validations waiting on replicas that can no longer complete.
  const bool degraded = hard_fail;

  // This dynamic instance consumes the next replica index either way so the
  // ring stays aligned with the instance stream.
  const uint64_t idx = e.decode_count;
  di.mech.index_consumed = true;
  di.mech.srsmt_slot = slot;
  di.mech.entry_uid = e.uid;
  di.mech.replica_index = idx;
  ++e.decode_count;

  if (degraded || soft_fail || !engine_->replica_available(e, idx)) {
    ++stats.validations_failed;
    return;  // executes normally; index retires at commit
  }

  // Reuse.
  di.mech.reused = true;
  if (di.is_load) {
    // The replica's address is the instruction's effective address (the
    // commit-time architectural recheck verifies this exactly).
    di.mem_addr = e.addr_of(idx);
  }
  if (specmem_ != nullptr) {
    di.mech.via_copy = true;
  } else {
    di.mech.reuse_phys = e.at(idx).phys_reg;
    assert(di.mech.reuse_phys >= 0);
  }
}

void CiMechanism::create_load_entry(DynInst& di,
                                    const StridePredictor::Info& sp) {
  auto release = [this](uint32_t victim) {
    engine_->release_entry(victim, ReleaseReason::kReplace);
  };
  const uint32_t slot = srsmt_.alloc(di.pc, release);
  if (slot == kInvalidSrsmtSlot) return;
  srsmt_.mark_load(slot);
  SrsmtEntry& e = srsmt_.entry(slot);
  e.inst = di.inst;
  e.stride = sp.stride;
  e.anchored = false;  // anchored when this instance commits
  e.origin_branch_pc = sp.origin_branch_pc;
  ++core_->stats().srsmt_allocs;
  di.mech.created_entry = true;
  di.mech.created_slot = slot;
  di.mech.created_uid = e.uid;
}

void CiMechanism::create_arith_entry(DynInst& di) {
  // Requires >=1 source produced by a live vectorized entry; scalar sources
  // must be ready so their value can be latched (the paper stalls decode in
  // this case; we simply skip and retry at the next encounter). Most
  // instances have no source whose latest writer is vectorized (V/S flag)
  // other than their own destination, and leave here.
  const isa::Instruction& inst = di.inst;
  const uint8_t bits = isa::attrs(inst.op).bits;
  const auto vs_source = [&](uint8_t src_bit, uint8_t logical) {
    return (bits & src_bit) != 0 && logical != inst.rd && ext_[logical].vs;
  };
  if (!vs_source(isa::kOpSrc1, inst.rs1) &&
      !vs_source(isa::kOpSrc2, inst.rs2)) {
    return;
  }
  struct SrcInfo {
    bool present = false;
    bool vector = false;
    bool self = false;
    const RenameExt* ext = nullptr;
    int ps = -1;
    int logical = 0;
  };
  SrcInfo s1, s2;
  if (isa::reads_rs1(di.inst.op)) {
    s1 = {true, false, false, &ext_[di.inst.rs1], di.ps1, di.inst.rs1};
  }
  if (isa::reads_rs2(di.inst.op)) {
    s2 = {true, false, false, &ext_[di.inst.rs2], di.ps2, di.inst.rs2};
  }
  bool any_vector = false;
  uint64_t origin = 0;
  for (SrcInfo* s : {&s1, &s2}) {
    if (!s->present) continue;
    if (isa::has_dest(di.inst.op) && s->logical == di.inst.rd) {
      // Accumulator recurrence (paper Figure 1, I11: ADD R4,R4,R0): the
      // operand is this instruction's own previous result.
      s->self = true;
      continue;
    }
    if (s->ext->vs) {
      const SrsmtEntry& p = srsmt_.entry(s->ext->entry_slot);
      if (p.valid && p.uid == s->ext->entry_uid) {
        s->vector = true;
        any_vector = true;
        if (origin == 0) origin = p.origin_branch_pc;
      } else {
        return;  // stale producer; do not vectorize this time
      }
    } else {
      if (s->ps < 0 || !core_->regfile().ready(s->ps)) return;
    }
  }
  if (!any_vector) return;  // chains must start at a vectorized producer

  auto release = [this](uint32_t victim) {
    engine_->release_entry(victim, ReleaseReason::kReplace);
  };
  const uint32_t slot = srsmt_.alloc(di.pc, release);
  if (slot == kInvalidSrsmtSlot) return;
  SrsmtEntry& e = srsmt_.entry(slot);
  e.inst = di.inst;
  const bool has_self = s1.self || s2.self;
  // Self-recurrent chains anchor on the creator's committed result;
  // pure feed-forward chains are live immediately.
  e.anchored = !has_self;
  e.origin_branch_pc = origin;
  auto fill = [&](SrsmtOperand& op, const SrcInfo& s) {
    if (!s.present) return;
    op.present = true;
    if (s.self) {
      op.is_self = true;
      op.producer_pc = di.pc;
      op.producer_slot = slot;
      op.producer_uid = e.uid;
      e.add_consumer(slot);  // own completions arm successors
    } else if (s.vector) {
      SrsmtEntry& p = srsmt_.entry(s.ext->entry_slot);
      op.is_vector = true;
      op.producer_pc = s.ext->seq_pc;
      op.producer_slot = s.ext->entry_slot;
      op.producer_uid = s.ext->entry_uid;
      op.index_offset = p.decode_count;
      p.add_consumer(slot);
    } else {
      op.scalar_value = core_->regfile().value(s.ps);
    }
  };
  fill(e.op1, s1);
  fill(e.op2, s2);
  ++core_->stats().srsmt_allocs;
  di.mech.created_entry = true;
  di.mech.created_slot = slot;
  di.mech.created_uid = e.uid;
  if (e.anchored) engine_->materialize(slot);
}

// ---------------------------------------------------------------------------
// Rename: stridedPC/V-S propagation, NRBQ/CRP masks, CI selection.
// ---------------------------------------------------------------------------
void CiMechanism::on_renamed(DynInst& di) {
  auto& stats = core_->stats();
  const Opcode op = di.inst.op;

  if (di.is_cond_branch && !vect_policy()) {
    const uint64_t rp =
        estimate_reconvergence_point(core_->program(), di.pc, di.inst);
    nrbq_.push(di.seq, di.pc, rp);
  }

  // CI selection (section 2.3.2): instructions past the re-convergent point
  // whose sources were not written between the branch and the RP.
  if (!vect_policy() && crp_.active && crp_.reached &&
      crp_.select_budget > 0 && !di.is_branch) {
    --crp_.select_budget;
    bool clean = true;
    int checked = 0;
    if (isa::reads_rs1(op)) {
      ++checked;
      clean &= (crp_.mask & (uint64_t{1} << di.inst.rs1)) == 0;
    }
    if (isa::reads_rs2(op)) {
      ++checked;
      clean &= (crp_.mask & (uint64_t{1} << di.inst.rs2)) == 0;
    }
    if (clean && checked > 0) {
      mark_selected();
      // Select the strided loads at the base of the backward slice for
      // speculative vectorization (sets their S flags).
      auto select_sources = [&](int logical) {
        const RenameExt& x = ext_[static_cast<size_t>(logical)];
        for (uint8_t i = 0; i < x.strided_count; ++i) {
          stride_.select(x.strided_pcs[i], crp_.branch_pc);
        }
      };
      if (isa::reads_rs1(op)) select_sources(di.inst.rs1);
      if (isa::reads_rs2(op)) select_sources(di.inst.rs2);
    }
    if (crp_.select_budget == 0) crp_.active = false;
  }

  if (!di.has_dest) return;

  // Register-write masks.
  nrbq_.on_dest_write(di.inst.rd);
  if (crp_.active && !crp_.reached) {
    crp_.mask |= uint64_t{1} << di.inst.rd;
  }

  // Rename extension update with walk-recovery snapshot. A cleared
  // extension (no stridedPCs, no V/S flag) reads the same as RenameExt{},
  // so a flag stands in for its copy.
  RenameExt& x = ext_[static_cast<size_t>(di.inst.rd)];
  if (x.strided_count == 0 && !x.vs) {
    di.mech.ext_cleared = true;
  } else {
    ext_snap_[di.slot] = x;
    di.mech.ext_saved = true;
  }

  // The new stridedPC set, written into x in place. A source that is rd
  // itself reads rd's previous extension from the snapshot just taken (a
  // cleared one has no stridedPCs). Readers look only at the PCs below
  // the count.
  uint8_t count = 0;
  if (di.is_load) {
    if (di.mech.stride_confident) x.strided_pcs[count++] = di.pc;
  } else if (vectorizable_arith(di.inst)) {
    // Union of the sources' stridedPC sets, truncated to the configured
    // per-entry budget (Figure 4 sweeps this width).
    const uint32_t cap = std::min<uint32_t>(cfg_.stridedpc_per_entry, 4);
    auto add_from = [&](int logical) {
      const RenameExt* src = &ext_[static_cast<size_t>(logical)];
      if (logical == di.inst.rd) {
        if (!di.mech.ext_saved) return;
        src = &ext_snap_[di.slot];
      }
      for (uint8_t i = 0; i < src->strided_count; ++i) {
        const uint64_t pc = src->strided_pcs[i];
        bool dup = false;
        for (uint8_t j = 0; j < count; ++j) {
          if (x.strided_pcs[j] == pc) { dup = true; break; }
        }
        if (dup) continue;
        if (count < cap) {
          x.strided_pcs[count++] = pc;
        } else {
          ++stats.stridedpc_overflows;
        }
      }
    };
    if (isa::reads_rs1(op)) add_from(di.inst.rs1);
    if (isa::reads_rs2(op)) add_from(di.inst.rs2);
    if (count > 0) {
      ++stats.stridedpc_propagations;
      stats.stridedpc_width_accum += count;
    }
  }
  x.strided_count = count;
  // V/S flag: the latest writer of this logical register is vectorized.
  // Readers look at the producer identity only under the flag.
  x.vs = false;
  const uint32_t slot = di.mech.created_entry ? di.mech.created_slot
                                              : di.mech.srsmt_slot;
  if (slot != kInvalidSrsmtSlot) {
    const SrsmtEntry& e = srsmt_.entry(slot);
    if (e.valid && e.pc == di.pc) {
      x.vs = true;
      x.seq_pc = di.pc;
      x.entry_slot = slot;
      x.entry_uid = e.uid;
    }
  }
}

// ---------------------------------------------------------------------------
// Branch resolution, squash, commit.
// ---------------------------------------------------------------------------
void CiMechanism::on_mispredict_pre(DynInst& di) {
  if (!di.is_cond_branch || vect_policy()) return;
  if (!core_->mbs().is_hard(di.pc)) return;
  ++core_->stats().hard_mispredicts;
  EpisodeStats& ep = episodes_[di.pc];
  ++ep.episodes;
  ep.cur_selected = false;
  ep.cur_reused = false;
  // Initialize the CRP from the NRBQ before the squash removes the
  // wrong-path branches (their masks count, section 2.3.2).
  const NrbqEntry* entry = nrbq_.find(di.seq);
  if (entry == nullptr) {
    crp_.active = false;  // NRBQ overflow evicted it; episode finds nothing
    return;
  }
  // The R flag starts clear: the post-recovery refetch must cross the RP.
  crp_.active = true;
  crp_.reached = false;
  crp_.rp_pc = entry->rp_pc;
  crp_.mask = entry->mask;
  crp_.branch_pc = di.pc;
  crp_.select_budget = 0;
  crp_episode_ = &ep;
}

void CiMechanism::on_branch_resolved(DynInst& /*di*/, bool mispredicted) {
  if (mispredicted) run_daec();
}

void CiMechanism::run_daec() {
  // Section 2.4.2: on every branch misprediction recovery, entries whose
  // decode and commit fields match age; at the threshold their speculative
  // work is presumed dead and the registers are reclaimed.
  srsmt_.for_each_live([&](uint32_t slot) {
    SrsmtEntry& e = srsmt_.entry(slot);
    if (e.decode_count == e.commit_count) {
      if (++e.daec >= cfg_.daec_threshold && e.issue_count == 0) {
        engine_->release_entry(slot, ReleaseReason::kDaec);
      }
    } else {
      e.daec = 0;
    }
  });
}

void CiMechanism::on_squash(DynInst& di) {
  if (di.is_cond_branch) nrbq_.on_branch_squash(di.seq);
  if (di.mech.index_consumed) {
    SrsmtEntry& e = srsmt_.entry(di.mech.srsmt_slot);
    if (e.valid && e.uid == di.mech.entry_uid) {
      // Hand the replica index back (exact equivalent of the paper's
      // "copy commit into decode": squash walks youngest-first, so indices
      // return in reverse order).
      assert(e.decode_count == di.mech.replica_index + 1);
      --e.decode_count;
    } else if (di.mech.reused && di.mech.pd_from_replica && di.pd >= 0) {
      // The entry died while this validation was in flight (hard
      // validation failure or coherence release). Ownership of the replica
      // register was transferred to this instruction at release time; the
      // squash must return it to the free list (the core skips
      // replica-owned registers).
      core_->regfile().free_reg(di.pd);
    }
  }
  if (di.mech.created_entry) {
    SrsmtEntry& e = srsmt_.entry(di.mech.created_slot);
    if (e.valid && e.uid == di.mech.created_uid) {
      // The creating instance was wrong-path speculation; drop the entry.
      engine_->release_entry(di.mech.created_slot,
                             ReleaseReason::kCreatorSquash);
    }
  }
  if (di.mech.ext_saved) {
    ext_[static_cast<size_t>(di.inst.rd)] = ext_snap_[di.slot];
  } else if (di.mech.ext_cleared) {
    ext_[static_cast<size_t>(di.inst.rd)] = RenameExt{};
  }
}

void CiMechanism::on_commit(DynInst& di) {
  if (di.is_cond_branch) nrbq_.on_branch_commit(di.seq);

  if (di.is_load) {
    if (vect_policy()) {
      // Full-blown dynamic vectorization [12]: every confident strided
      // load is selected, independent of control-independence analysis.
      stride_.train_and_select(di.pc, di.mem_addr);
    } else {
      stride_.train(di.pc, di.mem_addr);
    }
  }

  if (di.mech.created_entry) {
    SrsmtEntry& e = srsmt_.entry(di.mech.created_slot);
    if (e.valid && e.uid == di.mech.created_uid && !e.anchored) {
      // The creator's commit anchors the speculative stream: loads get
      // their architectural base address, self-recurrent chains their seed
      // value.
      e.anchored = true;
      if (e.is_load) {
        e.base_addr = di.mem_addr;
      } else {
        e.anchor_value = di.result;
      }
      engine_->materialize(di.mech.created_slot);
    }
  }

  if (di.mech.index_consumed) {
    SrsmtEntry& e = srsmt_.entry(di.mech.srsmt_slot);
    if (e.valid && e.uid == di.mech.entry_uid) {
      bool desync = false;
      if (!di.mech.reused) {
        // The instance executed normally; verify the ring still tracks the
        // architectural stream and resynchronize by release when not.
        if (e.is_load) {
          desync = e.anchored &&
                   e.addr_of(di.mech.replica_index) != di.mem_addr;
        } else if (engine_->replica_done(e, di.mech.replica_index)) {
          desync = e.at(di.mech.replica_index).value != di.result;
        }
      }
      if (desync) {
        // Younger validations may still be waiting on this ring; an eager
        // release would strand them. Poison the entry (no new reuses or
        // replicas), keep retiring indices so it drains, and release once
        // quiescent; still-speculative reuses resolve through the
        // commit-time recheck.
        e.poisoned = true;
      }
      engine_->retire_index(di.mech.srsmt_slot, di.mech.replica_index,
                            di.mech.reused);
      if (e.valid && e.poisoned && e.deallocatable()) {
        engine_->release_entry(di.mech.srsmt_slot, ReleaseReason::kDesync);
      } else if (di.mech.reused && e.valid) {
        mark_reused(e.origin_branch_pc);
      }
    }
  }
}

bool CiMechanism::on_store_commit(DynInst& di) {
  auto& stats = core_->stats();
  ++stats.store_range_checks;
  const uint64_t lo = di.mem_addr;
  const uint64_t hi = di.mem_addr + static_cast<uint64_t>(di.mem_size);
  bool conflict = false;
  srsmt_.for_each_live_load([&](uint32_t slot) {
    SrsmtEntry& e = srsmt_.entry(slot);
    if (!e.anchored || e.materialized <= e.commit_count) return;
    // Outstanding replica address range (section 2.4.3).
    const uint64_t first = e.addr_of(e.commit_count);
    const uint64_t last = e.addr_of(e.materialized - 1);
    const uint64_t rlo = std::min(first, last);
    const uint64_t rhi =
        std::max(first, last) + static_cast<uint64_t>(isa::mem_bytes(e.inst.op));
    if (lo < rhi && rlo < hi) {
      engine_->release_entry(slot, ReleaseReason::kCoherence);
      conflict = true;
    }
  });
  if (conflict) ++stats.store_range_conflicts;
  return conflict;
}

void CiMechanism::issue_cycle(uint64_t cycle, core::CycleResources& res) {
  engine_->tick(cycle, res);
}

void CiMechanism::on_misvalidation(DynInst& di) {
  SrsmtEntry& e = srsmt_.entry(di.mech.srsmt_slot);
  if (e.valid && e.uid == di.mech.entry_uid) {
    engine_->release_entry(di.mech.srsmt_slot,
                          ReleaseReason::kMisvalidation);
  }
}

void CiMechanism::on_watchdog_reclaim() { engine_->reclaim_unclaimed(); }

bool CiMechanism::copy_source_ready(const DynInst& di) {
  const SrsmtEntry& e = srsmt_.entry(di.mech.srsmt_slot);
  if (!e.valid || e.uid != di.mech.entry_uid) return false;
  return engine_->replica_done(e, di.mech.replica_index);
}

void CiMechanism::register_copy_waiter(uint32_t rob_slot, const DynInst& di) {
  engine_->register_copy_waiter(rob_slot, di.seq, di.mech.srsmt_slot,
                                di.mech.entry_uid, di.mech.replica_index);
}

bool CiMechanism::try_issue_copy(DynInst& di, uint64_t cycle,
                                 uint32_t& latency, uint64_t& value) {
  return engine_->try_issue_copy(di.mech.srsmt_slot, di.mech.entry_uid,
                                 di.mech.replica_index, cycle, latency, value);
}

// ---------------------------------------------------------------------------
// Episode accounting (Figure 5).
// ---------------------------------------------------------------------------
void CiMechanism::mark_selected() {
  EpisodeStats& ep = *crp_episode_;
  if (!ep.cur_selected) {
    ep.cur_selected = true;
    ++ep.selected;
  }
}

void CiMechanism::mark_reused(uint64_t branch_pc) {
  if (branch_pc == 0) return;  // vect policy: no episode attribution
  const auto it = episodes_.find(branch_pc);
  if (it == episodes_.end()) return;
  EpisodeStats& ep = it->second;
  if (ep.cur_reused) return;  // current episode already credited
  if (ep.cur_selected) {
    ep.cur_reused = true;
    ++ep.reused;
    return;
  }
  // The reuse outlived its selecting episode: a replica ring seeded by an
  // earlier episode of this branch keeps feeding reuse after a newer
  // episode reset the per-episode flags. Credit the earlier selecting
  // episode instead of the current one — capped at the number of selecting
  // episodes, which is what keeps ep_ci_reused <= ep_ci_selected as an
  // invariant rather than a display-side clamp.
  if (ep.reused < ep.selected) ++ep.reused;
}

void CiMechanism::finalize() {
  if (core_ == nullptr) return;
  uint64_t episodes = 0, selected = 0, reused = 0;
  for (const auto& [pc, ep] : episodes_) {
    episodes += ep.episodes;
    selected += ep.selected;
    reused += ep.reused;
  }
  auto& stats = core_->stats();
  stats.ep_total += episodes - folded_episodes_;
  stats.ep_ci_selected += selected - folded_selected_;
  stats.ep_ci_reused += reused - folded_reused_;
  folded_episodes_ = episodes;
  folded_selected_ = selected;
  folded_reused_ = reused;
}

uint64_t CiMechanism::storage_bytes() const {
  // Section 3.1 inventory. Rename extension: 16 bytes per entry * 64.
  uint64_t total = srsmt_.storage_bytes() + stride_.storage_bytes() +
                   nrbq_.storage_bytes() + Crp::storage_bytes() + 64 * 16;
  total += core_ != nullptr ? core_->mbs().storage_bytes()
                            : uint64_t{cfg_.mbs_sets} * cfg_.mbs_ways * 8;
  return total;
}

}  // namespace cfir::ci
