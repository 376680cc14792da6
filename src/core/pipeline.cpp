#include "core/pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace cfir::core {

using isa::Opcode;

Core::Core(const CoreConfig& config, const isa::Program& program,
           mem::MainMemory& memory, Mechanism* mechanism)
    : cfg_(config),
      program_(program),
      mem_(memory),
      mech_(mechanism),
      hierarchy_(config.memory),
      gshare_(config.gshare_entries, config.gshare_history_bits),
      mbs_(config.mbs_sets, config.mbs_ways),
      regfile_(config.num_phys_regs),
      lsq_(config.lsq_size),
      fu_(cfg_) {
  if (cfg_.num_phys_regs < isa::kNumLogicalRegs + 8) {
    throw std::runtime_error("num_phys_regs too small for the logical file");
  }
  rob_.resize(cfg_.rob_size);
  cal_.resize(kCalBuckets);
  smem_next_.assign(cfg_.rob_size, kUnlinked);
  smem_prev_.assign(cfg_.rob_size, kUnlinked);
  smem_gate_epoch_.assign(cfg_.rob_size, 0);
  smem_gate_port_.assign(cfg_.rob_size, 0);
  reg_wait_head_.assign(cfg_.num_phys_regs, -1);
  reg_wait_tail_.assign(cfg_.num_phys_regs, -1);
  // Live line-buffer entries are at most (window + 1 cycles of history)
  // x (<= cache_ports inserts/cycle); size the ring 2x that so a lookup
  // always sees every live entry.
  uint32_t ring = 64;
  const uint32_t need = static_cast<uint32_t>(kLineBufferWindow + 2) *
                        std::max<uint32_t>(1, cfg_.cache_ports) * 2;
  while (ring < need) ring <<= 1;
  line_ring_.assign(ring, LineSlot{});
  line_ring_mask_ = ring - 1;
  obs::Registry& reg = obs::Registry::instance();
  obs_cycles_ = &reg.counter("core.cycles");
  obs_flushes_ = &reg.counter("core.flushes");
  obs_rob_occupancy_ = &reg.histogram("core.rob_occupancy");
  // Initial architectural mapping: one physical register per logical, value 0.
  for (int l = 0; l < isa::kNumLogicalRegs; ++l) {
    const int p = regfile_.alloc();
    regfile_.write(p, 0);
    rename_.remap(l, p);
  }
  fetch_pc_ = program_.base();
  if (mech_ != nullptr) mech_->attach(*this);
}

void Core::set_arch_state(
    const std::array<uint64_t, isa::kNumLogicalRegs>& regs, uint64_t pc) {
  if (cycle_ != 0 || rob_count_ != 0) {
    throw std::runtime_error("set_arch_state: core already running");
  }
  for (int l = 0; l < isa::kNumLogicalRegs; ++l) {
    arch_regs_[static_cast<size_t>(l)] = regs[static_cast<size_t>(l)];
    regfile_.write(rename_.lookup(l), regs[static_cast<size_t>(l)]);
  }
  fetch_pc_ = pc;
}

uint32_t Core::rob_tail_slot() const {
  return (rob_head_ + rob_count_) % static_cast<uint32_t>(rob_.size());
}

void Core::schedule_completion(uint32_t slot, uint64_t seq, uint64_t when) {
  // Almost every event lands within the ring horizon; the rare deeper
  // latency parks in the overflow vector and migrates during drain.
  if (when - cycle_ < kCalBuckets) {
    cal_[when & (kCalBuckets - 1)].push_back({when, seq, slot});
    // A zero-latency completion scheduled after this cycle's drain (the
    // copy-issue path) must re-open its time slot.
    if (when < cal_next_drain_) cal_next_drain_ = when;
  } else {
    cal_overflow_.push_back({when, seq, slot});
  }
}

void Core::add_waiter(int phys, uint32_t slot, uint64_t seq) {
  int32_t n;
  if (waiter_free_ >= 0) {
    n = waiter_free_;
    waiter_free_ = waiter_pool_[static_cast<size_t>(n)].next;
  } else {
    n = static_cast<int32_t>(waiter_pool_.size());
    waiter_pool_.push_back({});
  }
  WaiterNode& node = waiter_pool_[static_cast<size_t>(n)];
  node.seq = seq;
  node.slot = slot;
  node.next = -1;
  const size_t p = static_cast<size_t>(phys);
  if (reg_wait_tail_[p] >= 0) {
    waiter_pool_[static_cast<size_t>(reg_wait_tail_[p])].next = n;
  } else {
    reg_wait_head_[p] = n;
  }
  reg_wait_tail_[p] = n;
}

void Core::ready_push(uint64_t seq, uint32_t slot) {
  int32_t n;
  if (ready_free_ >= 0) {
    n = ready_free_;
    ready_free_ = ready_pool_[static_cast<size_t>(n)].next;
  } else {
    n = static_cast<int32_t>(ready_pool_.size());
    ready_pool_.push_back({});
  }
  ReadyNode& node = ready_pool_[static_cast<size_t>(n)];
  node.seq = seq;
  node.slot = slot;
  // Insert keeping ascending seq. Dispatch pushes the globally newest seq
  // (O(1) tail append). Wake-ups scan from whichever end is nearer by seq
  // distance — seqs are dense (one per dispatch), so this stays O(1)-ish
  // even right after a squash leaves a run of stale high-seq nodes at the
  // tail while survivors wake near the head.
  int32_t after;
  if (ready_tail_ < 0 ||
      seq >= ready_pool_[static_cast<size_t>(ready_tail_)].seq) {
    after = ready_tail_;
  } else if (seq <= ready_pool_[static_cast<size_t>(ready_head_)].seq) {
    after = -1;
  } else if (seq - ready_pool_[static_cast<size_t>(ready_head_)].seq <
             ready_pool_[static_cast<size_t>(ready_tail_)].seq - seq) {
    int32_t before = ready_head_;
    while (ready_pool_[static_cast<size_t>(before)].seq <= seq) {
      before = ready_pool_[static_cast<size_t>(before)].next;
    }
    after = ready_pool_[static_cast<size_t>(before)].prev;
  } else {
    after = ready_tail_;
    while (after >= 0 && ready_pool_[static_cast<size_t>(after)].seq > seq) {
      after = ready_pool_[static_cast<size_t>(after)].prev;
    }
  }
  node.prev = after;
  if (after >= 0) {
    node.next = ready_pool_[static_cast<size_t>(after)].next;
    ready_pool_[static_cast<size_t>(after)].next = n;
  } else {
    node.next = ready_head_;
    ready_head_ = n;
  }
  if (node.next >= 0) {
    ready_pool_[static_cast<size_t>(node.next)].prev = n;
  } else {
    ready_tail_ = n;
  }
}

void Core::ready_unlink(int32_t n) {
  ReadyNode& node = ready_pool_[static_cast<size_t>(n)];
  if (node.prev >= 0) {
    ready_pool_[static_cast<size_t>(node.prev)].next = node.next;
  } else {
    ready_head_ = node.next;
  }
  if (node.next >= 0) {
    ready_pool_[static_cast<size_t>(node.next)].prev = node.prev;
  } else {
    ready_tail_ = node.prev;
  }
  node.next = ready_free_;
  node.prev = -1;
  ready_free_ = n;
}

void Core::smem_insert(uint32_t slot, uint64_t seq) {
  const int32_t s = static_cast<int32_t>(slot);
  assert(smem_next_[slot] == kUnlinked && "slot already stalled");
  // Sorted by seq ascending; listed entries are always live (squash unlinks
  // eagerly), so rob_[p].seq IS the entry's sort key.
  int32_t after = smem_tail_;
  while (after >= 0 && rob_[static_cast<uint32_t>(after)].seq > seq) {
    after = smem_prev_[static_cast<size_t>(after)];
  }
  smem_prev_[slot] = after;
  if (after >= 0) {
    smem_next_[slot] = smem_next_[static_cast<size_t>(after)];
    smem_next_[static_cast<size_t>(after)] = s;
  } else {
    smem_next_[slot] = smem_head_;
    smem_head_ = s;
  }
  if (smem_next_[slot] >= 0) {
    smem_prev_[static_cast<size_t>(smem_next_[slot])] = s;
  } else {
    smem_tail_ = s;
  }
}

void Core::smem_unlink(uint32_t slot) {
  if (smem_next_[slot] == kUnlinked) return;
  const int32_t nxt = smem_next_[slot];
  const int32_t prv = smem_prev_[slot];
  if (prv >= 0) {
    smem_next_[static_cast<size_t>(prv)] = nxt;
  } else {
    smem_head_ = nxt;
  }
  if (nxt >= 0) {
    smem_prev_[static_cast<size_t>(nxt)] = prv;
  } else {
    smem_tail_ = prv;
  }
  smem_next_[slot] = kUnlinked;
  smem_prev_[slot] = kUnlinked;
}

void Core::wake_reg(int phys) {
  // Detach the chain first: waiters added during the walk start a fresh
  // chain woken next time.
  int32_t n = reg_wait_head_[static_cast<size_t>(phys)];
  if (n < 0) return;
  reg_wait_head_[static_cast<size_t>(phys)] = -1;
  reg_wait_tail_[static_cast<size_t>(phys)] = -1;
  while (n >= 0) {
    const WaiterNode w = waiter_pool_[static_cast<size_t>(n)];
    waiter_pool_[static_cast<size_t>(n)].next = waiter_free_;
    waiter_free_ = n;
    n = w.next;
    if (!slot_live(w.slot, w.seq)) continue;
    DynInst& di = at(w.slot);
    if (di.completed || di.issued) continue;
    if (di.mech.reused && !di.mech.via_copy) {
      // Validation instruction waiting for its replica: completes without
      // touching the issue machinery (paper section 2.3.4).
      schedule_completion(w.slot, w.seq, cycle_ + 1);
    } else if (di.pending_ops > 0) {
      if (--di.pending_ops == 0) ready_push(w.seq, w.slot);
    }
  }
}

void Core::replica_written(int phys) { wake_reg(phys); }

void Core::wake_copy(uint32_t rob_slot, uint64_t seq) {
  if (!slot_live(rob_slot, seq)) return;
  DynInst& di = at(rob_slot);
  if (di.pending_ops > 0 && --di.pending_ops == 0) {
    ready_push(seq, rob_slot);
  }
}

bool Core::line_ring_lookup(uint64_t line, uint32_t& latency_out) {
  // Newest-first: the most recent insert for a line shadows older ones.
  // Entries are inserted in cycle order, so the first expired entry ends
  // the search (everything older is expired too, and expired entries
  // always miss).
  const uint32_t size = static_cast<uint32_t>(line_ring_.size());
  const uint32_t valid =
      static_cast<uint32_t>(std::min<uint64_t>(line_ring_fill_, size));
  for (uint32_t k = 0; k < valid; ++k) {
    LineSlot& ls = line_ring_[(line_ring_pos_ - 1 - k) & line_ring_mask_];
    if (cycle_ > ls.expire_cycle) break;
    if (ls.line != line) continue;
    if (ls.uses >= cfg_.wide_bus_loads_per_access) return false;
    ++ls.uses;
    ++stats_.loads_piggybacked;
    latency_out = ls.ready_cycle > cycle_
                      ? static_cast<uint32_t>(ls.ready_cycle - cycle_)
                      : 1;
    return true;
  }
  return false;
}

void Core::line_ring_insert(uint64_t line, uint32_t latency) {
  LineSlot& ls = line_ring_[line_ring_pos_ & line_ring_mask_];
  ++line_ring_pos_;
  if (line_ring_fill_ < line_ring_.size()) ++line_ring_fill_;
  ls.line = line;
  ls.ready_cycle = cycle_ + latency;
  ls.expire_cycle = cycle_ + kLineBufferWindow;
  ls.uses = 1;
}

bool Core::try_replica_load_access(uint64_t addr, uint32_t& latency_out) {
  const uint64_t line = addr / cfg_.memory.l1d.line_bytes;
  if (cfg_.wide_bus && line_ring_lookup(line, latency_out)) return true;
  if (!fu_.try_reserve_mem_port()) return false;
  const uint32_t lat = hierarchy_.access_data(addr, false, cycle_);
  if (cfg_.wide_bus) {
    ++stats_.wide_accesses;
    line_ring_insert(line, lat);
  }
  latency_out = lat;
  return true;
}

// ---------------------------------------------------------------------------
// Fetch / decode / rename / dispatch (fused front end; the branch
// misprediction penalty models the refill depth).
// ---------------------------------------------------------------------------
void Core::fetch_stage() {
  if (halted_ || fetch_stalled_ || cycle_ < fetch_resume_cycle_) return;
  uint32_t fetched = 0;
  while (fetched < cfg_.fetch_width) {
    if (rob_count_ >= rob_.size()) break;
    const isa::Instruction* ip = program_.try_at(fetch_pc_);
    if (ip == nullptr) {
      // Wrong-path fetch ran off the image (or the program ended): stall
      // until a recovery redirects us, or drain to completion.
      fetch_stalled_ = true;
      break;
    }
    // Instruction cache: one access per new line.
    const uint64_t line = fetch_pc_ / cfg_.memory.l1i.line_bytes;
    if (line != last_fetch_line_) {
      const uint32_t lat = hierarchy_.access_inst(fetch_pc_, cycle_);
      last_fetch_line_ = line;
      if (lat > cfg_.memory.l1i.hit_latency) {
        fetch_resume_cycle_ = cycle_ + lat;
        break;
      }
    }
    const isa::Instruction inst = *ip;
    if (isa::is_mem(inst.op) && lsq_.full()) break;
    if (isa::has_dest(inst.op) && regfile_.free_count() == 0) {
      // Rename starvation; the watchdog eventually reclaims speculative
      // registers so that replica hoarding can never wedge the machine.
      ++stats_.rename_stall_cycles;
      if (rename_starved_since_ == 0) rename_starved_since_ = cycle_;
      if (cycle_ - rename_starved_since_ >= cfg_.watchdog_cycles &&
          mech_ != nullptr) {
        mech_->on_watchdog_reclaim();
        ++stats_.watchdog_reclaims;
        rename_starved_since_ = cycle_;
      }
      break;
    }
    rename_starved_since_ = 0;

    DynInst di;
    di.pc = fetch_pc_;
    di.inst = inst;
    uint64_t next_fetch = fetch_pc_ + isa::kInstBytes;
    bool taken = false;
    if (isa::is_cond_branch(inst.op)) {
      di.predicted_taken = gshare_.predict(fetch_pc_);
      di.gshare_snapshot = gshare_.speculate(di.predicted_taken);
      di.predicted_target = di.predicted_taken
                                ? static_cast<uint64_t>(inst.imm)
                                : fetch_pc_ + isa::kInstBytes;
      di.ras_snapshot = ras_.snapshot();
      di.has_ras_snapshot = true;
      taken = di.predicted_taken;
      if (taken) next_fetch = di.predicted_target;
    } else if (inst.op == Opcode::kJmp || inst.op == Opcode::kCall) {
      di.predicted_taken = true;
      di.predicted_target = static_cast<uint64_t>(inst.imm);
      if (inst.op == Opcode::kCall) ras_.push(fetch_pc_ + isa::kInstBytes);
      taken = true;
      next_fetch = di.predicted_target;
    } else if (inst.op == Opcode::kRet) {
      di.gshare_snapshot = gshare_.history();
      di.ras_snapshot = ras_.snapshot();
      di.has_ras_snapshot = true;
      di.predicted_taken = true;
      di.predicted_target = ras_.pop();
      taken = true;
      next_fetch = di.predicted_target;
    } else if (inst.op == Opcode::kHalt) {
      fetch_stalled_ = true;  // nothing sensible follows a halt
    }

    dispatch(std::move(di));
    ++fetched;
    fetch_pc_ = next_fetch;
    if (taken) break;  // up to 1 taken branch per cycle (Table 1)
  }
}

void Core::dispatch(DynInst di) {
  di.seq = next_seq_++;
  ++stats_.fetched;
  const Opcode op = di.inst.op;
  di.is_load = isa::is_load(op);
  di.is_store = isa::is_store(op);
  di.is_branch = isa::is_branch(op);
  di.is_cond_branch = isa::is_cond_branch(op);
  di.has_dest = isa::has_dest(op);
  di.mem_size = isa::mem_bytes(op);
  if (isa::reads_rs1(op)) di.ps1 = rename_.lookup(di.inst.rs1);
  if (isa::reads_rs2(op)) di.ps2 = rename_.lookup(di.inst.rs2);

  if (mech_ != nullptr) mech_->on_decode(di);

  if (di.has_dest) {
    if (di.mech.reused && !di.mech.via_copy) {
      di.pd = di.mech.reuse_phys;
      di.mech.pd_from_replica = true;
    } else {
      di.pd = regfile_.alloc();
      assert(di.pd >= 0 && "fetch checked the free list");
    }
    di.prev_pd = di.old_pd = rename_.remap(di.inst.rd, di.pd);
  }

  const uint32_t slot = rob_tail_slot();
  const uint64_t seq = di.seq;

  if ((di.is_load || di.is_store) && !di.mech.reused) {
    LsqEntry e;
    e.seq = seq;
    e.is_store = di.is_store;
    e.size = di.mem_size;
    e.rob_slot = slot;
    const bool ok = lsq_.push(e);
    assert(ok && "fetch checked LSQ space");
    (void)ok;
  }

  // Readiness.
  if (di.mech.reused && !di.mech.via_copy) {
    if (regfile_.ready(di.pd)) {
      schedule_completion(slot, seq, cycle_ + 1);
    } else {
      add_waiter(di.pd, slot, seq);
    }
  } else if (di.mech.reused && di.mech.via_copy) {
    if (mech_->copy_source_ready(di)) {
      ready_push(seq, slot);
    } else {
      di.pending_ops = 1;
      mech_->register_copy_waiter(slot, di);
    }
  } else if (di.mech.squash_reused) {
    // ci-iw baseline: the squash-reuse buffer supplied the value; the
    // instruction bypasses issue entirely (it was executed before the
    // squash and is control independent).
    di.result = di.mech.squash_value;
    if (di.has_dest) regfile_.write(di.pd, di.result);
    di.completed = true;
  } else if (op == Opcode::kNop || op == Opcode::kHalt || op == Opcode::kJmp) {
    di.completed = true;
  } else if (op == Opcode::kCall) {
    // Link value is known at rename; model it as zero-latency.
    di.result = di.pc + isa::kInstBytes;
    regfile_.write(di.pd, di.result);
    di.completed = true;
  } else {
    uint32_t pending = 0;
    if (di.ps1 >= 0 && !regfile_.ready(di.ps1)) {
      ++pending;
      add_waiter(di.ps1, slot, seq);
    }
    if (di.ps2 >= 0 && di.ps2 != di.ps1 && !regfile_.ready(di.ps2)) {
      ++pending;
      add_waiter(di.ps2, slot, seq);
    }
    di.pending_ops = pending;
    if (pending == 0) ready_push(seq, slot);
  }

  di.dispatched = true;
  rob_[slot] = std::move(di);
  ++rob_count_;
  if (mech_ != nullptr) mech_->on_renamed(rob_[slot]);
}

// ---------------------------------------------------------------------------
// Issue / execute.
// ---------------------------------------------------------------------------
void Core::issue_stage() {
  uint32_t slots = cfg_.issue_width;

  // Memory operations that stalled on disambiguation retry first (they are
  // the oldest by construction). The list is seq-sorted and all-live;
  // entries past the last free issue slot keep their place.
  int32_t s = smem_head_;
  while (s >= 0) {
    if (slots == 0) break;
    const int32_t next = smem_next_[static_cast<size_t>(s)];
    const uint32_t slot = static_cast<uint32_t>(s);
    DynInst& di = at(slot);
    if (di.issued || di.completed || di.pending_ops > 0) {
      smem_unlink(slot);
    } else if (smem_gate_epoch_[slot] == lsq_store_epoch_ &&
               (!smem_gate_port_[slot] ||
                (!cfg_.wide_bus && fu_.mem_ports_left() == 0))) {
      // Provably refused again (see the gate's invariant in the header),
      // and a refused attempt takes no issue slot, so skip the replay.
    } else if (try_issue(slot)) {
      smem_unlink(slot);
      --slots;
    } else {
      smem_gate_epoch_[slot] = lsq_store_epoch_;
      smem_gate_port_[slot] = mem_fail_port_;
    }
    s = next;
  }

  // Main select loop: oldest-ready-first over the seq-sorted ready list.
  // Stale nodes (squashed slots) are dropped on inspection but still count
  // against the inspect limit; refused entries keep their place.
  uint32_t inspected = 0;
  const uint32_t inspect_limit = cfg_.issue_width * 4;
  int32_t n = ready_head_;
  while (slots > 0 && n >= 0 && inspected < inspect_limit) {
    const int32_t next = ready_pool_[static_cast<size_t>(n)].next;
    const uint64_t seq = ready_pool_[static_cast<size_t>(n)].seq;
    const uint32_t slot = ready_pool_[static_cast<size_t>(n)].slot;
    ++inspected;
    if (!slot_live(slot, seq)) {
      ready_unlink(n);
      n = next;
      continue;
    }
    DynInst& di = at(slot);
    if (di.issued || di.completed || di.pending_ops > 0) {
      ready_unlink(n);
      n = next;
      continue;
    }
    if (di.mech.reused && di.mech.via_copy) {
      uint32_t lat = 0;
      uint64_t value = 0;
      if (mech_->try_issue_copy(di, cycle_, lat, value)) {
        di.issued = true;
        di.result = value;
        schedule_completion(slot, seq, cycle_ + lat);
        ready_unlink(n);
        --slots;
      }
      n = next;
      continue;
    }
    if (try_issue(slot)) {
      ready_unlink(n);
      --slots;
    } else if (di.is_load || di.is_store) {
      ready_unlink(n);
      smem_insert(slot, seq);
      smem_gate_epoch_[slot] = lsq_store_epoch_;
      smem_gate_port_[slot] = mem_fail_port_;
    }
    n = next;
  }

  // Leftover bandwidth goes to the replica engine (section 2.4.1: lower
  // priority than the main thread).
  if (mech_ != nullptr) {
    CycleResources res{slots, fu_.simple_int_left(), fu_.muldiv_left(),
                       fu_.mem_ports_left()};
    mech_->issue_cycle(cycle_, res);
  }
}

bool Core::try_issue(uint32_t slot) {
  DynInst& di = at(slot);
  const Opcode op = di.inst.op;
  if (di.is_load || di.is_store) return issue_mem(di);
  if (!fu_.try_reserve(op)) return false;
  di.v1 = di.ps1 >= 0 ? regfile_.value(di.ps1) : 0;
  di.v2 = di.ps2 >= 0 ? regfile_.value(di.ps2) : 0;
  if (di.is_cond_branch) {
    di.actual_taken = isa::eval_branch(op, di.v1, di.v2);
    di.actual_target = di.actual_taken ? static_cast<uint64_t>(di.inst.imm)
                                       : di.pc + isa::kInstBytes;
  } else if (op == Opcode::kRet) {
    di.actual_taken = true;
    di.actual_target = di.v1;
  } else if (di.has_dest) {
    di.result = isa::eval_alu(op, di.v1, di.v2, di.inst.imm);
  }
  di.issued = true;
  execute(di, slot, fu_.latency(op));
  return true;
}

bool Core::issue_mem(DynInst& di) {
  mem_fail_port_ = false;
  const uint64_t seq = di.seq;
  const uint32_t slot = static_cast<uint32_t>(&di - rob_.data());
  // Address generation.
  di.v1 = di.ps1 >= 0 ? regfile_.value(di.ps1) : 0;
  di.mem_addr = di.v1 + static_cast<uint64_t>(di.inst.imm);
  LsqEntry* entry = lsq_.find(seq);
  assert(entry != nullptr);
  if (di.is_store) {
    di.v2 = regfile_.value(di.ps2);
    di.store_value = di.v2;
    if (di.mem_size < 8) {
      di.store_value &= (uint64_t{1} << (8 * di.mem_size)) - 1;
    }
    entry->addr = di.mem_addr;
    entry->addr_known = true;
    entry->value = di.store_value;
    entry->value_known = true;
    di.addr_known = true;
    di.issued = true;
    ++lsq_store_epoch_;  // addr+value now known: stalled loads may unblock
    execute(di, slot, cfg_.agu_latency);
    // A store becoming address-known may unblock stalled loads next cycle.
    return true;
  }

  // Load: conservative disambiguation (Table 1).
  entry->addr = di.mem_addr;
  entry->addr_known = true;
  di.addr_known = true;
  if (!lsq_.older_store_addrs_known(seq)) return false;
  uint64_t fwd = 0;
  switch (lsq_.try_forward(seq, di.mem_addr, di.mem_size, fwd)) {
    case LoadStoreQueue::ForwardResult::kConflict:
      return false;
    case LoadStoreQueue::ForwardResult::kForwarded:
      di.result = fwd;
      di.forwarded = true;
      di.issued = true;
      ++stats_.lsq_forwards;
      execute(di, slot, cfg_.agu_latency + 1);
      return true;
    case LoadStoreQueue::ForwardResult::kNone:
      break;
  }
  // Cache access with optional wide-bus line-buffer piggybacking.
  const uint64_t line = di.mem_addr / cfg_.memory.l1d.line_bytes;
  uint32_t lat = 0;
  if (cfg_.wide_bus && line_ring_lookup(line, lat)) {
    // Served from a recent wide access: no port, no new cache access.
  } else if (fu_.try_reserve_mem_port()) {
    lat = hierarchy_.access_data(di.mem_addr, false, cycle_);
    if (cfg_.wide_bus) {
      ++stats_.wide_accesses;
      line_ring_insert(line, lat);
    }
  } else {
    mem_fail_port_ = true;
    return false;
  }
  di.result = mem_.read(di.mem_addr, di.mem_size);
  di.issued = true;
  execute(di, slot, cfg_.agu_latency + lat);
  return true;
}

void Core::execute(DynInst& di, uint32_t slot, uint32_t latency) {
  schedule_completion(slot, di.seq, cycle_ + std::max<uint32_t>(1, latency));
}

// ---------------------------------------------------------------------------
// Writeback: completion events, branch resolution, recovery.
// ---------------------------------------------------------------------------
void Core::writeback_stage() {
  // Migrate overflow events whose due time entered the ring horizon.
  if (!cal_overflow_.empty()) {
    size_t keep = 0;
    for (size_t i = 0; i < cal_overflow_.size(); ++i) {
      const Event& ev = cal_overflow_[i];
      if (ev.when - cycle_ < kCalBuckets) {
        cal_[ev.when & (kCalBuckets - 1)].push_back(ev);
      } else {
        cal_overflow_[keep++] = cal_overflow_[i];
      }
    }
    cal_overflow_.resize(keep);
  }
  // Drain every not-yet-drained time slot <= cycle_ in (when, seq) order.
  // Normally this is the single bucket for cycle_; a zero-latency event
  // pushed after its slot drained reopens it (cal_next_drain_ rollback in
  // schedule_completion).
  for (uint64_t t = cal_next_drain_; t <= cycle_; ++t) {
    std::vector<Event>& bucket = cal_[t & (kCalBuckets - 1)];
    if (bucket.empty()) continue;
    cal_scratch_.clear();
    size_t keep = 0;
    for (size_t i = 0; i < bucket.size(); ++i) {
      if (bucket[i].when == t) {
        cal_scratch_.push_back(bucket[i]);
      } else {
        bucket[keep++] = bucket[i];
      }
    }
    bucket.resize(keep);
    std::sort(cal_scratch_.begin(), cal_scratch_.end(),
              [](const Event& a, const Event& b) { return a.seq < b.seq; });
    for (const Event& ev : cal_scratch_) {
      if (!slot_live(ev.slot, ev.seq)) continue;
      complete(ev.slot);
    }
  }
  cal_next_drain_ = cycle_ + 1;
}

void Core::complete(uint32_t slot) {
  DynInst& di = at(slot);
  if (di.completed) return;
  di.completed = true;
  if (di.mech.reused && !di.mech.via_copy) {
    di.result = regfile_.value(di.pd);  // replica already wrote the register
  } else if (di.has_dest) {
    regfile_.write(di.pd, di.result);
    wake_reg(di.pd);
  }
  if (di.is_branch && !di.resolved &&
      (di.is_cond_branch || di.inst.op == Opcode::kRet)) {
    resolve_branch(slot);
  }
}

void Core::resolve_branch(uint32_t slot) {
  DynInst& di = at(slot);
  di.resolved = true;
  const bool misp =
      di.actual_taken != di.predicted_taken ||
      (di.actual_taken && di.actual_target != di.predicted_target);
  di.mispredicted = misp;
  if (misp) {
    if (mech_ != nullptr) mech_->on_mispredict_pre(di);
    recover_to(di.seq,
               di.actual_taken ? di.actual_target : di.pc + isa::kInstBytes,
               cfg_.recovery_penalty);
    if (di.is_cond_branch) {
      gshare_.recover(di.gshare_snapshot, di.actual_taken);
    } else {
      gshare_.set_history(di.gshare_snapshot);
    }
    if (di.has_ras_snapshot) {
      ras_.restore(di.ras_snapshot);
      if (di.inst.op == Opcode::kRet) ras_.pop();
    }
  }
  if (mech_ != nullptr) mech_->on_branch_resolved(di, misp);
}

void Core::recover_to(uint64_t seq, uint64_t new_fetch_pc,
                      uint64_t resume_delay) {
  ++flushes_;
  squash_younger(seq);
  fetch_pc_ = new_fetch_pc;
  fetch_resume_cycle_ = cycle_ + resume_delay;
  fetch_stalled_ = false;
  last_fetch_line_ = ~uint64_t{0};
}

void Core::squash_younger(uint64_t seq_keep) {
  const uint32_t size = static_cast<uint32_t>(rob_.size());
  while (rob_count_ > 0) {
    const uint32_t slot = (rob_head_ + rob_count_ - 1) % size;
    DynInst& di = rob_[slot];
    if (di.seq <= seq_keep) break;
    if (mech_ != nullptr) mech_->on_squash(di);
    if (di.has_dest) {
      rename_.restore(di.inst.rd, di.prev_pd);
      if (di.pd >= 0 && !di.mech.pd_from_replica) regfile_.free_reg(di.pd);
    }
    ++stats_.squashed;
    smem_unlink(slot);
    di.seq = 0;  // kill pending events/waiters pointing at this slot
    --rob_count_;
  }
  lsq_.squash_younger(seq_keep);
  ++lsq_store_epoch_;  // conservative: squash may have removed stores
}

// ---------------------------------------------------------------------------
// Commit.
// ---------------------------------------------------------------------------
bool Core::commit_check(DynInst& di) {
  const isa::Instruction& inst = di.inst;
  const Opcode op = inst.op;
  const uint64_t a1 = arch_regs_[inst.rs1];
  const uint64_t a2 = arch_regs_[inst.rs2];
  bool ok = true;
  if (op == Opcode::kNop || op == Opcode::kHalt || op == Opcode::kJmp) {
    ok = true;
  } else if (op == Opcode::kCall) {
    ok = di.result == di.pc + isa::kInstBytes;
  } else if (op == Opcode::kRet) {
    ok = di.actual_target == a1;
  } else if (di.is_cond_branch) {
    ok = di.actual_taken == isa::eval_branch(op, a1, a2);
  } else if (di.is_load) {
    const uint64_t addr = a1 + static_cast<uint64_t>(inst.imm);
    ok = di.mem_addr == addr && di.result == mem_.read(addr, di.mem_size);
  } else if (di.is_store) {
    const uint64_t addr = a1 + static_cast<uint64_t>(inst.imm);
    uint64_t v = a2;
    if (di.mem_size < 8) v &= (uint64_t{1} << (8 * di.mem_size)) - 1;
    ok = di.mem_addr == addr && di.store_value == v;
  } else {
    ok = di.result == isa::eval_alu(op, a1, a2, inst.imm);
  }
  if (ok) return true;

  // Architectural safety net (DESIGN.md section 2): a wrong value reached
  // the head of the window. With a correct mechanism this only happens for
  // reused instructions whose replica went stale in ways validation cannot
  // see; recover exactly like a misvalidation.
  ++stats_.safety_net_recoveries;
  if (di.mech.reused) {
    ++stats_.misvalidation_squashes;
    if (mech_ != nullptr) mech_->on_misvalidation(di);
  }
  const uint64_t refetch_pc = di.pc;
  recover_to(di.seq - 1, refetch_pc, cfg_.recovery_penalty);
  return false;
}

void Core::record_commit(const DynInst& di) {
  CommitRecord& r = commit_buf_[commit_buf_n_++];
  r.pc = di.pc;
  r.mem_addr = di.mem_addr;
  r.actual_target = di.actual_target;
  r.op = di.inst.op;
  r.mem_size = static_cast<uint8_t>(di.mem_size);
  r.is_cond_branch = di.is_cond_branch;
  r.is_load = di.is_load;
  r.is_store = di.is_store;
  r.actual_taken = di.actual_taken;
  if (commit_buf_n_ == kCommitSpan) flush_commit_span();
}

void Core::flush_commit_span() {
  if (commit_buf_n_ == 0) return;
  if (on_commit_span) on_commit_span(commit_buf_.data(), commit_buf_n_);
  commit_buf_n_ = 0;
}

void Core::apply_commit(DynInst& di) {
  const Opcode op = di.inst.op;
  if (di.has_dest) arch_regs_[di.inst.rd] = di.result;

  if (di.is_load) {
    ++stats_.committed_loads;
    if (!di.mech.reused) lsq_.pop_front();
  } else if (di.is_store) {
    ++stats_.committed_stores;
    const bool conflict = mech_ != nullptr && mech_->on_store_commit(di);
    hierarchy_.access_data(di.mem_addr, /*is_write=*/true, cycle_);
    mem_.write(di.mem_addr, di.store_value, di.mem_size);
    lsq_.pop_front();
    ++lsq_store_epoch_;  // a store left the LSQ
    ++stores_committed_this_cycle_;
    if (conflict) {
      // Section 2.4.3: squash everything after the store and refetch.
      recover_to(di.seq, di.pc + isa::kInstBytes, cfg_.recovery_penalty);
    }
  }

  if (di.is_cond_branch) {
    ++stats_.cond_branches;
    if (di.mispredicted) ++stats_.mispredicts;
    gshare_.train(di.pc, di.gshare_snapshot, di.actual_taken);
    mbs_.update(di.pc, di.actual_taken);
  }
  if (di.is_branch) ++stats_.committed_branches;
  if (di.mech.reused) ++stats_.reused_committed;
  if (mech_ != nullptr) mech_->on_commit(di);
  if (di.has_dest && di.old_pd >= 0) regfile_.free_reg(di.old_pd);
  if (on_commit_span) record_commit(di);
  last_commit_cycle_ = cycle_;
  if (op == Opcode::kHalt) {
    // HALT retires the machine but is not an architectural instruction;
    // keeping it out of `committed` makes commit counts comparable with the
    // reference interpreter.
    halted_ = true;
  } else {
    ++stats_.committed;
  }
}

void Core::commit_stage() {
  fu_.new_cycle();  // commit gets port priority over issue for stores
  stores_committed_this_cycle_ = 0;
  uint32_t slots = cfg_.commit_width;
  const uint32_t max_stores =
      mech_ != nullptr ? mech_->max_store_commits_per_cycle()
                       : cfg_.commit_width;
  while (slots > 0 && rob_count_ > 0 && !halted_) {
    const uint32_t slot = rob_head_;
    DynInst& di = rob_[slot];
    if (!di.completed) break;
    if (di.is_store) {
      if (stores_committed_this_cycle_ >= max_stores) break;
      if (!fu_.try_reserve_mem_port()) break;
    }
    const uint32_t cost =
        1 + (di.is_store && mech_ != nullptr
                 ? mech_->store_commit_extra_cycles()
                 : 0);
    if (cost > slots) break;
    if (!commit_check(di)) break;
    apply_commit(di);
    di.seq = 0;
    rob_head_ = (rob_head_ + 1) % static_cast<uint32_t>(rob_.size());
    --rob_count_;
    slots -= cost;
    if (stats_.committed >= committed_target_) break;
  }
}

// ---------------------------------------------------------------------------
// Top level.
// ---------------------------------------------------------------------------
void Core::step_cycle() {
  commit_stage();
  if (!halted_) {
    writeback_stage();
    issue_stage();
    fetch_stage();
  }
  // The machine is finished when the program ran off its image and
  // everything in flight has drained.
  if (!halted_ && fetch_stalled_ && rob_count_ == 0) halted_ = true;
  if ((cycle_ & 63) == 0) {
    stats_.regs_in_use_accum += regfile_.in_use();
    ++stats_.reg_samples;
    stats_.regs_in_use_max =
        std::max<uint64_t>(stats_.regs_in_use_max, regfile_.in_use());
    obs_rob_occupancy_->observe(rob_count_);
  }
  ++cycle_;
  stats_.cycles = cycle_;
}

void Core::run(uint64_t max_commits) {
  committed_target_ = max_commits;
  last_commit_cycle_ = cycle_;
  while (!halted_ && stats_.committed < max_commits) {
    step_cycle();
    if (cycle_ - last_commit_cycle_ > cfg_.deadlock_cycles) {
      std::string head = "rob empty";
      if (rob_count_ > 0) {
        const DynInst& di = rob_[rob_head_];
        head = isa::disassemble(di.inst, di.pc) +
               " seq=" + std::to_string(di.seq) +
               " pending=" + std::to_string(di.pending_ops) +
               " issued=" + std::to_string(di.issued) +
               " completed=" + std::to_string(di.completed) +
               " reused=" + std::to_string(di.mech.reused) +
               " via_copy=" + std::to_string(di.mech.via_copy) +
               " idx=" + std::to_string(di.mech.replica_index) +
               " slot=" + std::to_string(di.mech.srsmt_slot) +
               " pd=" + std::to_string(di.pd) +
               (di.pd >= 0 ? " pd_ready=" + std::to_string(regfile_.ready(di.pd))
                           : "");
      }
      throw std::runtime_error(
          "core deadlock: no commit in " +
          std::to_string(cfg_.deadlock_cycles) + " cycles at cycle " +
          std::to_string(cycle_) + "; head: " + head);
    }
  }
  flush_commit_span();
  // Export host telemetry to the obs registry (never part of SimStats, so
  // observer attachment cannot perturb simulated results). Deltas keep
  // re-entrant run() calls from double counting.
  obs_cycles_->add(cycle_ - obs_cycles_exported_);
  obs_cycles_exported_ = cycle_;
  obs_flushes_->add(flushes_ - obs_flushes_exported_);
  obs_flushes_exported_ = flushes_;
  // Mirror cache counters into the flat stats block.
  stats_.l1i_accesses = hierarchy_.l1i().stats().accesses;
  stats_.l1i_misses = hierarchy_.l1i().stats().misses;
  stats_.l1d_accesses = hierarchy_.l1d().stats().accesses;
  stats_.l1d_misses = hierarchy_.l1d().stats().misses;
  stats_.l2_accesses = hierarchy_.l2().stats().accesses;
  stats_.l2_misses = hierarchy_.l2().stats().misses;
  stats_.l3_accesses = hierarchy_.l3().stats().accesses;
  stats_.l3_misses = hierarchy_.l3().stats().misses;
  stats_.halted = halted_;
}

}  // namespace cfir::core
