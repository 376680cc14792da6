#include "ci/replica_engine.hpp"

#include <algorithm>
#include <cassert>

namespace cfir::ci {

using core::CycleResources;

ReplicaEngine::ReplicaEngine(core::Core& core, Srsmt& srsmt,
                             SpecDataMemory* specmem)
    : core_(core), srsmt_(srsmt), specmem_(specmem) {}

bool ReplicaEngine::ref_live(const Ref& r) const {
  const SrsmtEntry& e = srsmt_.entry(r.slot);
  return e.valid && e.uid == r.uid && e.holds(r.abs);
}

bool ReplicaEngine::operand_ready(const SrsmtEntry& e, const SrsmtOperand& op,
                                  uint64_t abs) const {
  if (!op.present) return true;
  if (op.is_self) {
    // Replica 0 reads the creator's committed result; replica k reads the
    // own ring value k-1.
    if (abs == 0) return e.anchored;
    return e.holds(abs - 1) && e.at(abs - 1).state == Replica::State::kDone;
  }
  if (!op.is_vector) return true;
  if (op.producer_slot == kInvalidSrsmtSlot) return false;
  const SrsmtEntry& p = srsmt_.entry(op.producer_slot);
  if (!p.valid || p.uid != op.producer_uid) return false;
  const uint64_t pabs = abs + op.index_offset;
  return p.holds(pabs) && p.at(pabs).state == Replica::State::kDone;
}

uint64_t ReplicaEngine::operand_value(const SrsmtEntry& e,
                                      const SrsmtOperand& op,
                                      uint64_t abs) const {
  if (!op.present) return 0;
  if (op.is_self) {
    return abs == 0 ? e.anchor_value : e.at(abs - 1).value;
  }
  if (!op.is_vector) return op.scalar_value;
  const SrsmtEntry& p = srsmt_.entry(op.producer_slot);
  return p.at(abs + op.index_offset).value;
}

void ReplicaEngine::arm_replica(uint32_t slot, SrsmtEntry& e, uint64_t abs) {
  Replica& r = e.at(abs);
  r.captured_a = operand_value(e, e.op1, abs);
  r.captured_b = operand_value(e, e.op2, abs);
  r.state = Replica::State::kReady;
  ready_.push_back({slot, e.uid, abs});
}

void ReplicaEngine::free_replica_storage(Replica& r) {
  if (r.phys_reg >= 0) {
    core_.regfile().free_reg(r.phys_reg);
    r.phys_reg = -1;
  }
  if (r.spec_slot >= 0 && specmem_ != nullptr) {
    specmem_->free_slot(r.spec_slot);
    r.spec_slot = -1;
  }
  r.state = Replica::State::kEmpty;
  r.consumed = false;
  r.waiting_ops = 0;
}

void ReplicaEngine::materialize(uint32_t slot) {
  SrsmtEntry& e = srsmt_.entry(slot);
  if (!e.valid || e.poisoned) return;
  if (e.is_load && !e.anchored) return;
  auto& stats = core_.stats();
  const uint64_t window_end = e.commit_count + e.nregs();
  e.mat_pending = false;
  for (uint64_t abs = e.materialized; abs < window_end; ++abs) {
    Replica& r = e.at(abs);
    if (r.state == Replica::State::kIssued) {
      // A dead (skipped) replica still in flight occupies the ring
      // position; retry once it completes.
      e.mat_pending = true;
      materialize_retry_.push_back(slot);
      return;
    }
    if (r.state != Replica::State::kEmpty && !r.consumed) {
      free_replica_storage(r);
    }
    // Allocate storage.
    int phys = -1;
    int sslot = -1;
    if (specmem_ != nullptr) {
      sslot = specmem_->alloc();
      if (sslot < 0) {
        ++stats.specmem_alloc_denied;
        e.mat_pending = true;
        materialize_retry_.push_back(slot);
        return;
      }
    } else {
      phys = core_.regfile().alloc_replica(core_.config().replica_reg_reserve);
      if (phys < 0) {
        ++stats.replica_alloc_denied;
        e.mat_pending = true;
        materialize_retry_.push_back(slot);
        return;
      }
    }
    r = Replica{};
    r.abs_index = abs;
    r.phys_reg = phys;
    r.spec_slot = sslot;
    ++stats.replicas_created;
    if (e.is_load) {
      r.addr = e.addr_of(abs);
      r.state = Replica::State::kReady;
      ready_.push_back({slot, e.uid, abs});
    } else {
      uint8_t waiting = 0;
      if (!operand_ready(e, e.op1, abs)) ++waiting;
      if (!operand_ready(e, e.op2, abs)) ++waiting;
      r.waiting_ops = waiting;
      r.abs_index = abs;
      if (waiting == 0) {
        arm_replica(slot, e, abs);
      } else {
        r.state = Replica::State::kWaiting;
      }
    }
    e.materialized = abs + 1;
  }
}

void ReplicaEngine::notify_consumers(uint32_t producer_slot,
                                     uint32_t producer_uid,
                                     uint64_t produced_abs) {
  // The list holds each consumer slot at most twice, which is every visit
  // that can change a consumer in one walk (SrsmtEntry::add_consumer).
  for (const uint32_t cslot : srsmt_.entry(producer_slot).consumer_slots) {
    SrsmtEntry& c = srsmt_.entry(cslot);
    if (!c.valid) continue;
    for (const SrsmtOperand* op : {&c.op1, &c.op2}) {
      if (!op->present) continue;
      uint64_t cabs;
      if (op->is_self) {
        // Self recurrence: our own completion of k arms k+1.
        if (cslot != producer_slot || c.uid != producer_uid) continue;
        cabs = produced_abs + 1;
      } else if (op->is_vector && op->producer_slot == producer_slot &&
                 op->producer_uid == producer_uid) {
        if (produced_abs < op->index_offset) continue;
        cabs = produced_abs - op->index_offset;
      } else {
        continue;
      }
      if (!c.holds(cabs)) continue;
      Replica& r = c.at(cabs);
      if (r.state != Replica::State::kWaiting || r.waiting_ops == 0) continue;
      if (--r.waiting_ops == 0) {
        // Both operands may have been satisfied by the same completion;
        // recheck to be safe against offset aliasing.
        if (operand_ready(c, c.op1, cabs) && operand_ready(c, c.op2, cabs)) {
          arm_replica(cslot, c, cabs);
        } else {
          r.waiting_ops = 1;
        }
      }
    }
  }
}

void ReplicaEngine::complete(const Ref& ref) {
  if (!ref_live(ref)) return;  // entry was released while in flight
  SrsmtEntry& e = srsmt_.entry(ref.slot);
  Replica& r = e.at(ref.abs);
  if (r.state != Replica::State::kIssued) return;
  r.state = Replica::State::kDone;
  if (e.issue_count > 0) --e.issue_count;
  if (specmem_ != nullptr) {
    specmem_->write(r.spec_slot, r.value);
    ++core_.stats().specmem_writes;
  } else if (r.phys_reg >= 0) {
    core_.regfile().write(r.phys_reg, r.value);
    core_.replica_written(r.phys_reg);
  }
  // Wake a validation blocked on this value (spec-memory copy µop; the
  // map stays empty without spec memory).
  if (!copy_waiters_.empty()) {
    const auto it = copy_waiters_.find(waiter_key(ref.slot, ref.abs));
    if (it != copy_waiters_.end()) {
      core_.wake_copy(it->second.rob_slot, it->second.seq);
      copy_waiters_.erase(it);
    }
  }
  notify_consumers(ref.slot, ref.uid, ref.abs);
  if (e.mat_pending) materialize(ref.slot);
}

void ReplicaEngine::tick(uint64_t cycle, CycleResources& res) {
  // 1. Completions due this cycle.
  completions_.drain(cycle, [this](const std::vector<Completion>& due) {
    for (const Completion& c : due) complete(c.ref);
  });
  // 2. Retry materializations that starved for registers/slots.
  if (!materialize_retry_.empty() && (cycle & 15) == 0) {
    retry_scratch_.clear();
    retry_scratch_.swap(materialize_retry_);
    for (const uint32_t slot : retry_scratch_) {
      SrsmtEntry& e = srsmt_.entry(slot);
      if (e.valid && e.mat_pending) materialize(slot);
    }
  }
  // 3. Issue ready replicas with the leftover resources (lowest priority,
  //    paper section 2.4.1).
  auto& stats = core_.stats();
  size_t scanned = 0;
  const size_t scan_limit = ready_.size();
  deferred_scratch_.clear();
  std::vector<Ref>& deferred = deferred_scratch_;
  while (res.issue_slots > 0 && !ready_.empty() && scanned < scan_limit) {
    ++scanned;
    Ref ref = ready_.front();
    ready_.pop_front();
    if (!ref_live(ref)) continue;
    SrsmtEntry& e = srsmt_.entry(ref.slot);
    Replica& r = e.at(ref.abs);
    if (r.state != Replica::State::kReady) continue;
    if (e.is_load) {
      uint32_t lat = 0;
      if (!core_.try_replica_load_access(r.addr, lat)) {
        deferred.push_back(ref);
        continue;
      }
      r.value = core_.memory().read(r.addr, isa::mem_bytes(e.inst.op));
      r.state = Replica::State::kIssued;
      ++e.issue_count;
      --res.issue_slots;
      ++stats.replicas_executed;
      uint64_t done = cycle + core_.config().agu_latency + lat;
      if (specmem_ != nullptr) done = specmem_->book_write(done);
      completions_.push({done, ref}, cycle);
    } else {
      const isa::FuClass fc = isa::fu_class(e.inst.op);
      uint32_t* pool = (fc == isa::FuClass::kIntMul ||
                        fc == isa::FuClass::kIntDiv)
                           ? &res.muldiv
                           : &res.simple_int;
      if (*pool == 0) {
        deferred.push_back(ref);
        continue;
      }
      r.value = isa::eval_alu(e.inst.op, r.captured_a, r.captured_b,
                              e.inst.imm);
      r.state = Replica::State::kIssued;
      ++e.issue_count;
      --*pool;
      --res.issue_slots;
      ++stats.replicas_executed;
      uint64_t done = cycle + core_.fu_latency(e.inst.op);
      if (specmem_ != nullptr) done = specmem_->book_write(done);
      completions_.push({done, ref}, cycle);
    }
  }
  // Preserve age order: deferred replicas go back to the front.
  for (auto it = deferred.rbegin(); it != deferred.rend(); ++it) {
    ready_.push_front(*it);
  }
}

void ReplicaEngine::release_entry(uint32_t slot, ReleaseReason why) {
  SrsmtEntry& e = srsmt_.entry(slot);
  if (!e.valid) return;
  for (Replica& r : e.ring) {
    if (r.state == Replica::State::kEmpty) continue;
    if (r.consumed) continue;  // the register belongs to rename now
    if (r.abs_index >= e.commit_count && r.abs_index < e.decode_count) {
      // An in-flight validation references this replica's register as its
      // rename destination. Ownership transfers to that instruction: it is
      // freed by its squash (the mechanism's on_squash sees the dead entry)
      // or by the next same-register writer's commit.
      r.consumed = true;
      continue;
    }
    // In-flight replicas are dropped at completion via the uid check; their
    // storage is freed here, which is safe because nothing is written to a
    // released replica's register (complete() checks ref_live first).
    free_replica_storage(r);
  }
  srsmt_.invalidate(slot);
  auto& stats = core_.stats();
  switch (why) {
    case ReleaseReason::kDaec: ++stats.srsmt_dealloc_daec; break;
    case ReleaseReason::kCoherence: ++stats.srsmt_dealloc_coherence; break;
    default: ++stats.srsmt_dealloc_replace; break;
  }
}

void ReplicaEngine::retire_index(uint32_t slot, uint64_t abs, bool reused) {
  SrsmtEntry& e = srsmt_.entry(slot);
  if (!e.valid) return;
  assert(e.commit_count == abs);
  e.commit_count = abs + 1;
  if (e.holds(abs)) {
    Replica& r = e.at(abs);
    if (reused) {
      // Ownership transfer: the validation's rename mapping now owns the
      // register (monolithic) / the value moved through the copy µop
      // (spec memory), so the slot can be recycled.
      r.consumed = true;
      if (r.spec_slot >= 0 && specmem_ != nullptr) {
        specmem_->free_slot(r.spec_slot);
        r.spec_slot = -1;
      }
    } else if (r.state != Replica::State::kIssued) {
      // Skipped index: the instance executed normally; the replica value is
      // dead. (In-flight ones are reclaimed when materialize() wraps.)
      // Self-recurrent chains keep completed ring values: the next replica
      // may still need them as its recurrence input.
      const bool self_chain = e.op1.is_self || e.op2.is_self;
      if (!(self_chain && r.state == Replica::State::kDone)) {
        free_replica_storage(r);
      }
    }
  }
  materialize(slot);
}

bool ReplicaEngine::replica_available(const SrsmtEntry& e, uint64_t abs) const {
  if (!e.holds(abs)) return false;
  const Replica& r = e.at(abs);
  return r.state == Replica::State::kReady ||
         r.state == Replica::State::kIssued ||
         r.state == Replica::State::kDone;
}

bool ReplicaEngine::replica_done(const SrsmtEntry& e, uint64_t abs) const {
  return e.holds(abs) && e.at(abs).state == Replica::State::kDone;
}

void ReplicaEngine::register_copy_waiter(uint32_t rob_slot, uint64_t seq,
                                         uint32_t slot, uint32_t /*uid*/,
                                         uint64_t abs) {
  copy_waiters_[waiter_key(slot, abs)] = {rob_slot, seq};
}

bool ReplicaEngine::try_issue_copy(uint32_t slot, uint32_t uid, uint64_t abs,
                                   uint64_t cycle, uint32_t& latency,
                                   uint64_t& value) {
  const Ref ref{slot, uid, abs};
  if (!ref_live(ref)) return false;
  const SrsmtEntry& e = srsmt_.entry(slot);
  const Replica& r = e.at(abs);
  if (r.state != Replica::State::kDone) return false;
  if (specmem_ == nullptr || !specmem_->try_book_read(cycle)) return false;
  latency = specmem_->latency();
  value = r.value;
  ++core_.stats().specmem_copies;
  return true;
}

void ReplicaEngine::reclaim_unclaimed() {
  srsmt_.for_each_live([&](uint32_t slot) {
    SrsmtEntry& e = srsmt_.entry(slot);
    for (uint64_t abs = e.decode_count; abs < e.materialized; ++abs) {
      if (!e.holds(abs)) continue;
      Replica& r = e.at(abs);
      if (r.consumed || r.state == Replica::State::kIssued) continue;
      free_replica_storage(r);
    }
    // Stop the entry from immediately re-materializing into starvation.
    e.mat_pending = false;
    e.materialized = std::max(e.materialized, e.decode_count);
  });
}

}  // namespace cfir::ci
