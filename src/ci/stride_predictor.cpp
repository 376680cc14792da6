#include "ci/stride_predictor.hpp"

#include <algorithm>

namespace cfir::ci {

StridePredictor::StridePredictor(uint32_t sets, uint32_t ways)
    : sets_(sets), ways_(ways) {
  util::require_geometry("StridePredictor", "set count", sets_, true);
  util::require_geometry("StridePredictor", "way count", ways_, false);
  entries_.assign(static_cast<size_t>(sets_) * ways_, Entry{});
}

const StridePredictor::Entry* StridePredictor::find(uint64_t pc) const {
  const uint32_t set = static_cast<uint32_t>(pc >> 2) & (sets_ - 1);
  const size_t base = static_cast<size_t>(set) * ways_;
  for (uint32_t w = 0; w < ways_; ++w) {
    const Entry& e = entries_[base + w];
    if (e.valid && e.tag == pc) return &e;
  }
  return nullptr;
}

StridePredictor::Entry* StridePredictor::find_mut(uint64_t pc) {
  return const_cast<Entry*>(find(pc));
}

StridePredictor::Entry& StridePredictor::find_or_alloc(uint64_t pc) {
  if (Entry* e = find_mut(pc)) return *e;
  const uint32_t set = static_cast<uint32_t>(pc >> 2) & (sets_ - 1);
  const size_t base = static_cast<size_t>(set) * ways_;
  size_t victim = base;
  for (uint32_t w = 0; w < ways_; ++w) {
    Entry& e = entries_[base + w];
    if (!e.valid) { victim = base + w; break; }
    if (e.lru < entries_[victim].lru) victim = base + w;
  }
  Entry& v = entries_[victim];
  v = Entry{};
  v.tag = pc;
  v.valid = true;
  return v;
}

StridePredictor::Entry& StridePredictor::train_entry(uint64_t pc,
                                                     uint64_t addr) {
  Entry& e = find_or_alloc(pc);
  e.lru = ++stamp_;
  if (e.last_addr == 0 && e.stride == 0 && e.confidence == 0) {
    // Fresh entry: just record the address.
    e.last_addr = addr;
    return e;
  }
  const int64_t observed = static_cast<int64_t>(addr - e.last_addr);
  if (observed == e.stride) {
    if (e.confidence < 3) ++e.confidence;
  } else {
    if (e.confidence > 0) {
      --e.confidence;
    }
    if (e.confidence == 0) {
      e.stride = observed;
      // A stride change drops the selection: the vectorized stream is dead.
      e.s_flag = false;
    }
  }
  e.last_addr = addr;
  return e;
}

void StridePredictor::train(uint64_t pc, uint64_t addr) {
  train_entry(pc, addr);
}

void StridePredictor::train_and_select(uint64_t pc, uint64_t addr) {
  Entry& e = train_entry(pc, addr);
  if (e.confidence > 1 && !e.s_flag && e.stride != 0) {
    e.s_flag = true;
    e.origin_branch_pc = 0;
  }
}

StridePredictor::Info StridePredictor::lookup(uint64_t pc) const {
  Info info;
  const Entry* e = find(pc);
  if (e == nullptr) return info;
  info.known = true;
  info.confident = e->confidence > 1;
  info.stride = e->stride;
  info.last_addr = e->last_addr;
  info.selected = e->s_flag;
  info.origin_branch_pc = e->origin_branch_pc;
  return info;
}

bool StridePredictor::select(uint64_t pc, uint64_t origin_branch_pc) {
  Entry* e = find_mut(pc);
  if (e == nullptr) return false;
  e->s_flag = true;
  e->origin_branch_pc = origin_branch_pc;
  return true;
}

void StridePredictor::clear_selection(uint64_t pc) {
  if (Entry* e = find_mut(pc)) e->s_flag = false;
}

uint64_t StridePredictor::debug_digest() const {
  util::Digest d;
  d.u32(sets_).u32(ways_).u64(stamp_);
  for (const Entry& e : entries_) {
    d.u64(e.tag).boolean(e.valid).u64(e.last_addr).i64(e.stride);
    d.u8(e.confidence).boolean(e.s_flag).u64(e.origin_branch_pc).u64(e.lru);
  }
  return d.value();
}

void StridePredictor::serialize(util::ByteWriter& out) const {
  // Entries are only ever allocated, never invalidated, so every invalid
  // entry still holds its constructed default: only valid ones are listed.
  out.u32(sets_);
  out.u32(ways_);
  out.u64(stamp_);
  util::write_sparse(out, entries_, [](const Entry& e) { return e.valid; },
                     [&out](const Entry& e) {
                       out.u64(e.tag);
                       out.u64(e.last_addr);
                       out.i64(e.stride);
                       out.u8(e.confidence);
                       out.boolean(e.s_flag);
                       out.u64(e.origin_branch_pc);
                       out.u64(e.lru);
                     });
}

void StridePredictor::deserialize(util::ByteReader& in) {
  if (in.u32() != sets_ || in.u32() != ways_) {
    throw util::GeometryMismatch(
        "StridePredictor: warm-state geometry mismatch");
  }
  stamp_ = in.u64();
  std::fill(entries_.begin(), entries_.end(), Entry{});
  util::read_sparse(in, entries_, "StridePredictor", [&in](Entry& e) {
    e.tag = in.u64();
    e.valid = true;
    e.last_addr = in.u64();
    e.stride = in.i64();
    e.confidence = in.u8();
    if (e.confidence > 3) {
      throw std::runtime_error(
          "StridePredictor: warm-state confidence out of range");
    }
    e.s_flag = in.boolean();
    e.origin_branch_pc = in.u64();
    e.lru = in.u64();
  });
}

uint64_t StridePredictor::storage_bytes() const {
  // Paper: PC(64) + last address(64) + stride(64) + confidence(2) + S(1)
  // per entry, quoted as 24 bytes per element.
  return static_cast<uint64_t>(sets_) * ways_ * 24;
}

}  // namespace cfir::ci
