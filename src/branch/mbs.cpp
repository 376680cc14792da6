#include "branch/mbs.hpp"
#include <cstddef>

#include <algorithm>

namespace cfir::branch {

MbsTable::MbsTable(uint32_t sets, uint32_t ways) : sets_(sets), ways_(ways) {
  util::require_geometry("MbsTable", "set count", sets_, true);
  util::require_geometry("MbsTable", "way count", ways_, false);
  entries_.assign(static_cast<size_t>(sets_) * ways_, Entry{});
}

const MbsTable::Entry* MbsTable::find(uint64_t pc) const {
  const uint32_t set = static_cast<uint32_t>(pc >> 2) & (sets_ - 1);
  const size_t base = static_cast<size_t>(set) * ways_;
  for (uint32_t w = 0; w < ways_; ++w) {
    const Entry& e = entries_[base + w];
    if (e.valid && e.tag == pc) return &e;
  }
  return nullptr;
}

MbsTable::Entry& MbsTable::find_or_alloc(uint64_t pc) {
  const uint32_t set = static_cast<uint32_t>(pc >> 2) & (sets_ - 1);
  const size_t base = static_cast<size_t>(set) * ways_;
  for (uint32_t w = 0; w < ways_; ++w) {
    Entry& e = entries_[base + w];
    if (e.valid && e.tag == pc) return e;
  }
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

void MbsTable::update(uint64_t pc, bool taken) {
  Entry& e = find_or_alloc(pc);
  e.lru = ++stamp_;
  if (taken == e.last_taken) {
    if (taken) {
      if (e.counter < kMax) ++e.counter;
    } else {
      if (e.counter > kMin) --e.counter;
    }
  } else {
    e.counter = kMid;
  }
  e.last_taken = taken;
}

bool MbsTable::is_hard(uint64_t pc) const {
  const Entry* e = find(pc);
  if (e == nullptr) return false;
  return e->counter != kMax && e->counter != kMin;
}

uint64_t MbsTable::debug_digest() const {
  util::Digest d;
  d.u32(sets_).u32(ways_).u64(stamp_);
  for (const Entry& e : entries_) {
    d.u64(e.tag).u8(e.counter).boolean(e.last_taken).boolean(e.valid);
    d.u64(e.lru);
  }
  return d.value();
}

void MbsTable::serialize(util::ByteWriter& out) const {
  // Entries are only ever allocated, never invalidated, so every invalid
  // entry still holds its constructed default: only valid ones are listed.
  out.u32(sets_);
  out.u32(ways_);
  out.u64(stamp_);
  util::write_sparse(out, entries_, [](const Entry& e) { return e.valid; },
                     [&out](const Entry& e) {
                       out.u64(e.tag);
                       out.u8(e.counter);
                       out.boolean(e.last_taken);
                       out.u64(e.lru);
                     });
}

void MbsTable::deserialize(util::ByteReader& in) {
  if (in.u32() != sets_ || in.u32() != ways_) {
    throw util::GeometryMismatch("MbsTable: warm-state geometry mismatch");
  }
  stamp_ = in.u64();
  std::fill(entries_.begin(), entries_.end(), Entry{});
  util::read_sparse(in, entries_, "MbsTable", [&in](Entry& e) {
    e.tag = in.u64();
    e.counter = in.u8();
    if (e.counter > kMax) {
      throw std::runtime_error("MbsTable: warm-state counter out of range");
    }
    e.last_taken = in.boolean();
    e.valid = true;
    e.lru = in.u64();
  });
}

uint64_t MbsTable::storage_bytes() const {
  // Paper section 3.1: 4 ways * 64 sets * 8 bytes per element = 2048 bytes.
  return static_cast<uint64_t>(sets_) * ways_ * 8;
}

}  // namespace cfir::branch
