#include "mem/hierarchy.hpp"

namespace cfir::mem {

CacheHierarchy::CacheHierarchy(const HierarchyConfig& config)
    : config_(config),
      l1i_(config.l1i),
      l1d_(config.l1d),
      l2_(config.l2),
      l3_(config.l3) {}

void CacheHierarchy::reset() {
  l1i_.reset();
  l1d_.reset();
  l2_.reset();
  l3_.reset();
}

uint32_t CacheHierarchy::lower_fill_latency(uint64_t addr, bool is_write,
                                            uint64_t now) {
  // L2 lookup happens after the L1 miss is detected.
  const auto r2 = l2_.access(addr, is_write, now, /*placeholder*/ 0);
  if (r2.hit) return r2.latency;
  const auto r3 = l3_.access(addr, is_write, now + r2.latency, 0);
  uint32_t below = r3.hit ? r3.latency
                          : r3.latency + config_.memory_latency;
  return l2_.config().hit_latency + below;
}

uint32_t CacheHierarchy::access_inst(uint64_t addr, uint64_t now) {
  // Look L1I up first; only on a real miss do we consult the lower levels.
  if (const int64_t line = l1i_.find(addr); line >= 0) {
    return l1i_.hit(line, false, now).latency;
  }
  const uint32_t fill = lower_fill_latency(addr, false, now);
  return l1i_.miss(addr, false, now, fill).latency;
}

uint32_t CacheHierarchy::access_data(uint64_t addr, bool is_write,
                                     uint64_t now) {
  if (const int64_t line = l1d_.find(addr); line >= 0) {
    return l1d_.hit(line, is_write, now).latency;
  }
  const uint32_t fill = lower_fill_latency(addr, is_write, now);
  return l1d_.miss(addr, is_write, now, fill).latency;
}

namespace {
// Mirrors the timed path's level walk: the L1 miss consults L2
// unconditionally, and L3 only when L2 also misses.
void warm_lower(Cache& l2, Cache& l3, uint64_t addr, bool is_write) {
  if (!l2.warm_access(addr, is_write)) l3.warm_access(addr, is_write);
}
}  // namespace

void CacheHierarchy::warm_inst(uint64_t addr) {
  if (!l1i_.warm_access(addr, false)) warm_lower(l2_, l3_, addr, false);
}

void CacheHierarchy::warm_data(uint64_t addr, bool is_write) {
  if (!l1d_.warm_access(addr, is_write)) {
    warm_lower(l2_, l3_, addr, is_write);
  }
}

uint64_t CacheHierarchy::debug_digest() const {
  util::Digest d;
  d.u64(l1i_.debug_digest()).u64(l1d_.debug_digest());
  d.u64(l2_.debug_digest()).u64(l3_.debug_digest());
  return d.value();
}

void CacheHierarchy::serialize(util::ByteWriter& out) const {
  l1i_.serialize(out);
  l1d_.serialize(out);
  l2_.serialize(out);
  l3_.serialize(out);
}

void CacheHierarchy::deserialize(util::ByteReader& in) {
  l1i_.deserialize(in);
  l1d_.deserialize(in);
  l2_.deserialize(in);
  l3_.deserialize(in);
}

}  // namespace cfir::mem
