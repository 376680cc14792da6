#include "core/config.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace cfir::core {

std::string CoreConfig::label() const {
  std::ostringstream os;
  switch (policy) {
    case Policy::kNone: os << (wide_bus ? "wb" : "scal"); break;
    case Policy::kCi: os << (use_spec_memory ? "ci-h" : "ci"); break;
    case Policy::kCiWindow: os << "ci-iw"; break;
    case Policy::kVect: os << "vect"; break;
  }
  os << cache_ports << "p/" << num_phys_regs << "r";
  if (policy == Policy::kCi || policy == Policy::kVect) {
    os << "/" << replicas << "rep";
  }
  if (use_spec_memory) os << "/" << spec_memory_slots << "slots";
  return os.str();
}

void CoreConfig::scale_window_to_regs() {
  rob_size = std::max<uint32_t>(256, num_phys_regs);
}

// The four CFIR_CORECONFIG_FIELDS kinds, as encode / decode / flatten
// operations. util::Digest and util::ByteWriter share method names, so one
// encode macro serves both digest() and serialize().
#define CFIR_CFG_ENC_u32(sink, f) (sink).u32(f);
#define CFIR_CFG_ENC_u64(sink, f) (sink).u64(f);
#define CFIR_CFG_ENC_boolean(sink, f) (sink).boolean(f);
#define CFIR_CFG_ENC_policy(sink, f) (sink).u8(static_cast<uint8_t>(f));

#define CFIR_CFG_DEC_u32(in, f) f = (in).u32();
#define CFIR_CFG_DEC_u64(in, f) f = (in).u64();
#define CFIR_CFG_DEC_boolean(in, f) f = (in).boolean();
#define CFIR_CFG_DEC_policy(in, f) f = static_cast<Policy>((in).u8());

#define CFIR_CFG_VAL_u32(f) static_cast<uint64_t>(f)
#define CFIR_CFG_VAL_u64(f) static_cast<uint64_t>(f)
#define CFIR_CFG_VAL_boolean(f) static_cast<uint64_t>((f) ? 1 : 0)
#define CFIR_CFG_VAL_policy(f) static_cast<uint64_t>(f)

uint64_t CoreConfig::digest() const {
  util::Digest d;
#define X(kind, field) CFIR_CFG_ENC_##kind(d, field)
  CFIR_CORECONFIG_FIELDS(X)
#undef X
  return d.value();
}

void CoreConfig::serialize(util::ByteWriter& out) const {
#define X(kind, field) CFIR_CFG_ENC_##kind(out, field)
  CFIR_CORECONFIG_FIELDS(X)
#undef X
}

CoreConfig CoreConfig::deserialize(util::ByteReader& in) {
  CoreConfig cfg;
#define X(kind, field) CFIR_CFG_DEC_##kind(in, cfg.field)
  CFIR_CORECONFIG_FIELDS(X)
#undef X
  return cfg;
}

uint64_t CoreConfig::warm_digest() const {
  // Exactly the fields FunctionalWarmer state depends on: the policy byte
  // stamped into the blob, predictor geometry, and cache geometry (tags and
  // LRU depend on size/assoc/line_bytes; hit latencies are timing-only and
  // never reach warm state). Fields listed in component order of
  // FunctionalWarmer::serialize_state so a new warm-relevant knob has an
  // obvious place to land.
  util::Digest d;
  d.u8(static_cast<uint8_t>(policy));
  d.u32(gshare_entries);
  d.u32(gshare_history_bits);
  d.u32(mbs_sets);
  d.u32(mbs_ways);
  d.u32(stride_sets);
  d.u32(stride_ways);
  const mem::CacheConfig* levels[] = {&memory.l1i, &memory.l1d, &memory.l2,
                                      &memory.l3};
  for (const mem::CacheConfig* c : levels) {
    d.u32(c->size_bytes);
    d.u32(c->assoc);
    d.u32(c->line_bytes);
  }
  return d.value();
}

uint64_t CoreConfig::family_digest() const {
  CoreConfig masked = *this;
  masked.num_phys_regs = 0;
  masked.rob_size = 0;
  return masked.digest();
}

bool CoreConfig::covers(const CoreConfig& other, bool hit_capacity) const {
  if (family_digest() != other.family_digest()) return false;
  if (hit_capacity) {
    return other.num_phys_regs == num_phys_regs && other.rob_size == rob_size;
  }
  return other.num_phys_regs >= num_phys_regs && other.rob_size >= rob_size;
}

std::vector<CoreConfig::NamedValue> CoreConfig::fields() const {
  std::vector<NamedValue> out;
#define X(kind, field) out.push_back({#field, CFIR_CFG_VAL_##kind(field)});
  CFIR_CORECONFIG_FIELDS(X)
#undef X
  return out;
}

}  // namespace cfir::core
