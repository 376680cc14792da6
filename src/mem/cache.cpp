#include "mem/cache.hpp"

#include <algorithm>
#include <cassert>

namespace cfir::mem {

Cache::Cache(const CacheConfig& config) : config_(config) {
  assert(config_.line_bytes > 0 && config_.assoc > 0);
  num_sets_ = config_.size_bytes / (config_.line_bytes * config_.assoc);
  assert(num_sets_ > 0 && (num_sets_ & (num_sets_ - 1)) == 0 &&
         "set count must be a power of two");
  lines_.assign(static_cast<size_t>(num_sets_) * config_.assoc, Line{});
}

void Cache::reset() {
  for (Line& l : lines_) l = Line{};
  inflight_fills_.clear();
  stats_ = CacheStats{};
  use_stamp_ = 0;
}

int64_t Cache::find(uint64_t addr) const {
  const uint64_t line_addr = addr / config_.line_bytes;
  const size_t base = set_base(line_addr);
  for (uint32_t w = 0; w < config_.assoc; ++w) {
    const Line& l = lines_[base + w];
    if (l.valid && l.tag == line_addr) return static_cast<int64_t>(base + w);
  }
  return -1;
}

Cache::Result Cache::access(uint64_t addr, bool is_write, uint64_t now,
                            uint32_t miss_fill_latency) {
  const int64_t line = find(addr);
  return line >= 0 ? hit(line, is_write, now)
                   : miss(addr, is_write, now, miss_fill_latency);
}

Cache::Result Cache::hit(int64_t line, bool is_write, uint64_t now) {
  ++stats_.accesses;
  ++use_stamp_;
  ++stats_.hits;
  Line& l = lines_[static_cast<size_t>(line)];
  l.lru = use_stamp_;
  if (is_write) l.dirty = true;
  // Hit under an outstanding fill: data arrives when the fill does.
  uint32_t latency = config_.hit_latency;
  if (const auto it = inflight_fills_.find(l.tag);
      it != inflight_fills_.end() && it->second > now) {
    latency = static_cast<uint32_t>(it->second - now);
  }
  return {true, latency};
}

Cache::Result Cache::miss(uint64_t addr, bool is_write, uint64_t now,
                          uint32_t miss_fill_latency) {
  ++stats_.accesses;
  ++use_stamp_;
  const uint64_t line_addr = addr / config_.line_bytes;
  const uint64_t tag = line_addr;  // full line address as tag (simple, exact)
  const size_t base = set_base(line_addr);

  // Merge with an in-flight fill of the same line if present.
  ++stats_.misses;
  uint32_t latency = config_.hit_latency + miss_fill_latency;
  if (const auto it = inflight_fills_.find(line_addr);
      it != inflight_fills_.end()) {
    if (it->second > now) {
      ++stats_.mshr_merges;
      latency = static_cast<uint32_t>(it->second - now);
    }
  } else {
    inflight_fills_[line_addr] = now + latency;
    // Opportunistic cleanup to bound the map.
    if (inflight_fills_.size() > 4096) {
      for (auto it2 = inflight_fills_.begin(); it2 != inflight_fills_.end();) {
        if (it2->second <= now) {
          it2 = inflight_fills_.erase(it2);
        } else {
          ++it2;
        }
      }
    }
  }

  // Victim selection: invalid first, then LRU.
  size_t victim = base;
  for (uint32_t w = 0; w < config_.assoc; ++w) {
    Line& l = lines_[base + w];
    if (!l.valid) { victim = base + w; break; }
    if (l.lru < lines_[victim].lru) victim = base + w;
  }
  Line& v = lines_[victim];
  if (v.valid && v.dirty) ++stats_.writebacks;
  v.valid = true;
  v.tag = tag;
  v.dirty = is_write;
  v.lru = use_stamp_;
  return {false, latency};
}

bool Cache::warm_access(uint64_t addr, bool is_write) {
  const uint64_t line_addr = addr / config_.line_bytes;
  const uint64_t tag = line_addr;
  const size_t base = set_base(line_addr);

  ++use_stamp_;
  for (uint32_t w = 0; w < config_.assoc; ++w) {
    Line& l = lines_[base + w];
    if (l.valid && l.tag == tag) {
      l.lru = use_stamp_;
      if (is_write) l.dirty = true;
      return true;
    }
  }
  // Miss: same victim selection as access(), fill without timing.
  size_t victim = base;
  for (uint32_t w = 0; w < config_.assoc; ++w) {
    Line& l = lines_[base + w];
    if (!l.valid) { victim = base + w; break; }
    if (l.lru < lines_[victim].lru) victim = base + w;
  }
  Line& v = lines_[victim];
  v.valid = true;
  v.tag = tag;
  v.dirty = is_write;
  v.lru = use_stamp_;
  return false;
}

uint64_t Cache::debug_digest() const {
  util::Digest d;
  d.u32(num_sets_).u32(config_.assoc);
  std::vector<std::pair<uint64_t, bool>> resident;
  for (uint32_t set = 0; set < num_sets_; ++set) {
    const size_t base = static_cast<size_t>(set) * config_.assoc;
    resident.clear();
    for (uint32_t w = 0; w < config_.assoc; ++w) {
      const Line& l = lines_[base + w];
      if (l.valid) resident.emplace_back(l.tag, l.dirty);
    }
    std::sort(resident.begin(), resident.end());
    d.u32(static_cast<uint32_t>(resident.size()));
    for (const auto& [tag, dirty] : resident) d.u64(tag).boolean(dirty);
  }
  return d.value();
}

void Cache::serialize(util::ByteWriter& out) const {
  // Full-fidelity state (LRU included) so a restored warmer continues
  // exactly where the serializing one stopped; in-flight fills and stats
  // are timing/measurement state and never part of warm state. A cache
  // never invalidates a line, so every invalid line still holds its
  // constructed default and only valid ones are listed.
  out.u32(num_sets_);
  out.u32(config_.assoc);
  out.u64(use_stamp_);
  util::write_sparse(out, lines_, [](const Line& l) { return l.valid; },
                     [&out](const Line& l) {
                       out.u64(l.tag);
                       out.boolean(l.dirty);
                       out.u64(l.lru);
                     });
}

void Cache::deserialize(util::ByteReader& in) {
  if (in.u32() != num_sets_ || in.u32() != config_.assoc) {
    throw util::GeometryMismatch("Cache: warm-state geometry mismatch (" +
                                 config_.name + ")");
  }
  use_stamp_ = in.u64();
  std::fill(lines_.begin(), lines_.end(), Line{});
  util::read_sparse(in, lines_, "Cache", [&in](Line& l) {
    l.tag = in.u64();
    l.valid = true;
    l.dirty = in.boolean();
    l.lru = in.u64();
  });
  inflight_fills_.clear();
}

}  // namespace cfir::mem
