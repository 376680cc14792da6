#include "mem/cache.hpp"

#include <algorithm>
#include <bit>

namespace cfir::mem {

Cache::Cache(const CacheConfig& config) : config_(config) {
  const std::string who = "Cache " + config_.name;
  util::require_geometry(who, "line size", config_.line_bytes, true);
  util::require_geometry(who, "way count", config_.assoc, false);
  const uint64_t sets = config_.size_bytes /
                        (uint64_t{config_.line_bytes} * config_.assoc);
  util::require_geometry(who, "set count", sets, true);
  num_sets_ = static_cast<uint32_t>(sets);
  line_shift_ = static_cast<uint32_t>(std::countr_zero(config_.line_bytes));
  lines_ = std::make_unique_for_overwrite<Line[]>(size_t{num_sets_} *
                                                  config_.assoc);
  live_.assign((num_sets_ + 63) / 64, 0);
}

template <typename Fn>
void Cache::for_each_live_set(Fn fn) const {
  for (size_t word = 0; word < live_.size(); ++word) {
    for (uint64_t bits = live_[word]; bits != 0; bits &= bits - 1) {
      fn(static_cast<uint32_t>(word * 64 +
                               static_cast<size_t>(std::countr_zero(bits))));
    }
  }
}

Cache::Cache(const Cache& other)
    : config_(other.config_),
      num_sets_(other.num_sets_),
      line_shift_(other.line_shift_),
      lines_(std::make_unique_for_overwrite<Line[]>(size_t{num_sets_} *
                                                    config_.assoc)),
      live_(other.live_),
      use_stamp_(other.use_stamp_),
      stats_(other.stats_),
      inflight_fills_(other.inflight_fills_) {
  const size_t ways = config_.assoc;
  for_each_live_set([&](uint32_t set) {
    const size_t base = size_t{set} * ways;
    std::copy_n(&other.lines_[base], ways, &lines_[base]);
  });
}

Cache& Cache::operator=(const Cache& other) {
  if (this != &other) *this = Cache(other);
  return *this;
}

size_t Cache::touch_set(uint32_t set) {
  const size_t base = size_t{set} * config_.assoc;
  uint64_t& word = live_[set >> 6];
  const uint64_t bit = uint64_t{1} << (set & 63);
  if ((word & bit) == 0) {
    word |= bit;
    std::fill_n(&lines_[base], config_.assoc, Line{});
  }
  return base;
}

void Cache::reset() {
  std::fill(live_.begin(), live_.end(), 0);
  inflight_fills_.clear();
  stats_ = CacheStats{};
  use_stamp_ = 0;
}

int64_t Cache::find(uint64_t addr) const {
  const uint64_t line_addr = addr >> line_shift_;
  const uint32_t set = set_of(line_addr);
  if (!live(set)) return -1;
  const size_t base = size_t{set} * config_.assoc;
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
  const uint64_t fill = l.fill;
  return {true, fill > now ? static_cast<uint32_t>(fill - now)
                           : config_.hit_latency};
}

Cache::Result Cache::miss(uint64_t addr, bool is_write, uint64_t now,
                          uint32_t miss_fill_latency) {
  ++stats_.accesses;
  ++use_stamp_;
  const uint64_t line_addr = addr >> line_shift_;
  const uint64_t tag = line_addr;  // full line address as tag (simple, exact)
  const size_t base = touch_set(set_of(line_addr));

  // Merge with a fill of the same line still in flight (the line was
  // evicted before its data arrived); otherwise this miss starts a fill.
  ++stats_.misses;
  uint32_t latency = config_.hit_latency + miss_fill_latency;
  const auto [it, fresh] = inflight_fills_.try_emplace(line_addr, 0);
  if (!fresh && it->second > now) {
    ++stats_.mshr_merges;
    latency = static_cast<uint32_t>(it->second - now);
  } else {
    it->second = now + latency;
    // Opportunistic cleanup to bound the map; a resident line whose entry
    // goes loses its mirrored fill time with it.
    if (fresh && inflight_fills_.size() > 4096) {
      for (auto it2 = inflight_fills_.begin(); it2 != inflight_fills_.end();) {
        if (it2->second <= now) {
          if (const int64_t l = find(it2->first << line_shift_); l >= 0) {
            lines_[static_cast<size_t>(l)].fill = 0;
          }
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
  v.fill = now + latency;
  return {false, latency};
}

bool Cache::warm_access(uint64_t addr, bool is_write) {
  const uint64_t line_addr = addr >> line_shift_;
  const uint64_t tag = line_addr;
  const size_t base = touch_set(set_of(line_addr));

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
  v.fill = 0;
  return false;
}

uint64_t Cache::debug_digest() const {
  util::Digest d;
  d.u32(num_sets_).u32(config_.assoc);
  std::vector<std::pair<uint64_t, bool>> resident;
  for (uint32_t set = 0; set < num_sets_; ++set) {
    resident.clear();
    if (live(set)) {
      const size_t base = size_t{set} * config_.assoc;
      for (uint32_t w = 0; w < config_.assoc; ++w) {
        const Line& l = lines_[base + w];
        if (l.valid) resident.emplace_back(l.tag, l.dirty != 0);
      }
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
  // never invalidates a line, so only valid lines are listed, in
  // ascending slot order (dead sets hold none).
  out.u32(num_sets_);
  out.u32(config_.assoc);
  out.u64(use_stamp_);
  util::SparseWriter list(out);
  for_each_live_set([&](uint32_t set) {
    const size_t base = size_t{set} * config_.assoc;
    for (uint32_t w = 0; w < config_.assoc; ++w) {
      const Line& l = lines_[base + w];
      if (!l.valid) continue;
      list.entry(base + w);
      out.u64(l.tag);
      out.boolean(l.dirty);
      out.u64(l.lru);
    }
  });
  list.finish();
}

void Cache::deserialize(util::ByteReader& in) {
  if (in.u32() != num_sets_ || in.u32() != config_.assoc) {
    throw util::GeometryMismatch("Cache: warm-state geometry mismatch (" +
                                 config_.name + ")");
  }
  use_stamp_ = in.u64();
  std::fill(live_.begin(), live_.end(), 0);
  util::read_sparse_slots(
      in, size_t{num_sets_} * config_.assoc, "Cache", [&](uint32_t slot) {
        touch_set(slot / config_.assoc);
        Line& l = lines_[slot];
        l.tag = in.u64();
        l.valid = true;
        l.dirty = in.boolean();
        l.lru = in.u64();
        l.fill = 0;
      });
  inflight_fills_.clear();
}

}  // namespace cfir::mem
