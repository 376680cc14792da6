// Set-associative, write-back/write-allocate cache timing model with LRU
// replacement and in-flight miss merging (MSHR-style). The model is
// latency-based: data always comes functionally from MainMemory/LSQ; the
// cache decides *when* it arrives and counts accesses for Figure 8.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/warmable.hpp"

namespace cfir::mem {

struct CacheConfig {
  std::string name = "cache";
  uint32_t size_bytes = 64 * 1024;
  uint32_t assoc = 2;
  uint32_t line_bytes = 64;
  uint32_t hit_latency = 1;
};

struct CacheStats {
  uint64_t accesses = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t writebacks = 0;
  uint64_t mshr_merges = 0;
};

/// One cache level. `access` returns the number of cycles until the data is
/// available *from this level down* (the owning hierarchy adds upper-level
/// latencies).
///
/// Sets are set up on first use: the line array starts uninitialized and a
/// bitmap marks the live sets, so building (or deserializing into) a
/// cache costs its resident state, not its capacity. A dead set reads as
/// all ways invalid; the first miss or warm access into it zeroes its
/// ways, which is the state a dense, fully initialized array would hold.
class Cache : public util::Warmable {
 public:
  /// Throws util::BadGeometry for a zero or non-power-of-two line size, a
  /// zero way count, or a set count that is zero or not a power of two.
  explicit Cache(const CacheConfig& config);
  /// Copies walk live sets only.
  Cache(const Cache& other);
  Cache& operator=(const Cache& other);
  Cache(Cache&&) noexcept = default;
  Cache& operator=(Cache&&) noexcept = default;
  ~Cache() override = default;

  struct Result {
    bool hit = false;
    uint32_t latency = 0;  ///< cycles from access start until line available
  };

  /// Performs a timed access at absolute cycle `now`. `miss_fill_latency` is
  /// the cost of fetching the line from the level below on a miss.
  Result access(uint64_t addr, bool is_write, uint64_t now,
                uint32_t miss_fill_latency);

  /// access() split at its tag check, so a caller that computes the miss
  /// fill latency from the level below walks the set once: find() returns
  /// the resident line's index, then hit(index, ...) or miss(addr, ...)
  /// completes the access exactly as access() would.
  [[nodiscard]] int64_t find(uint64_t addr) const;
  Result hit(int64_t line, bool is_write, uint64_t now);
  Result miss(uint64_t addr, bool is_write, uint64_t now,
              uint32_t miss_fill_latency);

  /// Tag-only probe (no state change), for tests.
  [[nodiscard]] bool probe(uint64_t addr) const { return find(addr) >= 0; }

  /// Functional warming: the tag/LRU/dirty state transition of access()
  /// with none of its timing (no MSHR, no latency) and none of its stats —
  /// warm accesses must not pollute the measured interval's counters.
  /// Returns whether the line was resident (a hit).
  bool warm_access(uint64_t addr, bool is_write);

  /// Digest over the cache *contents*: per set, the valid lines sorted by
  /// tag (with their dirty bits). Recency (LRU stamps) is deliberately
  /// excluded: a detailed core interleaves instruction-side, out-of-order
  /// load-issue and commit-time store accesses, so recency order differs
  /// benignly from the commit-order functional stream; the resident line
  /// set is the warm state that matters.
  [[nodiscard]] uint64_t debug_digest() const override;
  void serialize(util::ByteWriter& out) const override;
  void deserialize(util::ByteReader& in) override;

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const CacheConfig& config() const { return config_; }
  [[nodiscard]] uint64_t line_of(uint64_t addr) const {
    return addr >> line_shift_;
  }
  [[nodiscard]] uint32_t num_sets() const { return num_sets_; }

  void reset();

 private:
  /// Trivially constructible, so the array can start uninitialized; a
  /// live set's ways are always initialized (zeroed when it came to life).
  /// `fill` mirrors inflight_fills_: a resident line's fill time equals its
  /// entry there, or is 0 when it has none, so a hit reads it here.
  struct Line {
    uint64_t tag;
    uint64_t lru;         ///< last-use stamp
    uint64_t fill : 62;   ///< cycle its data arrives (cycles stay < 2^62)
    uint64_t valid : 1;
    uint64_t dirty : 1;
  };
  static_assert(sizeof(Line) == 24, "a line mirrors its fill in 24 bytes");
  [[nodiscard]] uint32_t set_of(uint64_t line_addr) const {
    return static_cast<uint32_t>(line_addr) & (num_sets_ - 1);
  }
  [[nodiscard]] bool live(uint32_t set) const {
    return ((live_[set >> 6] >> (set & 63)) & 1) != 0;
  }
  /// Index of `set`'s first way; a dead set's ways are zeroed and the set
  /// marked live first.
  size_t touch_set(uint32_t set);
  /// Calls fn(set) for every live set, in ascending order.
  template <typename Fn>
  void for_each_live_set(Fn fn) const;

  CacheConfig config_;
  uint32_t num_sets_;
  uint32_t line_shift_;  ///< log2(line_bytes)
  std::unique_ptr<Line[]> lines_;  ///< num_sets_ * assoc, set-major
  std::vector<uint64_t> live_;     ///< one bit per set
  uint64_t use_stamp_ = 0;
  CacheStats stats_;
  /// line address -> cycle at which its latest fill completes; kept after
  /// the line is evicted so a re-miss merges with a fill still in flight.
  /// Only timed misses add entries: warm accesses and deserialize leave
  /// none, and a cache takes warm accesses or timed ones, never both.
  std::unordered_map<uint64_t, uint64_t> inflight_fills_;
};

}  // namespace cfir::mem
