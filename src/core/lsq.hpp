// Load/store queue with store-to-load forwarding and conservative
// disambiguation (Table 1: "loads may execute when prior store addresses
// are known").
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cfir::core {

struct LsqEntry {
  uint64_t seq = 0;
  bool is_store = false;
  bool addr_known = false;
  bool value_known = false;  ///< stores: data operand computed
  uint64_t addr = 0;
  int size = 0;
  uint64_t value = 0;
  uint32_t rob_slot = 0;
};

/// A fixed ring in program order. Entries enter in ascending seq order and
/// leave from the front (commit) or the back (squash), so the ring stays
/// sorted by seq and a lookup by seq is a binary search.
class LoadStoreQueue {
 public:
  explicit LoadStoreQueue(uint32_t capacity) : ring_(capacity) {}

  [[nodiscard]] bool full() const { return size_ >= ring_.size(); }
  [[nodiscard]] size_t size() const { return size_; }

  /// Appends in program order; returns false when full.
  bool push(const LsqEntry& e);
  /// Removes the oldest entry (commit).
  void pop_front();
  /// Removes entries younger than `seq` (squash).
  void squash_younger(uint64_t seq);

  [[nodiscard]] LsqEntry* find(uint64_t seq);
  /// The youngest entry; the queue must not be empty.
  [[nodiscard]] const LsqEntry& back() const { return at(size_ - 1); }

  /// True when every store older than `seq` has a known address — the
  /// precondition for a load to access memory.
  [[nodiscard]] bool older_store_addrs_known(uint64_t seq) const;

  enum class ForwardResult { kNone, kForwarded, kConflict };
  /// Checks the youngest older store overlapping [addr, addr+size).
  /// kForwarded: full containment, `value_out` holds the bytes.
  /// kConflict: partial overlap or unknown data — the load must wait.
  [[nodiscard]] ForwardResult try_forward(uint64_t seq, uint64_t addr, int size,
                                          uint64_t& value_out) const;

 private:
  /// Ring position of the i-th oldest entry (i <= size_).
  [[nodiscard]] size_t pos(size_t i) const {
    const size_t p = head_ + i;
    return p >= ring_.size() ? p - ring_.size() : p;
  }
  [[nodiscard]] const LsqEntry& at(size_t i) const { return ring_[pos(i)]; }
  /// Number of entries older than `seq`.
  [[nodiscard]] size_t older_than(uint64_t seq) const;

  std::vector<LsqEntry> ring_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace cfir::core
