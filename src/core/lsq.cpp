#include "core/lsq.hpp"

namespace cfir::core {

bool LoadStoreQueue::push(const LsqEntry& e) {
  if (full()) return false;
  ring_[pos(size_)] = e;
  ++size_;
  return true;
}

void LoadStoreQueue::pop_front() {
  if (size_ == 0) return;
  if (++head_ == ring_.size()) head_ = 0;
  --size_;
}

void LoadStoreQueue::squash_younger(uint64_t seq) {
  while (size_ > 0 && at(size_ - 1).seq > seq) --size_;
}

size_t LoadStoreQueue::older_than(uint64_t seq) const {
  size_t lo = 0, hi = size_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (at(mid).seq < seq) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

LsqEntry* LoadStoreQueue::find(uint64_t seq) {
  const size_t i = older_than(seq);
  if (i == size_ || at(i).seq != seq) return nullptr;
  return &ring_[pos(i)];
}

bool LoadStoreQueue::older_store_addrs_known(uint64_t seq) const {
  const size_t n = older_than(seq);
  for (size_t i = 0; i < n; ++i) {
    const LsqEntry& e = at(i);
    if (e.is_store && !e.addr_known) return false;
  }
  return true;
}

LoadStoreQueue::ForwardResult LoadStoreQueue::try_forward(
    uint64_t seq, uint64_t addr, int size, uint64_t& value_out) const {
  // Scan youngest-to-oldest among older stores; the first overlap decides.
  for (size_t i = older_than(seq); i-- > 0;) {
    const LsqEntry& e = at(i);
    if (!e.is_store) continue;
    if (!e.addr_known) return ForwardResult::kConflict;
    const uint64_t a0 = addr, a1 = addr + static_cast<uint64_t>(size);
    const uint64_t b0 = e.addr, b1 = e.addr + static_cast<uint64_t>(e.size);
    const bool overlap = a0 < b1 && b0 < a1;
    if (!overlap) continue;
    const bool contained = b0 <= a0 && a1 <= b1;
    if (!contained || !e.value_known) return ForwardResult::kConflict;
    // Extract the requested bytes out of the store's value.
    const uint64_t shift = 8 * (a0 - b0);
    uint64_t v = e.value >> shift;
    if (size < 8) v &= (uint64_t{1} << (8 * size)) - 1;
    value_out = v;
    return ForwardResult::kForwarded;
  }
  return ForwardResult::kNone;
}

}  // namespace cfir::core
