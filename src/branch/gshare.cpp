#include "branch/gshare.hpp"

#include <algorithm>

namespace cfir::branch {

Gshare::Gshare(uint32_t entries, uint32_t history_bits) {
  util::require_geometry("Gshare", "entry count", entries, true);
  table_.assign(entries, kWeaklyTaken);
  mask_ = entries - 1;
  history_mask_ = history_bits >= 64 ? ~uint64_t{0}
                                     : ((uint64_t{1} << history_bits) - 1);
}

uint32_t Gshare::index(uint64_t pc, uint64_t history) const {
  return static_cast<uint32_t>((pc >> 2) ^ history) & mask_;
}

bool Gshare::predict(uint64_t pc) const {
  return table_[index(pc, history_)] >= 2;
}

uint64_t Gshare::speculate(bool predicted) {
  const uint64_t snapshot = history_;
  history_ = ((history_ << 1) | (predicted ? 1 : 0)) & history_mask_;
  return snapshot;
}

void Gshare::train(uint64_t pc, uint64_t snapshot, bool taken) {
  uint8_t& c = table_[index(pc, snapshot)];
  if (taken) {
    if (c < 3) ++c;
  } else {
    if (c > 0) --c;
  }
}

void Gshare::recover(uint64_t snapshot, bool taken) {
  history_ = ((snapshot << 1) | (taken ? 1 : 0)) & history_mask_;
}

void Gshare::warm_commit(uint64_t pc, bool taken) {
  train(pc, history_, taken);
  history_ = ((history_ << 1) | (taken ? 1 : 0)) & history_mask_;
}

uint64_t Gshare::debug_digest() const {
  util::Digest d;
  d.bytes(table_.data(), table_.size());
  d.u64(history_);
  return d.value();
}

void Gshare::serialize(util::ByteWriter& out) const {
  out.u32(static_cast<uint32_t>(table_.size()));
  out.u64(history_);
  util::write_sparse(out, table_, [](uint8_t c) { return c != kWeaklyTaken; },
                     [&out](uint8_t c) { out.u8(c); });
}

void Gshare::deserialize(util::ByteReader& in) {
  if (in.u32() != table_.size()) {
    throw util::GeometryMismatch("Gshare: warm-state table size mismatch");
  }
  history_ = in.u64() & history_mask_;
  std::fill(table_.begin(), table_.end(), kWeaklyTaken);
  util::read_sparse(in, table_, "Gshare", [&in](uint8_t& c) {
    c = in.u8();
    if (c > 3) {
      throw std::runtime_error("Gshare: warm-state counter out of range");
    }
  });
}

}  // namespace cfir::branch
