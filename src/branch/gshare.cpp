#include "branch/gshare.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

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

namespace {

/// Bit 8·k set for each byte k of `word` that differs from the same byte
/// of `reset_word` (byte k is counter base + k: words load little-endian).
uint64_t trained_bits(uint64_t word, uint64_t reset_word) {
  uint64_t x = word ^ reset_word;
  x |= x >> 4;
  x |= x >> 2;
  x |= x >> 1;
  return x & 0x0101010101010101ull;
}

}  // namespace

void Gshare::serialize(util::ByteWriter& out) const {
  out.u32(static_cast<uint32_t>(table_.size()));
  out.u64(history_);
  // util::write_sparse's bytes — a u32 count, then a u32 slot and a u8
  // counter per entry off its reset value — found 8 counters at a time:
  // most of a warm table never leaves kWeaklyTaken, so a word of reset
  // counters costs one compare, and any other word yields its entries as
  // set bits. A first pass counts them to size the list.
  static_assert(std::endian::native == std::endian::little);
  const uint64_t reset_word = uint64_t{kWeaklyTaken} * 0x0101010101010101ull;
  const size_t words_end = table_.size() / 8 * 8;
  const auto word_at = [this](size_t base) {
    uint64_t word = 0;
    std::memcpy(&word, table_.data() + base, sizeof(word));
    return word;
  };
  size_t count = 0;
  for (size_t base = 0; base < words_end; base += 8) {
    const uint64_t word = word_at(base);
    if (word == reset_word) continue;
    count += static_cast<size_t>(
        std::popcount(trained_bits(word, reset_word)));
  }
  for (size_t slot = words_end; slot < table_.size(); ++slot) {
    count += table_[slot] != kWeaklyTaken ? 1 : 0;
  }
  out.u32(static_cast<uint32_t>(count));
  uint8_t* at = out.extend(count * (sizeof(uint32_t) + 1));
  const auto put = [&at, this](size_t slot) {
    const auto slot32 = static_cast<uint32_t>(slot);
    std::memcpy(at, &slot32, sizeof(slot32));
    at[sizeof(slot32)] = table_[slot];
    at += sizeof(slot32) + 1;
  };
  for (size_t base = 0; base < words_end; base += 8) {
    const uint64_t word = word_at(base);
    if (word == reset_word) continue;
    for (uint64_t bits = trained_bits(word, reset_word); bits != 0;
         bits &= bits - 1) {
      put(base + static_cast<size_t>(std::countr_zero(bits)) / 8);
    }
  }
  for (size_t slot = words_end; slot < table_.size(); ++slot) {
    if (table_[slot] != kWeaklyTaken) put(slot);
  }
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
