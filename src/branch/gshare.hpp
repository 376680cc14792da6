// Gshare conditional branch predictor (64K-entry 2-bit counter table per
// Table 1 of the paper) with speculative global-history management: fetch
// shifts the prediction into the history; misprediction recovery restores
// the pre-branch snapshot and shifts in the actual outcome.
#pragma once

#include <cstdint>
#include <vector>

#include "util/warmable.hpp"

namespace cfir::branch {

class Gshare : public util::Warmable {
 public:
  explicit Gshare(uint32_t entries = 64 * 1024, uint32_t history_bits = 16);

  /// Predicts `pc`'s direction using current speculative history.
  [[nodiscard]] bool predict(uint64_t pc) const;

  /// Returns the history snapshot to store with the in-flight branch, then
  /// speculatively shifts `predicted` into the history.
  uint64_t speculate(bool predicted);

  /// Trains the counter table with the resolved outcome. Uses the history
  /// the branch was predicted with (`snapshot`).
  void train(uint64_t pc, uint64_t snapshot, bool taken);

  /// Misprediction repair: restores `snapshot` and shifts in `taken`.
  void recover(uint64_t snapshot, bool taken);

  /// Functional warming: one committed conditional branch, in commit order.
  /// Trains the counter indexed by the current (commit-order) history and
  /// shifts the actual outcome in. Equivalent to what a detailed run leaves
  /// behind: commit-time train() uses the fetch-time history snapshot, which
  /// on the committed path equals the commit-order history (mispredictions
  /// repair the speculative history before the correct path refetches).
  void warm_commit(uint64_t pc, bool taken);

  /// Digest over the full predictor state (counter table + history).
  [[nodiscard]] uint64_t debug_digest() const override;
  void serialize(util::ByteWriter& out) const override;
  void deserialize(util::ByteReader& in) override;

  /// Raw history restore (used when an indirect jump mispredicts: the jump
  /// itself never entered the history, but squashed wrong-path conditional
  /// branches after it did).
  void set_history(uint64_t h) { history_ = h & history_mask_; }

  [[nodiscard]] uint64_t history() const { return history_; }
  [[nodiscard]] uint32_t entries() const {
    return static_cast<uint32_t>(table_.size());
  }

 private:
  /// Reset value of every counter; warm state lists only the others.
  static constexpr uint8_t kWeaklyTaken = 2;

  [[nodiscard]] uint32_t index(uint64_t pc, uint64_t history) const;

  std::vector<uint8_t> table_;  ///< 2-bit saturating counters
  uint32_t mask_;
  uint64_t history_mask_;
  uint64_t history_ = 0;
};

}  // namespace cfir::branch
