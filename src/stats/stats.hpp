// Simulation statistics. One flat struct per run — every paper figure is
// derived from these counters (see DESIGN.md section 4 for the mapping).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/warmable.hpp"

namespace cfir::stats {

// Every additive counter of SimStats, in declaration order. merge(),
// subtract(), merge_scaled() and to_json() are all generated from this one
// list so adding a counter is a two-line change (declare it below, add it
// here). `halted` (merge = logical OR) and `regs_in_use_max` (merge = max)
// are the only non-additive fields and are handled explicitly.
#define CFIR_SIMSTATS_COUNTERS(X)                                          \
  X(cycles)                                                                \
  X(committed)                                                             \
  X(committed_loads)                                                       \
  X(committed_stores)                                                      \
  X(committed_branches)                                                    \
  X(fetched)                                                               \
  X(squashed)                                                              \
  X(cond_branches)                                                         \
  X(mispredicts)                                                           \
  X(hard_mispredicts)                                                      \
  X(ep_total)                                                              \
  X(ep_ci_selected)                                                        \
  X(ep_ci_reused)                                                          \
  X(reused_committed)                                                      \
  X(replicas_created)                                                      \
  X(replicas_executed)                                                     \
  X(validations_failed)                                                    \
  X(misvalidation_squashes)                                                \
  X(safety_net_recoveries)                                                 \
  X(srsmt_allocs)                                                          \
  X(srsmt_dealloc_daec)                                                    \
  X(srsmt_dealloc_coherence)                                               \
  X(srsmt_dealloc_replace)                                                 \
  X(l1i_accesses)                                                          \
  X(l1i_misses)                                                            \
  X(l1d_accesses)                                                          \
  X(l1d_misses)                                                            \
  X(l2_accesses)                                                           \
  X(l2_misses)                                                             \
  X(l3_accesses)                                                           \
  X(l3_misses)                                                             \
  X(wide_accesses)                                                         \
  X(loads_piggybacked)                                                     \
  X(lsq_forwards)                                                          \
  X(store_range_checks)                                                    \
  X(store_range_conflicts)                                                 \
  X(regs_in_use_accum)                                                     \
  X(reg_samples)                                                           \
  X(rename_stall_cycles)                                                   \
  X(replica_alloc_denied)                                                  \
  X(watchdog_reclaims)                                                     \
  X(stridedpc_propagations)                                                \
  X(stridedpc_overflows)                                                   \
  X(stridedpc_width_accum)                                                 \
  X(specmem_writes)                                                        \
  X(specmem_copies)                                                        \
  X(specmem_alloc_denied)

struct SimStats {
  // --- progress ----------------------------------------------------------
  uint64_t cycles = 0;
  uint64_t committed = 0;            ///< architecturally committed instructions
  uint64_t committed_loads = 0;
  uint64_t committed_stores = 0;
  uint64_t committed_branches = 0;
  uint64_t fetched = 0;              ///< instructions entering the pipeline
  uint64_t squashed = 0;             ///< fetched but never committed (specBP)
  bool halted = false;

  // --- branches ------------------------------------------------------------
  uint64_t cond_branches = 0;        ///< committed conditional branches
  uint64_t mispredicts = 0;          ///< resolved mispredictions (recovery)
  uint64_t hard_mispredicts = 0;     ///< mispredictions the MBS deems hard

  // --- control independence episodes (Figure 5) ---------------------------
  // One "episode" per hard mispredicted branch handled by the CRP.
  uint64_t ep_total = 0;
  uint64_t ep_ci_selected = 0;       ///< episodes selecting >=1 CI instruction
  uint64_t ep_ci_reused = 0;         ///< episodes whose selections led to reuse

  // --- reuse / replication (Figures 11-12) --------------------------------
  uint64_t reused_committed = 0;     ///< committed instructions fed by replicas
  uint64_t replicas_created = 0;
  uint64_t replicas_executed = 0;    ///< specCI activity
  uint64_t validations_failed = 0;   ///< SRSMT validation mismatches at decode
  uint64_t misvalidation_squashes = 0;  ///< commit-time replica/value mismatch
  uint64_t safety_net_recoveries = 0;   ///< architectural recheck firing
  uint64_t srsmt_allocs = 0;
  uint64_t srsmt_dealloc_daec = 0;
  uint64_t srsmt_dealloc_coherence = 0;
  uint64_t srsmt_dealloc_replace = 0;

  // --- memory system (Figure 8) --------------------------------------------
  uint64_t l1i_accesses = 0, l1i_misses = 0;
  uint64_t l1d_accesses = 0, l1d_misses = 0;
  uint64_t l2_accesses = 0, l2_misses = 0;
  uint64_t l3_accesses = 0, l3_misses = 0;
  uint64_t wide_accesses = 0;        ///< line-wide L1D reads issued
  uint64_t loads_piggybacked = 0;    ///< loads served by someone else's access
  uint64_t lsq_forwards = 0;

  // --- coherence (section 2.4.3) -------------------------------------------
  uint64_t store_range_checks = 0;
  uint64_t store_range_conflicts = 0;

  // --- register file (section 2.4.2, Figures 9/13) -------------------------
  uint64_t regs_in_use_accum = 0;    ///< sum over sampled cycles
  uint64_t reg_samples = 0;
  uint64_t regs_in_use_max = 0;
  uint64_t rename_stall_cycles = 0;  ///< cycles rename blocked on free list
  uint64_t replica_alloc_denied = 0; ///< replicas skipped: no registers/slots
  uint64_t watchdog_reclaims = 0;    ///< liveness guard firings (see DESIGN.md)

  // --- stridedPC propagation (Figure 4) ------------------------------------
  uint64_t stridedpc_propagations = 0;
  uint64_t stridedpc_overflows = 0;  ///< unions truncated by the per-entry cap
  uint64_t stridedpc_width_accum = 0;  ///< sum of set sizes after propagation

  // --- speculative data memory (Figure 13) ---------------------------------
  uint64_t specmem_writes = 0;
  uint64_t specmem_copies = 0;       ///< copy micro-ops inserted
  uint64_t specmem_alloc_denied = 0;

  // --- derived -------------------------------------------------------------
  [[nodiscard]] double ipc() const {
    return cycles == 0 ? 0.0 : static_cast<double>(committed) /
                                   static_cast<double>(cycles);
  }
  [[nodiscard]] double mispredict_rate() const {
    return cond_branches == 0
               ? 0.0
               : static_cast<double>(mispredicts) /
                     static_cast<double>(cond_branches);
  }
  [[nodiscard]] double avg_regs_in_use() const {
    return reg_samples == 0 ? 0.0
                            : static_cast<double>(regs_in_use_accum) /
                                  static_cast<double>(reg_samples);
  }
  [[nodiscard]] double avg_stridedpc_width() const {
    return stridedpc_propagations == 0
               ? 0.0
               : static_cast<double>(stridedpc_width_accum) /
                     static_cast<double>(stridedpc_propagations);
  }
  [[nodiscard]] double reuse_fraction() const {
    return committed == 0 ? 0.0
                          : static_cast<double>(reused_committed) /
                                static_cast<double>(committed);
  }

  /// Human-readable multi-line dump (examples, debugging).
  [[nodiscard]] std::string to_string() const;

  /// Accumulates `other` into this. Counters add; `regs_in_use_max` takes
  /// the max; `halted` becomes true once any contributor reached HALT (in
  /// an interval-sampled run only the final interval can). Used by the
  /// interval-sampling driver to aggregate per-interval stats, so the
  /// derived ratios (ipc(), reuse_fraction(), ...) remain meaningful on the
  /// merged result.
  SimStats& merge(const SimStats& other);

  /// Inverse of merge() for the additive counters: subtracts `other` from
  /// this. The warm-up machinery in trace::sampled_run snapshots stats at
  /// the end of the warm-up slice and subtracts them from the full-interval
  /// stats, leaving only the measured window — the subtrahend is therefore
  /// always a prefix snapshot of the minuend and underflow indicates a
  /// caller bug: debug builds assert, release builds saturate at zero.
  /// `halted` and `regs_in_use_max` are not invertible (OR / max lose
  /// information); they keep the minuend's value, which is correct for the
  /// warm-up use where the minuend covers a superset window.
  SimStats& subtract(const SimStats& other);

  /// merge() with every additive counter of `other` scaled by `weight`
  /// (rounded to nearest). Cluster-mode sampling extrapolates a full run
  /// from one representative interval per phase: each representative's
  /// stats are folded in weighted by its cluster population, so the
  /// aggregate's derived ratios estimate the full-run values.
  SimStats& merge_scaled(const SimStats& other, double weight);
};

/// Byte serialization of one SimStats block (every X-macro counter in
/// declaration order, then `halted`, then `regs_in_use_max` — all
/// little-endian via util::ByteWriter). This is the payload format of the
/// per-interval stats inside CFIRSHD2 shard-result blobs
/// (trace/shard.hpp), so shards computed on one machine deserialize
/// bit-identically on another.
void serialize(const SimStats& s, util::ByteWriter& out);
[[nodiscard]] SimStats deserialize_stats(util::ByteReader& in);

/// One measured interval's contribution to a sharded aggregate: the
/// interval's measured stats and the population weight it stands in for.
struct WeightedStats {
  SimStats stats;
  double weight = 1.0;
};

/// Merge layer of sharded sampling: folds per-interval contributions into
/// one aggregate, exactly as the in-process sampler does (merge for weight
/// 1, merge_scaled otherwise). Each contribution rounds and adds
/// independently, and integer addition / max / OR commute — so the result
/// is bit-identical for ANY ordering or grouping of the parts. That
/// order-independence is what lets intervals be farmed across shards and
/// machines and still merge back to the single-process answer
/// (tests/test_stats.cpp locks it with randomized orders).
[[nodiscard]] SimStats merge_shards(const std::vector<WeightedStats>& parts);

/// Harmonic mean, the average the paper uses for IPC across benchmarks.
[[nodiscard]] double harmonic_mean(const std::vector<double>& xs);

/// Machine-readable single-line JSON object holding every counter plus the
/// derived metrics (keys match the member names). Benches and the trace
/// tool emit this so results can be diffed / plotted without screen-scraping
/// the ASCII tables.
[[nodiscard]] std::string to_json(const SimStats& s);

}  // namespace cfir::stats
