// Shard runner and result blobs — the "execute" and "merge" layers of the
// plan / execute / merge decomposition of sampled simulation
// (docs/sharding.md; trace/manifest.hpp is the plan layer).
//
// A ShardSelection names the subset of a plan's intervals one worker runs:
// shard i of N takes every interval whose plan index ≡ i (mod N), so
// consecutive (expensive) intervals spread across shards. run_shard
// executes that subset for a whole grid of ConfigBindings — the plan's
// intervals and checkpoints are config-independent, so one shard simulates
// every bound config per interval, streaming each functional-warming gap
// ONCE and fanning the committed records out to every config's Warmable
// components (warming cost O(gap), not O(gap × configs)). The result is a
// ShardResult: per-interval stats with one column per config, plus
// everything the merge layer needs to validate and fold them. Results
// serialize as CFIRSHD2 blobs, so N workers on N machines each run one
// shard of the whole grid and ship one small file back;
// merge_shard_grid folds any complete set of them into per-config
// SampledRuns, each **bit-identical** to that config's single-config
// trace::sampled_run (which is itself run_shard of the whole plan + merge
// — there is exactly one orchestration code path).
//
// File format, version 3 (little-endian, shared CRC-32 footer required —
// trace/blob.hpp):
//   magic "CFIRSHD2" | u32 version | u32 reserved
//   | u64 plan_hash | u32 shard_index | u32 shard_count
//   | u32 plan_intervals | u64 total_insts | u8 ran_to_halt
//   | u64 warmed_insts            (shared streaming cost, counted once)
//   | u64 warm_wall_us            (v3: host wall of the warm capture pass)
//   | u32 n_configs
//   | n_configs x (u32 name_len | name bytes | u64 config_hash
//                  | u64 detailed_insts)
//   | u32 n_intervals
//   | n x (u32 plan_index | u64 start | u64 length | u64 warmup
//          | u64 weight_bits(double) | n_configs x SimStats
//            (stats::serialize)
//          | n_configs x u64 wall_us   (v3: per-column detail wall))
//   | "CRC1" | u32 crc32
// The v3 wall fields are host telemetry riding next to the simulated
// stats — merge surfaces them (`merge --per-phase`) but they never enter
// SimStats, so merged results stay bit-identical to pre-telemetry runs.
// The retired "CFIRSHD1" magic and "CFIRSHD2" versions other than 3 are
// recognised only to be rejected (VersionError).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "isa/program.hpp"
#include "stats/stats.hpp"
#include "trace/sampling.hpp"

namespace cfir::trace {

inline constexpr char kShardMagicV2[8] = {'C', 'F', 'I', 'R',
                                          'S', 'H', 'D', '2'};
inline constexpr uint32_t kShardVersion = 3;

/// Shard `index` of `count`: the intervals whose plan index ≡ index
/// (mod count). The default selection {0, 1} is the whole plan.
struct ShardSelection {
  uint32_t index = 0;
  uint32_t count = 1;

  [[nodiscard]] bool covers(size_t plan_index) const {
    return plan_index % count == index;
  }
};

/// Parses "i/N" (e.g. "0/4"); throws std::runtime_error on malformed specs
/// or i >= N, so a typo'd --shard flag fails loudly.
[[nodiscard]] ShardSelection parse_shard(std::string_view spec);

struct ShardResult {
  /// Stamped from the manifest (0 in-process): its plan-structure hash.
  /// Merge rejects mixtures.
  uint64_t plan_hash = 0;
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
  uint32_t plan_intervals = 0;  ///< intervals in the whole plan (coverage)
  uint64_t total_insts = 0;     ///< instructions the plan covers
  bool ran_to_halt = false;
  /// This shard's functionally warmed instructions. Counted ONCE per
  /// interval regardless of how many configs share the stream — the
  /// amortization the grid path exists for (locked in tests/test_shard.cpp).
  uint64_t warmed_insts = 0;
  /// Host wall-clock of the shared warm-capture pass (telemetry; 0 when
  /// the plan's warm mode has no functional prefix).
  uint64_t warm_wall_us = 0;

  /// One config column of the grid this shard executed.
  struct ConfigColumn {
    std::string name;
    uint64_t config_hash = 0;
    uint64_t detailed_insts = 0;  ///< this column's detailed-simulation cost
  };
  std::vector<ConfigColumn> configs;

  struct Interval {
    uint32_t plan_index = 0;  ///< position in the plan (coverage + ordering)
    uint64_t start_inst = 0;
    uint64_t length = 0;
    uint64_t warmup = 0;
    double weight = 1.0;
    /// Measured slice only (warm-up subtracted), one entry per config
    /// column, in `configs` order.
    std::vector<stats::SimStats> stats;
    /// Host wall-clock of each column's detail simulation of this
    /// interval (telemetry), in `configs` order. serialize writes zeros
    /// for an empty vector (callers scrub telemetry that way).
    std::vector<uint64_t> wall_us;
  };
  std::vector<Interval> intervals;

  /// Payload bytes (no CRC footer); deserialize ∘ serialize is the
  /// identity (fuzz-locked in tests/test_shard.cpp).
  [[nodiscard]] std::vector<uint8_t> serialize() const;
  [[nodiscard]] static ShardResult deserialize(
      const std::vector<uint8_t>& payload);

  void save(const std::string& path) const;
  [[nodiscard]] static ShardResult load(const std::string& path);
};

/// Execute layer, grid form: detail-simulates `shard`'s subset of `plan`'s
/// intervals under EVERY binding in `configs`, in parallel over
/// (interval × config) pairs (`threads` <= 0 picks CFIR_THREADS / hardware
/// concurrency), warming per the plan's WarmMode. Functional warm state
/// comes from ONE streaming pass over the prefix up to the shard's last
/// interval, fanning the committed records out to every config's warmer
/// (capture_warm_states_grid). `plan_hash` is stamped into the result for
/// merge-time validation; pass the manifest's hash when executing a
/// manifest-derived plan. The unnamed last parameter is read by nothing:
/// it is kept only because perfbench (frozen with the repo benchmark)
/// passes a recorded trace's path there.
[[nodiscard]] ShardResult run_shard(const std::vector<ConfigBinding>& configs,
                                    const isa::Program& program,
                                    const IntervalPlan& plan,
                                    ShardSelection shard = {},
                                    int threads = 0,
                                    uint64_t plan_hash = 0,
                                    const std::string& = {});

/// Single-config convenience: one binding named by the config's label.
[[nodiscard]] ShardResult run_shard(const core::CoreConfig& config,
                                    const isa::Program& program,
                                    const IntervalPlan& plan,
                                    ShardSelection shard = {},
                                    int threads = 0);

/// One config column of a merged grid: the per-interval + aggregate run
/// this config would have produced single-config (bit-identical to it).
struct MergedGrid {
  struct ConfigRun {
    std::string name;
    uint64_t config_hash = 0;
    SampledRun run;
  };
  std::vector<ConfigRun> configs;
};

/// Merge layer: folds a complete set of shard results back into one
/// SampledRun per config column. Validates that every result carries the
/// same plan hash and the same config column set (ConfigMismatchError
/// otherwise) and that the results cover every plan interval exactly once
/// (CorruptFileError otherwise). Each column's aggregate is bit-identical
/// to the single-config, single-process sampled_run of the same plan,
/// regardless of shard count or merge order (stats::merge_shards).
[[nodiscard]] MergedGrid merge_shard_grid(
    const std::vector<ShardResult>& shards);

/// Single-config convenience over merge_shard_grid: requires exactly one
/// config column and returns its run.
[[nodiscard]] SampledRun merge_shard_results(
    const std::vector<ShardResult>& shards);

}  // namespace cfir::trace
