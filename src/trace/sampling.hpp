// Checkpointed interval sampling: pick a set of intervals of one long
// workload run, simulate each independently on the detailed core (resumed
// from its checkpoint), and merge the per-interval SimStats into one
// aggregate. Two plan kinds (docs/sampling.md has the full treatment):
//
//  - uniform: K contiguous equal intervals covering the whole run. The
//    union commits exactly the monolithic instruction stream, so
//    architectural counters match a monolithic run exactly; the win is
//    wall-clock (the K detailed simulations run in parallel on the
//    sim::run_all pool while the fast-forward uses only the functional
//    engine, isa/engine.hpp).
//  - cluster: SimPoint-style phase sampling. The run is chopped into N
//    fixed-length windows, each summarized as a basic-block vector
//    (bbv.hpp), the vectors are clustered (cluster.hpp), and only one
//    representative window per cluster is detail-simulated. The aggregate
//    extrapolates by cluster population (SimStats::merge_scaled), so ~K
//    representatives stand in for the whole run at a fraction of the
//    detailed-simulation cost.
//
// Either kind warms each interval's microarchitectural state per the
// plan's WarmMode (trace/warming.hpp):
//
//  - detailed: the interval starts W instructions early (its checkpoint is
//    captured at start - W) and the stats accumulated during the warm-up
//    slice are subtracted back out (SimStats::subtract). Accurate but the
//    warm-up instructions cost full detailed simulation.
//  - functional: SMARTS-style — the *whole* prefix [0, start) streams
//    through the predictors and caches only, at functional-engine speed,
//    before the detailed interval begins. Near-zero cost per warmed
//    instruction and no residual transient from state with long time
//    constants.
//  - hybrid: functional prefix up to start - W, then a detailed warm-up of
//    the last W instructions to also warm what functional warming cannot
//    reach (LSQ, in-flight window, replica streams).
//
// Orchestration is layered (docs/sharding.md): this header is the **plan**
// layer (IntervalPlan and the planners); trace/shard.hpp is the
// **execute** layer (run any subset of a plan's intervals) and the
// **merge** layer (fold shard results back into one SampledRun);
// trace/manifest.hpp freezes a plan to disk so the three layers can run on
// different machines. sampled_run below is just plan-in-hand execute +
// merge of the whole plan in one process.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "isa/program.hpp"
#include "stats/stats.hpp"
#include "trace/checkpoint.hpp"
#include "trace/warming.hpp"

namespace cfir::trace {

enum class SampleMode : uint8_t {
  kUniform = 0,  ///< contiguous equal intervals, exact architectural union
  kCluster = 1,  ///< BBV-clustered representatives, population-weighted
};

struct SampledRun {
  struct Interval {
    uint64_t start_inst = 0;  ///< first measured instruction index
    uint64_t length = 0;      ///< instructions measured (after warm-up)
    uint64_t warmup = 0;      ///< instructions warm-simulated before start
    double weight = 1.0;      ///< population this interval stands in for
    stats::SimStats stats;    ///< measured slice only (warm-up subtracted)
    /// Host wall-clock of this interval's detail simulation (telemetry —
    /// never part of the simulated result; 0 when the shard result was
    /// scrubbed, e.g. by `trace_tool run-shard --scrub-wall`).
    uint64_t wall_us = 0;
  };
  std::vector<Interval> intervals;
  uint64_t total_insts = 0;    ///< instructions the plan covers
  uint64_t detailed_insts = 0; ///< instructions actually detail-simulated
                               ///< (measured + detailed warm-up; the cost)
  uint64_t warmed_insts = 0;   ///< instructions functionally warmed
                               ///< (functional-engine speed; ~free by
                               ///< comparison)
  /// Host wall-clock telemetry: summed per-interval detail wall, and the
  /// warm-capture pass wall (shared across a grid's columns).
  uint64_t wall_us = 0;
  uint64_t warm_wall_us = 0;
  stats::SimStats aggregate;   ///< weighted merge of every interval
};

/// The sampling schedule for one workload. Planning uses only the
/// functional engine and depends on the workload — never the core config —
/// so one plan can be shared by every configuration simulating the same
/// workload (sim::run_all does).
struct IntervalPlan {
  SampleMode mode = SampleMode::kUniform;
  WarmMode warm_mode = WarmMode::kDetailed;
  uint64_t total_insts = 0;
  bool ran_to_halt = false;          ///< run ended at HALT, not at the cap
  uint64_t warmup = 0;               ///< requested detailed warm-up W
                                     ///< (instructions; unused by
                                     ///< none/functional modes)
  std::vector<uint64_t> boundaries;  ///< measured-interval start counts
  std::vector<uint64_t> lengths;     ///< measured-interval lengths
  std::vector<double> weights;       ///< per interval (uniform: all 1)
  /// One per interval. Modes with a detailed warm-up slice (detailed,
  /// hybrid) capture at max(start - warmup, 0) — clamped, never
  /// underflowed — and the actual warm-up available to interval i is
  /// boundaries[i] - checkpoints[i].executed. Modes without one (none,
  /// functional) capture at the boundary itself.
  std::vector<Checkpoint> checkpoints;

  // Cluster-mode diagnostics (empty in uniform mode).
  uint64_t interval_len = 0;        ///< window length the run was chopped into
  std::vector<uint32_t> cluster_of; ///< per source window: cluster id
  std::vector<double> bic_by_k;     ///< BIC score per swept k
};

/// Uniform plan: K equal intervals with optional warm-up. Costs two
/// functional-engine passes (count, then snapshot).
///
/// `detail_len` > 0 caps the *measured* slice of every interval at that
/// many instructions and scales the interval's weight by
/// interval_len / measured_len — the SMARTS estimator: many short
/// detail-simulated units extrapolated to the run, with the gaps covered
/// by warming instead of detailed simulation. With a cap the union no
/// longer commits the whole stream, so architectural counters become
/// (unbiased) estimates rather than exact; leave it 0 when exactness
/// matters more than cost.
[[nodiscard]] IntervalPlan plan_intervals(const isa::Program& program,
                                          uint32_t k, uint64_t max_insts = 0,
                                          uint64_t warmup = 0,
                                          WarmMode warm_mode =
                                              WarmMode::kDetailed,
                                          uint64_t detail_len = 0);

/// Knobs for cluster-mode planning (see cluster.hpp for the algorithm
/// parameters' meaning).
struct ClusterPlanOptions {
  uint32_t n_intervals = 32;  ///< fixed-length windows the run is split into
  uint32_t max_k = 0;         ///< cluster-count cap; 0 = min(16, n_intervals)
  uint64_t warmup = 0;        ///< detailed warm-up insts per representative
  WarmMode warm_mode = WarmMode::kDetailed;
  uint64_t detail_len = 0;    ///< measured-slice cap per representative
                              ///< (0 = whole window; see plan_intervals)
  uint64_t max_insts = 0;     ///< run-length cap (0 = to HALT)
  uint32_t proj_dims = 16;
  uint64_t seed = 0xC1F15EEDu;
};

/// Cluster plan: BBV + k-means phase detection, one weighted
/// representative window per phase. Costs one functional-engine pass,
/// which logs the block runs (bbv.hpp), measures the run and keeps a
/// SnapshotLadder, plus less than one snapshot grain of re-execution per
/// checkpoint.
[[nodiscard]] IntervalPlan plan_cluster_intervals(
    const isa::Program& program, const ClusterPlanOptions& opts = {});

/// One config point of an experiment grid, bound to a (config-independent)
/// IntervalPlan: the plan carries everything shared across the grid —
/// interval boundaries, weights, architectural checkpoints — and the
/// binding names the core to simulate. run_shard captures every binding's
/// functional warm state in one streaming pass.
struct ConfigBinding {
  std::string name;          ///< column label (CoreConfig::label() usually)
  core::CoreConfig config;
  uint64_t config_hash = 0;  ///< 0 = CoreConfig::digest() at use
};

/// Simulates every interval of `plan` in parallel under `config`, warms
/// each interval per the plan's WarmMode (functional prefixes stream once
/// up front, detailed warm-up slices run and are subtracted per interval),
/// and merges the weighted stats (`threads` <= 0 picks CFIR_THREADS /
/// hardware concurrency). Implemented as trace::run_shard of the whole
/// plan + trace::merge_shard_results — the same code path a multi-machine
/// sharded run takes, so the two agree bit for bit.
[[nodiscard]] SampledRun sampled_run(const core::CoreConfig& config,
                                     const isa::Program& program,
                                     const IntervalPlan& plan,
                                     int threads = 0);

/// Convenience: uniform plan_intervals + sampled_run in one call.
/// `max_insts` == 0 covers the full run; `k` is clamped to the run length.
[[nodiscard]] SampledRun sampled_run(const core::CoreConfig& config,
                                     const isa::Program& program, uint32_t k,
                                     uint64_t max_insts = 0, int threads = 0);

}  // namespace cfir::trace
