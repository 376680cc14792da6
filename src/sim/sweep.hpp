// Thread-pooled experiment runner: the figure benches hand it their
// (workload, configuration) grid points and collect SimStats. Grid points
// that differ only in register and ROB capacity run as one job that
// reuses the results of points that never bind (run_family); the jobs are
// embarrassingly parallel, so this scales to the shared pool's size
// (sim/pool.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "isa/program.hpp"
#include "stats/stats.hpp"
#include "trace/sampling.hpp"

namespace cfir::sim {

struct RunSpec {
  std::string workload;     ///< name registered in cfir::workloads
  std::string config_name;  ///< column label in the output table
  core::CoreConfig config;
  uint64_t max_insts = 0;   ///< 0 = run to completion
  uint32_t scale = 1;       ///< workload size multiplier
  uint32_t intervals = 1;   ///< >1: checkpointed interval sampling (trace::).
                            ///< uniform mode: number of detailed intervals;
                            ///< cluster mode: number of BBV windows the run
                            ///< is chopped into before phase clustering.
  trace::SampleMode sample_mode = trace::SampleMode::kUniform;
  uint64_t warmup = 0;      ///< detailed warm-up instructions per interval
  trace::WarmMode warm_mode = trace::WarmMode::kDetailed;
  uint64_t detail_len = 0;  ///< measured-slice cap per interval (SMARTS
                            ///< estimator; 0 = whole interval)
};

struct RunOutcome {
  RunSpec spec;
  stats::SimStats stats;
  /// Per-interval stats when the spec sampled (`intervals > 1`; one
  /// phase representative each in cluster mode), so benches can report
  /// per-phase columns next to the weighted aggregate; empty for
  /// monolithic runs.
  std::vector<trace::SampledRun::Interval> phases;
  /// Host wall-clock this grid point spent in detailed simulation (mono:
  /// the whole run; sampled: sum of this column's interval walls). A cell
  /// or unit taken from a covering run of its capacity family
  /// (run_family) simulated nothing and adds 0.
  double wall_ms = 0.0;
  /// Instructions the detailed core committed for `stats` (mono: the
  /// run's committed count; sampled: each interval's measured slice plus
  /// its warm-up), whether this grid point simulated them or took them
  /// from a covering run. Host rates divide simulated_insts() instead.
  uint64_t detailed_insts = 0;

  /// The part of detailed_insts this grid point simulated itself: the
  /// cell, or the intervals, with nonzero wall time. Divided by wall_ms it
  /// is a host rate that reused results do not inflate.
  [[nodiscard]] uint64_t simulated_insts() const;
};

/// Runs every spec (order preserved in the result). `threads` <= 0 takes
/// the shared pool's size. Monolithic specs run one pool task per
/// capacity family: the cells of one workload, scale and cap whose configs
/// differ only in registers and ROB (CoreConfig::family_digest). The task
/// builds the program once and runs the family through run_family, so a
/// cell that a smaller unbound cell covers reuses its stats
/// (`sweep.cells_reused`). Specs with `intervals > 1` run through the
/// checkpointed interval sampler: specs sharing one plan (same
/// workload/scale/cap/plan knobs) execute as ONE multi-config
/// trace::run_shard over the whole plan — the plan and its checkpoints are
/// config-independent and each functional-warming gap streams once for the
/// whole column group — and report the merged aggregate stats per column,
/// bit-identical to running each column alone. Each distinct plan is one
/// pool task that builds the program, plans it and runs its columns (one
/// `sweep.chain_us` sample each), so the chains of different kernels
/// overlap; run_shard's own batches nest on the same pool. No result
/// depends on the thread count or the schedule.
[[nodiscard]] std::vector<RunOutcome> run_all(const std::vector<RunSpec>& specs,
                                              int threads = 0);

/// Runs one capacity family, the loop behind run_all's monolithic cells
/// and trace::run_shard's units. `members` index grid points that start
/// from the same state, run to the same cap and whose configs
/// (`config(m)`) share one CoreConfig::family_digest(). They run in
/// ascending (num_phys_regs, rob_size) order: `simulate(m)` runs member m
/// and returns its Simulator::hit_capacity(), unless a member that already
/// ran covers m (CoreConfig::covers); then `reuse(m, from)` takes member
/// `from`'s result instead. A member with more registers but a smaller
/// ROB than every unbound member still runs. An exception from `simulate`
/// stops the family and propagates. Which members run, and which result
/// each reused member takes, depends only on the configs and on what each
/// run reports, never on the schedule.
void run_family(std::vector<size_t> members,
                const std::function<const core::CoreConfig&(size_t)>& config,
                const std::function<bool(size_t)>& simulate,
                const std::function<void(size_t, size_t)>& reuse);

/// The fan-out primitive behind run_all and trace::SampledRun: invokes
/// `fn(0..n)` across `threads` workers (`threads` <= 0 takes the shared
/// pool's size) and rethrows the first exception after the batch drains.
/// Executes on the memoized sim::ThreadPool::shared() (sim/pool.hpp) —
/// `threads - 1` pool workers plus the calling thread — so per-wave
/// callers (trace decode, the warming pipeline) pay no thread spawn per
/// call.
void parallel_for(size_t n, const std::function<void(size_t)>& fn,
                  int threads = 0);

}  // namespace cfir::sim
