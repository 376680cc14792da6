// Thread-pooled experiment runner: the figure benches enqueue one job per
// (workload, configuration) grid point and collect SimStats. Simulations
// are embarrassingly parallel, so this scales to the shared pool's size
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
  /// Host wall-clock spent in detailed simulation for this grid point
  /// (mono: the whole run; sampled: sum of this column's interval walls).
  double wall_ms = 0.0;
  /// Instructions the detailed core actually committed — with wall_ms this
  /// yields the insts/sec throughput the bench JSON reports.
  uint64_t detailed_insts = 0;
};

/// Runs every spec (order preserved in the result). `threads` <= 0 takes
/// the shared pool's size. Specs with `intervals > 1` run through the
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
