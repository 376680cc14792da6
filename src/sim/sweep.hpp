// Thread-pooled experiment runner: the figure benches enqueue one job per
// (workload, configuration) grid point and collect SimStats. Simulations
// are embarrassingly parallel, so this scales to the host's cores
// (CFIR_THREADS overrides).
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

/// What sharing one plan (and one warming stream) across the config
/// columns of a bench grid saved, versus planning/warming each grid point
/// independently — surfaced in bench CFIR_JSON output so a figure's cost
/// is inspectable (docs/sharding.md "Sweep a config grid").
struct SweepSavings {
  uint64_t sampled_points = 0;  ///< grid points that ran sampled
  uint64_t plans = 0;           ///< unique plans actually built
  uint64_t checkpoints = 0;     ///< checkpoints captured (shared)
  uint64_t checkpoints_per_column = 0;  ///< what per-point planning captures
  uint64_t warmed_insts = 0;            ///< instructions streamed (shared)
  uint64_t warmed_insts_per_column = 0; ///< what per-point warming streams
};

/// Runs every spec (order preserved in the result). `threads` <= 0 picks
/// CFIR_THREADS or the hardware concurrency. Specs with `intervals > 1`
/// run through the checkpointed interval sampler: specs sharing one plan
/// (same workload/scale/cap/plan knobs) execute as ONE multi-config
/// trace::run_shard over the whole plan — the plan and its checkpoints are
/// config-independent and each functional-warming gap streams once for the
/// whole column group — and report the merged aggregate stats per column,
/// bit-identical to running each column alone. Each distinct plan is one
/// pool task that builds the program, plans it and runs its columns, so
/// the chains of different kernels overlap; run_shard's own batches nest
/// on the same pool. No result depends on the thread count or the
/// schedule.
/// `savings`, when non-null, receives the shared-plan accounting.
[[nodiscard]] std::vector<RunOutcome> run_all(const std::vector<RunSpec>& specs,
                                              int threads = 0,
                                              SweepSavings* savings = nullptr);

/// The fan-out primitive behind run_all and trace::SampledRun: invokes
/// `fn(0..n)` across `threads` workers (`threads` <= 0 picks
/// CFIR_THREADS or the hardware concurrency) and rethrows the first
/// exception after the batch drains. Executes on the memoized
/// sim::ThreadPool::shared() (sim/pool.hpp) — `threads - 1` pool workers
/// plus the calling thread — so per-wave callers (trace decode, the
/// warming pipeline) pay no thread spawn per call.
void parallel_for(size_t n, const std::function<void(size_t)>& fn,
                  int threads = 0);

/// Environment knobs shared by the bench binaries.
[[nodiscard]] uint32_t env_scale();      ///< CFIR_SCALE, default 1
[[nodiscard]] int env_threads();         ///< CFIR_THREADS, default 0 (auto)
/// CFIR_MAX_INSTS, or `unset` when the variable is unset or empty, so a
/// caller can tell "no cap asked for" from an explicit 0 (run to HALT).
[[nodiscard]] uint64_t env_max_insts(uint64_t unset = 0);
[[nodiscard]] uint32_t env_intervals();  ///< CFIR_INTERVALS, default 1
/// CFIR_SAMPLE_MODE ("uniform" | "cluster"), default uniform; anything
/// else throws so typos fail loudly instead of silently running uniform.
[[nodiscard]] trace::SampleMode env_sample_mode();
[[nodiscard]] uint64_t env_warmup();     ///< CFIR_WARMUP, default 0
/// CFIR_WARM_MODE ("none" | "detailed" | "functional" | "hybrid"), default
/// detailed; typos throw (see trace::parse_warm_mode).
[[nodiscard]] trace::WarmMode env_warm_mode();
[[nodiscard]] uint64_t env_detail_len();  ///< CFIR_DETAIL_LEN, default 0

}  // namespace cfir::sim
