#include "trace/sampling.hpp"

#include <algorithm>

#include "isa/engine.hpp"
#include "obs/tracer.hpp"
#include "trace/bbv.hpp"
#include "trace/cluster.hpp"
#include "trace/shard.hpp"

namespace cfir::trace {

namespace {

/// Pass 1 of a uniform plan: measure the run length with the functional
/// engine (no sink — pure execution speed).
uint64_t measure_run(const isa::Program& program, uint64_t cap) {
  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  isa::FunctionalEngine engine(program, memory);
  engine.run(cap);
  return engine.executed();
}

/// Applies the SMARTS measured-slice cap: shortens every interval's
/// measured window to `detail_len` and scales its weight so the aggregate
/// still extrapolates to the interval's full population.
void apply_detail_cap(IntervalPlan& plan, uint64_t detail_len) {
  if (detail_len == 0) return;
  for (size_t i = 0; i < plan.lengths.size(); ++i) {
    const uint64_t full = plan.lengths[i];
    if (full <= detail_len) continue;
    plan.lengths[i] = detail_len;
    plan.weights[i] *= static_cast<double>(full) /
                       static_cast<double>(detail_len);
  }
}

/// Where the final plan's checkpoints go: one per interval, at
/// max(start - warmup, 0) for modes with a detailed warm-up slice (the
/// clamp means a warm-up longer than the prefix starts at instruction 0,
/// never underflows) and at the boundary itself otherwise.
std::vector<uint64_t> checkpoint_positions(const IntervalPlan& plan) {
  const uint64_t warmup =
      warm_mode_has_detailed_slice(plan.warm_mode) ? plan.warmup : 0;
  std::vector<uint64_t> warm_starts;
  warm_starts.reserve(plan.boundaries.size());
  for (const uint64_t start : plan.boundaries) {
    warm_starts.push_back(start >= warmup ? start - warmup : 0);
  }
  return warm_starts;
}

}  // namespace

IntervalPlan plan_intervals(const isa::Program& program, uint32_t k,
                            uint64_t max_insts, uint64_t warmup,
                            WarmMode warm_mode, uint64_t detail_len) {
  obs::Span span("plan.uniform", k);
  const uint64_t cap = max_insts == 0 ? UINT64_MAX : max_insts;

  IntervalPlan plan;
  plan.mode = SampleMode::kUniform;
  plan.warm_mode = warm_mode;
  plan.warmup = warmup;
  plan.total_insts = measure_run(program, cap);
  plan.ran_to_halt = plan.total_insts < cap;
  if (k == 0) k = 1;
  k = static_cast<uint32_t>(
      std::max<uint64_t>(1, std::min<uint64_t>(k, plan.total_insts)));

  plan.boundaries.reserve(k);
  plan.lengths.reserve(k);
  for (uint32_t i = 0; i < k; ++i) {
    plan.boundaries.push_back(plan.total_insts * i / k);
  }
  for (uint32_t i = 0; i < k; ++i) {
    const uint64_t end =
        i + 1 < k ? plan.boundaries[i + 1] : plan.total_insts;
    plan.lengths.push_back(end - plan.boundaries[i]);
  }
  plan.weights.assign(k, 1.0);
  apply_detail_cap(plan, detail_len);
  plan.checkpoints = interval_checkpoints(program, checkpoint_positions(plan));
  return plan;
}

IntervalPlan plan_cluster_intervals(const isa::Program& program,
                                    const ClusterPlanOptions& opts) {
  obs::Span span("plan.cluster", opts.n_intervals);
  const uint64_t cap = opts.max_insts == 0 ? UINT64_MAX : opts.max_insts;

  IntervalPlan plan;
  plan.mode = SampleMode::kCluster;
  plan.warm_mode = opts.warm_mode;
  plan.warmup = opts.warmup;
  // The one engine pass: it logs the run's block runs, which measure the
  // run (so the windowing below needs no counting pass), and keeps the
  // snapshots the checkpoints are checked out from once clustering has
  // chosen the representatives.
  SnapshotLadder ladder;
  BbvBuilder runs = bbv_runs_from_program(program, opts.max_insts, &ladder);
  plan.total_insts = runs.total_insts();
  plan.ran_to_halt = plan.total_insts < cap;
  if (plan.total_insts == 0) {
    // Degenerate program (halts immediately): one empty interval so the
    // detailed core still retires HALT.
    plan.boundaries = {0};
    plan.lengths = {0};
    plan.weights = {1.0};
    plan.checkpoints = ladder.checkpoints(program, checkpoint_positions(plan));
    return plan;
  }

  const uint64_t n = std::max<uint64_t>(
      1, std::min<uint64_t>(opts.n_intervals, plan.total_insts));
  plan.interval_len = window_len(plan.total_insts, n);
  const BbvSet bbvs = runs.finish(plan.interval_len);

  ClusterOptions copts;
  copts.max_k = opts.max_k != 0
                    ? opts.max_k
                    : static_cast<uint32_t>(std::min<uint64_t>(16, n));
  copts.proj_dims = opts.proj_dims;
  copts.seed = opts.seed;
  const Clustering clusters = cluster_bbvs(bbvs, copts);
  plan.cluster_of = clusters.assignment;
  plan.bic_by_k = clusters.bic_by_k;

  // One measured interval per cluster, at its representative window,
  // weighted by cluster population, sorted by start.
  std::vector<uint32_t> order(clusters.k);
  for (uint32_t c = 0; c < clusters.k; ++c) order[c] = c;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return clusters.representative[a] < clusters.representative[b];
  });
  for (const uint32_t c : order) {
    const uint64_t start =
        uint64_t{clusters.representative[c]} * plan.interval_len;
    plan.boundaries.push_back(start);
    plan.lengths.push_back(
        std::min(plan.interval_len, plan.total_insts - start));
    plan.weights.push_back(static_cast<double>(clusters.sizes[c]));
  }
  apply_detail_cap(plan, opts.detail_len);
  plan.checkpoints = ladder.checkpoints(program, checkpoint_positions(plan));
  return plan;
}

SampledRun sampled_run(const core::CoreConfig& config,
                       const isa::Program& program, const IntervalPlan& plan,
                       int threads) {
  // The single-process run IS the sharded run with one shard covering the
  // whole plan: execute layer, then merge layer. Farming the same plan
  // across machines (trace_tool plan / run-shard / merge) walks exactly
  // this code path and therefore reproduces this result bit for bit.
  return merge_shard_results(
      {run_shard(config, program, plan, ShardSelection{}, threads)});
}

SampledRun sampled_run(const core::CoreConfig& config,
                       const isa::Program& program, uint32_t k,
                       uint64_t max_insts, int threads) {
  return sampled_run(config, program, plan_intervals(program, k, max_insts),
                     threads);
}

}  // namespace cfir::trace
