#include "sim/sweep.hpp"

#include <cstdlib>
#include <exception>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/pool.hpp"
#include "sim/simulator.hpp"
#include "trace/sampling.hpp"
#include "trace/shard.hpp"
#include "util/parse.hpp"
#include "workloads/workloads.hpp"

namespace cfir::sim {

namespace {
/// The numeric knob `name`, or `dflt` when it is unset or empty. Anything
/// but a whole decimal string no larger than `max` throws, naming the knob
/// and the value (util::parse_decimal).
uint64_t env_u64(const char* name, uint64_t dflt,
                 uint64_t max = std::numeric_limits<uint64_t>::max()) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  return util::parse_decimal(name, v, max);
}

uint32_t env_u32(const char* name, uint32_t dflt) {
  return static_cast<uint32_t>(
      env_u64(name, dflt, std::numeric_limits<uint32_t>::max()));
}

/// The interval plan a sampled spec asks for. It reads only the plan
/// knobs, never the core config, so every spec of one plan key gets the
/// same plan.
trace::IntervalPlan plan_for(const RunSpec& spec, const isa::Program& program) {
  if (spec.sample_mode == trace::SampleMode::kCluster) {
    trace::ClusterPlanOptions opts;
    opts.n_intervals = spec.intervals;
    opts.warmup = spec.warmup;
    opts.warm_mode = spec.warm_mode;
    opts.detail_len = spec.detail_len;
    opts.max_insts = spec.max_insts;
    return trace::plan_cluster_intervals(program, opts);
  }
  return trace::plan_intervals(program, spec.intervals, spec.max_insts,
                               spec.warmup, spec.warm_mode, spec.detail_len);
}
}  // namespace

uint32_t env_scale() { return env_u32("CFIR_SCALE", 1); }
int env_threads() {
  return static_cast<int>(
      env_u64("CFIR_THREADS", 0, std::numeric_limits<int>::max()));
}
uint64_t env_max_insts(uint64_t unset) {
  return env_u64("CFIR_MAX_INSTS", unset);
}
uint32_t env_intervals() { return env_u32("CFIR_INTERVALS", 1); }

trace::SampleMode env_sample_mode() {
  const char* v = std::getenv("CFIR_SAMPLE_MODE");
  if (v == nullptr || *v == '\0' || std::string_view(v) == "uniform") {
    return trace::SampleMode::kUniform;
  }
  if (std::string_view(v) == "cluster") return trace::SampleMode::kCluster;
  throw std::runtime_error(
      std::string("CFIR_SAMPLE_MODE must be 'uniform' or 'cluster', got '") +
      v + "'");
}

uint64_t env_warmup() { return env_u64("CFIR_WARMUP", 0); }

trace::WarmMode env_warm_mode() {
  const char* v = std::getenv("CFIR_WARM_MODE");
  return trace::parse_warm_mode(v == nullptr ? "" : v);
}

uint64_t env_detail_len() { return env_u64("CFIR_DETAIL_LEN", 0); }

void parallel_for(size_t n, const std::function<void(size_t)>& fn,
                  int threads) {
  if (threads <= 0) threads = env_threads();
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (threads <= 0) threads = 1;
  threads = std::min<int>(threads, static_cast<int>(n));

  if (threads <= 1) {
    // Inline path: same claim semantics as the pool (every claimed index
    // runs fn; the first failure stops further claims), no pool round
    // trip. The calling thread keeps whatever tracer name it has.
    std::exception_ptr first_error;
    for (size_t i = 0; i < n && !first_error; ++i) {
      try {
        fn(i);
      } catch (...) {
        first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }
  // Threaded path: the memoized shared pool executes the batch —
  // `threads - 1` pool workers plus the calling thread, so the requested
  // parallelism is honored without spawning (and joining) a fresh thread
  // set per call. Exception semantics live in ThreadPool::run.
  ThreadPool::shared().run(n, fn, threads - 1);
}

std::vector<RunOutcome> run_all(const std::vector<RunSpec>& specs,
                                int threads, SweepSavings* savings) {
  obs::Span run_all_span("run_all", specs.size());
  std::vector<RunOutcome> out(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) out[i].spec = specs[i];

  // Monolithic grid points are embarrassingly parallel: one pool item each.
  std::vector<size_t> mono;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].intervals <= 1) mono.push_back(i);
  }
  parallel_for(
      mono.size(),
      [&](size_t m) {
        const size_t i = mono[m];
        const RunSpec& spec = specs[i];
        try {
          isa::Program program = workloads::build(spec.workload, spec.scale);
          const uint64_t cap =
              spec.max_insts == 0 ? UINT64_MAX : spec.max_insts;
          Simulator sim(spec.config, std::move(program));
          const obs::Stopwatch clock;
          {
            obs::Span detail_span("detail", i);
            out[i].stats = sim.run(cap);
          }
          const uint64_t wall_us = clock.elapsed_us();
          out[i].wall_ms = static_cast<double>(wall_us) / 1000.0;
          out[i].detailed_insts = out[i].stats.committed;
          obs::Registry& reg = obs::Registry::instance();
          reg.histogram("sweep.mono_us").observe(wall_us);
          reg.counter("shard.detail_insts").add(out[i].stats.committed);
        } catch (const std::exception& e) {
          throw std::runtime_error(std::string("run '") + spec.workload +
                                   "/" + spec.config_name +
                                   "' failed: " + e.what());
        }
      },
      threads);

  // Sampled grid points: interval plans depend only on (workload, scale,
  // cap, plan knobs), never on the core config, so specs sharing a plan
  // key share one plan and execute as a single multi-config run_shard —
  // every config column rides the same checkpoints and, under functional
  // warming, the same streamed gaps (the config-independent plan /
  // per-config binding split of docs/sharding.md). Columns are
  // bit-identical to running each spec alone.
  using PlanKey = std::tuple<std::string, uint32_t, uint64_t, uint32_t,
                             uint8_t, uint64_t, uint8_t, uint64_t>;
  std::map<PlanKey, std::vector<size_t>> by_plan;
  for (size_t i = 0; i < specs.size(); ++i) {
    const RunSpec& spec = specs[i];
    if (spec.intervals <= 1) continue;
    const PlanKey key{spec.workload,
                      spec.scale,
                      spec.max_insts,
                      spec.intervals,
                      static_cast<uint8_t>(spec.sample_mode),
                      spec.warmup,
                      static_cast<uint8_t>(spec.warm_mode),
                      spec.detail_len};
    by_plan[key].push_back(i);
  }
  std::vector<const std::vector<size_t>*> chains;
  chains.reserve(by_plan.size());
  for (const auto& entry : by_plan) chains.push_back(&entry.second);

  // One pool task per plan runs its whole chain: build the program once,
  // plan it, then run_shard all of its columns. Chains of different
  // kernels overlap, and each run_shard's unit batch and warm fan-out nest
  // on the same pool, picking up workers as other chains finish. Every
  // task writes only its own members' outcomes and its own tally slot, so
  // no result depends on the schedule.
  struct Tally {
    uint64_t checkpoints = 0;
    uint64_t warmed_insts = 0;
  };
  std::vector<Tally> tallies(chains.size());
  obs::Histogram& chain_hist =
      obs::Registry::instance().histogram("sweep.chain_us");
  parallel_for(
      chains.size(),
      [&](size_t p) {
        const obs::Stopwatch chain_clock;
        const std::vector<size_t>& members = *chains[p];
        const RunSpec& first = specs[members.front()];
        isa::Program program;
        trace::IntervalPlan plan;
        {
          obs::Span plan_span("plan", p);
          try {
            program = workloads::build(first.workload, first.scale);
            plan = plan_for(first, program);
          } catch (const std::exception& e) {
            throw std::runtime_error("interval planning for '" +
                                     first.workload + "' (scale " +
                                     std::to_string(first.scale) +
                                     ") failed: " + e.what());
          }
        }
        tallies[p].checkpoints = plan.checkpoints.size();
        try {
          std::vector<trace::ConfigBinding> bindings;
          bindings.reserve(members.size());
          for (const size_t i : members) {
            trace::ConfigBinding b;
            b.name = specs[i].config_name;
            b.config = specs[i].config;
            bindings.push_back(std::move(b));
          }
          const trace::ShardResult result = trace::run_shard(
              bindings, program, plan, trace::ShardSelection{}, threads);
          for (size_t c = 0; c < members.size(); ++c) {
            RunOutcome& o = out[members[c]];
            std::vector<stats::WeightedStats> parts;
            parts.reserve(result.intervals.size());
            o.phases.reserve(result.intervals.size());
            for (const trace::ShardResult::Interval& iv : result.intervals) {
              parts.push_back({iv.stats[c], iv.weight});
              const double wall_ms =
                  static_cast<double>(iv.wall_us[c]) / 1000.0;
              o.phases.push_back(
                  {iv.start_inst, iv.length, iv.weight, iv.stats[c], wall_ms});
              o.wall_ms += wall_ms;
            }
            o.detailed_insts = result.configs[c].detailed_insts;
            o.stats = stats::merge_shards(parts);
            // Report `halted` like a monolithic run even when no
            // representative window contains HALT.
            o.stats.halted = o.stats.halted || result.ran_to_halt;
          }
          tallies[p].warmed_insts = result.warmed_insts;
        } catch (const std::exception& e) {
          throw std::runtime_error(
              std::string("run '") + first.workload + "/" +
              first.config_name + "' (shared plan, " +
              std::to_string(members.size()) +
              " config columns) failed: " + e.what());
        }
        chain_hist.observe(chain_clock.elapsed_us());
      },
      threads);

  if (savings != nullptr) {
    *savings = SweepSavings{};
    savings->plans = chains.size();
    for (size_t p = 0; p < chains.size(); ++p) {
      const Tally& tally = tallies[p];
      const uint64_t columns = chains[p]->size();
      savings->sampled_points += columns;
      savings->checkpoints += tally.checkpoints;
      savings->checkpoints_per_column += tally.checkpoints * columns;
      savings->warmed_insts += tally.warmed_insts;
      savings->warmed_insts_per_column += tally.warmed_insts * columns;
    }
  }
  return out;
}

}  // namespace cfir::sim
