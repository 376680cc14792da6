#include "sim/sweep.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>
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
#include "workloads/workloads.hpp"

namespace cfir::sim {

namespace {
uint64_t env_u64(const char* name, uint64_t dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  return std::strtoull(v, nullptr, 10);
}
}  // namespace

uint32_t env_scale() {
  return static_cast<uint32_t>(env_u64("CFIR_SCALE", 1));
}
int env_threads() { return static_cast<int>(env_u64("CFIR_THREADS", 0)); }
uint64_t env_max_insts(uint64_t unset) {
  return env_u64("CFIR_MAX_INSTS", unset);
}
uint32_t env_intervals() {
  return static_cast<uint32_t>(env_u64("CFIR_INTERVALS", 1));
}

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

isa::EngineKind env_engine_kind() { return isa::engine_kind_from_env(); }

trace::ShardSelection env_shard() {
  const char* v = std::getenv("CFIR_SHARD");
  if (v == nullptr || *v == '\0') return trace::ShardSelection{};
  return trace::parse_shard(v);
}

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
  // Interval plans depend only on (workload, scale, cap, k), never on the
  // core config, so capture each unique plan once up front (interpreter
  // passes are ~50x cheaper than detailed simulation) and share it across
  // the config columns of the grid. Unique plans are independent, so they
  // build on the pool too.
  using PlanKey = std::tuple<std::string, uint32_t, uint64_t, uint32_t,
                             uint8_t, uint64_t, uint8_t, uint64_t>;
  const auto plan_key = [](const RunSpec& spec) {
    return PlanKey{spec.workload,
                   spec.scale,
                   spec.max_insts,
                   spec.intervals,
                   static_cast<uint8_t>(spec.sample_mode),
                   spec.warmup,
                   static_cast<uint8_t>(spec.warm_mode),
                   spec.detail_len};
  };
  std::map<PlanKey, trace::IntervalPlan> plans;
  for (const RunSpec& spec : specs) {
    if (spec.intervals <= 1) continue;
    plans.try_emplace(plan_key(spec));
  }
  {
    std::vector<std::pair<const PlanKey, trace::IntervalPlan>*> slots;
    slots.reserve(plans.size());
    for (auto& entry : plans) slots.push_back(&entry);
    parallel_for(
        slots.size(),
        [&](size_t i) {
          const auto& [workload, scale, max_insts, intervals, mode, warmup,
                       warm_mode, detail_len] = slots[i]->first;
          obs::Span plan_span("plan", i);
          try {
            const isa::Program program = workloads::build(workload, scale);
            if (static_cast<trace::SampleMode>(mode) ==
                trace::SampleMode::kCluster) {
              trace::ClusterPlanOptions opts;
              opts.n_intervals = intervals;
              opts.warmup = warmup;
              opts.warm_mode = static_cast<trace::WarmMode>(warm_mode);
              opts.detail_len = detail_len;
              opts.max_insts = max_insts;
              slots[i]->second = trace::plan_cluster_intervals(program, opts);
            } else {
              slots[i]->second = trace::plan_intervals(
                  program, intervals, max_insts, warmup,
                  static_cast<trace::WarmMode>(warm_mode), detail_len);
            }
          } catch (const std::exception& e) {
            throw std::runtime_error("interval planning for '" + workload +
                                     "' (scale " + std::to_string(scale) +
                                     ") failed: " + e.what());
          }
        },
        threads);
  }

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

  // Sampled grid points sharing one plan (and one shard selection) execute
  // as a single multi-config run_shard: every config column rides the same
  // checkpoints and, under functional warming, the same streamed gaps —
  // the whole point of the config-independent plan / per-config binding
  // split (docs/sharding.md). Each group saturates the pool internally
  // over (interval × config) pairs; columns are bit-identical to running
  // each spec alone.
  std::map<std::tuple<PlanKey, uint32_t, uint32_t>, std::vector<size_t>>
      groups;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].intervals <= 1) continue;
    groups[{plan_key(specs[i]), specs[i].shard_index,
            std::max<uint32_t>(1, specs[i].shard_count)}]
        .push_back(i);
  }
  if (savings != nullptr) {
    *savings = SweepSavings{};
    savings->plans = plans.size();
    for (const auto& [key, plan] : plans) {
      savings->checkpoints += plan.checkpoints.size();
    }
  }
  for (const auto& [key, members] : groups) {
    const RunSpec& lead = specs[members.front()];
    try {
      const trace::IntervalPlan& plan = plans.at(std::get<0>(key));
      const trace::ShardSelection shard{std::get<1>(key), std::get<2>(key)};
      const isa::Program program =
          workloads::build(lead.workload, lead.scale);
      std::vector<trace::ConfigBinding> bindings;
      bindings.reserve(members.size());
      for (const size_t i : members) {
        trace::ConfigBinding b;
        b.name = specs[i].config_name;
        b.config = specs[i].config;
        bindings.push_back(std::move(b));
      }
      const trace::ShardResult result =
          trace::run_shard(bindings, program, plan, shard, threads);
      for (size_t c = 0; c < members.size(); ++c) {
        RunOutcome& o = out[members[c]];
        std::vector<stats::WeightedStats> parts;
        parts.reserve(result.intervals.size());
        o.phases.reserve(result.intervals.size());
        for (const trace::ShardResult::Interval& iv : result.intervals) {
          parts.push_back({iv.stats[c], iv.weight});
          const uint64_t wall_us = iv.wall_us.empty() ? 0 : iv.wall_us[c];
          o.phases.push_back({iv.start_inst, iv.length, iv.weight,
                              iv.stats[c],
                              static_cast<double>(wall_us) / 1000.0});
          o.wall_ms += static_cast<double>(wall_us) / 1000.0;
        }
        o.detailed_insts = result.configs[c].detailed_insts;
        o.stats = stats::merge_shards(parts);
        if (shard.count == 1) {
          // Complete coverage: report `halted` like a monolithic run even
          // when no representative window contains HALT.
          o.stats.halted = o.stats.halted || result.ran_to_halt;
        }
      }
      if (savings != nullptr) {
        savings->sampled_points += members.size();
        savings->checkpoints_per_column +=
            plan.checkpoints.size() * members.size();
        savings->warmed_insts += result.warmed_insts;
        savings->warmed_insts_per_column +=
            result.warmed_insts * members.size();
      }
    } catch (const std::exception& e) {
      throw std::runtime_error(
          std::string("run '") + lead.workload + "/" + lead.config_name +
          "' (shared plan, " + std::to_string(members.size()) +
          " config columns) failed: " + e.what());
    }
  }
  return out;
}

}  // namespace cfir::sim
