#include "sim/sweep.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/pool.hpp"
#include "sim/simulator.hpp"
#include "trace/sampling.hpp"
#include "trace/shard.hpp"
#include "workloads/workloads.hpp"

namespace cfir::sim {

namespace {
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

uint64_t RunOutcome::simulated_insts() const {
  if (phases.empty()) return wall_ms > 0 ? detailed_insts : 0;
  return trace::simulated_insts(phases);
}

void run_family(std::vector<size_t> members,
                const std::function<const core::CoreConfig&(size_t)>& config,
                const std::function<bool(size_t)>& simulate,
                const std::function<void(size_t, size_t)>& reuse) {
  std::stable_sort(members.begin(), members.end(), [&](size_t a, size_t b) {
    const core::CoreConfig& x = config(a);
    const core::CoreConfig& y = config(b);
    return std::tie(x.num_phys_regs, x.rob_size) <
           std::tie(y.num_phys_regs, y.rob_size);
  });
  struct Ran {
    size_t member;
    bool hit_capacity;
  };
  std::vector<Ran> ran;
  for (const size_t m : members) {
    const auto cover = std::find_if(ran.begin(), ran.end(), [&](const Ran& r) {
      return config(r.member).covers(config(m), r.hit_capacity);
    });
    if (cover != ran.end()) {
      reuse(m, cover->member);
    } else {
      ran.push_back({m, simulate(m)});
    }
  }
}

void parallel_for(size_t n, const std::function<void(size_t)>& fn,
                  int threads) {
  if (threads <= 0 && n > 1) threads = ThreadPool::shared().size();
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
                                int threads) {
  obs::Span run_all_span("run_all", specs.size());
  std::vector<RunOutcome> out(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) out[i].spec = specs[i];

  // Monolithic grid points: one pool task per capacity family, which
  // builds the program once (inside the try, so an unknown workload names
  // its spec) and runs the family through run_family. Every task writes
  // only its own members' outcomes.
  using FamilyKey = std::tuple<std::string, uint32_t, uint64_t, uint64_t>;
  std::map<FamilyKey, size_t> family_of;
  std::vector<std::vector<size_t>> families;
  for (size_t i = 0; i < specs.size(); ++i) {
    const RunSpec& spec = specs[i];
    if (spec.intervals > 1) continue;
    const auto [it, fresh] = family_of.emplace(
        FamilyKey{spec.workload, spec.scale, spec.max_insts,
                  spec.config.family_digest()},
        families.size());
    if (fresh) families.emplace_back();
    families[it->second].push_back(i);
  }
  obs::Registry& reg = obs::Registry::instance();
  obs::Histogram& mono_hist = reg.histogram("sweep.mono_us");
  obs::Counter& detail_insts = reg.counter("shard.detail_insts");
  obs::Counter& cells_reused = reg.counter("sweep.cells_reused");
  parallel_for(
      families.size(),
      [&](size_t f) {
        std::optional<isa::Program> program;
        run_family(
            families[f],
            [&](size_t i) -> const core::CoreConfig& {
              return specs[i].config;
            },
            [&](size_t i) {
              const RunSpec& spec = specs[i];
              try {
                if (!program) {
                  program = workloads::build(spec.workload, spec.scale);
                }
                const uint64_t cap =
                    spec.max_insts == 0 ? UINT64_MAX : spec.max_insts;
                Simulator sim(spec.config, *program);
                const obs::Stopwatch clock;
                {
                  obs::Span detail_span("detail", i);
                  out[i].stats = sim.run(cap);
                }
                const uint64_t wall_us = clock.elapsed_us();
                out[i].wall_ms = static_cast<double>(wall_us) / 1000.0;
                out[i].detailed_insts = out[i].stats.committed;
                mono_hist.observe(wall_us);
                detail_insts.add(out[i].stats.committed);
                return sim.hit_capacity();
              } catch (const std::exception& e) {
                throw std::runtime_error(std::string("run '") +
                                         spec.workload + "/" +
                                         spec.config_name +
                                         "' failed: " + e.what());
              }
            },
            [&](size_t i, size_t from) {
              out[i].stats = out[from].stats;
              out[i].detailed_insts = out[i].stats.committed;
              cells_reused.increment();
            });
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
  // task writes only its own members' outcomes, so no result depends on
  // the schedule.
  obs::Histogram& chain_hist = reg.histogram("sweep.chain_us");
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
        try {
          std::vector<trace::ConfigBinding> bindings;
          bindings.reserve(members.size());
          for (const size_t i : members) {
            bindings.push_back({specs[i].config_name, specs[i].config});
          }
          trace::MergedGrid merged = trace::merge_shard_grid({trace::run_shard(
              bindings, program, plan, trace::ShardSelection{}, threads)});
          for (size_t c = 0; c < members.size(); ++c) {
            RunOutcome& o = out[members[c]];
            trace::SampledRun& run = merged.configs[c].run;
            o.stats = run.aggregate;
            o.phases = std::move(run.intervals);
            o.wall_ms = static_cast<double>(run.wall_us) / 1000.0;
            o.detailed_insts = run.detailed_insts;
          }
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
  return out;
}

}  // namespace cfir::sim
