// Functional-warming throughput of capture_warm_states_grid, the one
// warm-capture loop: the functional engine fills kEngineBatch-event
// batches one batch ahead of the training lanes (trace/warming.cpp) — the
// shape of sim::run_all's sampled grid and every run_shard's warm
// capture — in three rows:
//
//   single   the single-config sampling path: ci at 512 registers, 8
//            evenly spaced targets over the first 1M instructions
//   grid     the grid-sharding path, same targets: scal and wb at two
//            register points each, ci at two, ci-iw and vect, all of one
//            warm geometry, so one shared trainer serves the whole grid
//            (gshare, MBS, RAS and caches trained once, plus one stride
//            predictor each for ci and vect)
//   shard    a sharded run's capture: ci and vect at 256 and 512
//            registers (one warm geometry) over the last 16 targets of a
//            64-interval uniform plan, shard 3/4's range, which streams
//            nearly the whole run
//
// Every row runs bzip2 at scale 8 whatever CFIR_SCALE says. Prints a table
// (million warmed insts/sec per row) and, under CFIR_JSON=1, one
// machine-readable line per row with `source` (always "engine"), `row`,
// `warm_insts_per_sec` and `trainers` (shared trainers one capture ran,
// from the warming.trainers counter). Each round of a capture is one batch
// on the shared pool — the engine plus one task per training lane — so
// CFIR_THREADS sets how many of them run at once. Bit-identity of the
// captured blobs is locked separately in tests/test_warming_pipeline.cpp.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/config.hpp"
#include "isa/engine.hpp"
#include "mem/main_memory.hpp"
#include "obs/metrics.hpp"
#include "sim/pool.hpp"
#include "sim/presets.hpp"
#include "trace/sampling.hpp"
#include "trace/shard.hpp"
#include "trace/warming.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace cfir;

struct Cell {
  uint64_t insts = 0;   ///< committed records streamed per capture pass
  uint64_t trainers = 0;  ///< shared trainers per capture pass
  double best_us = 0.0;
  [[nodiscard]] double warm_insts_per_sec() const {
    return best_us > 0.0 ? static_cast<double>(insts) * 1e6 / best_us : 0.0;
  }
};

/// One full grid capture per repetition, keeping the best wall time.
Cell run_capture(const std::vector<core::CoreConfig>& configs,
                 const isa::Program& program,
                 const std::vector<uint64_t>& targets, int repeats) {
  Cell cell;
  cell.insts = targets.back();
  cell.best_us = 1e18;
  const obs::Counter& trainers =
      obs::Registry::instance().counter("warming.trainers");
  const uint64_t trainers0 = trainers.value();
  for (int r = 0; r < repeats; ++r) {
    const obs::Stopwatch clock;
    (void)trace::capture_warm_states_grid(configs, program, targets);
    const double us = static_cast<double>(clock.elapsed_us());
    cell.best_us = std::min(cell.best_us, us);
  }
  cell.trainers = (trainers.value() - trainers0) / repeats;
  return cell;
}

void emit_json(const std::string& workload, const char* row,
               size_t n_configs, size_t n_targets, const Cell& cell) {
  if (!bench::options().json) return;
  std::printf("{\"bench\":\"micro_warming\",\"workload\":\"%s\","
              "\"source\":\"engine\",\"row\":\"%s\",\"configs\":%zu,"
              "\"trainers\":%llu,\"targets\":%zu,\"insts\":%llu,"
              "\"wall_us\":%.1f,\"warm_insts_per_sec\":%.1f}\n",
              workload.c_str(), row, n_configs,
              static_cast<unsigned long long>(cell.trainers), n_targets,
              static_cast<unsigned long long>(cell.insts), cell.best_us,
              cell.warm_insts_per_sec());
}

}  // namespace

int main() {
  bench::options();  // a bad CFIR_* knob exits 2 before any output
  const std::string workload = "bzip2";
  const uint32_t scale = 8;
  const uint64_t cap = 1'000'000;
  const int repeats = 3;

  const isa::Program program = workloads::build(workload, scale);
  // The warmed prefix: the first `cap` instructions, or the whole run.
  uint64_t total = 0;
  {
    mem::MainMemory memory;
    isa::load_data_image(program, memory);
    total = isa::FunctionalEngine(program, memory).run(cap);
  }
  // Eight evenly spaced warm targets, like an 8-interval functional plan.
  std::vector<uint64_t> targets;
  for (uint64_t i = 1; i <= 8; ++i) targets.push_back(total * i / 8);
  // Shard 3/4 of a 64-interval uniform plan: its intervals' starts.
  constexpr uint32_t kPlanIntervals = 64;
  const trace::IntervalPlan plan = trace::plan_intervals(
      program, kPlanIntervals, 0, 0, trace::WarmMode::kFunctional);
  const trace::ShardSelection last_shard{3, 4};
  std::vector<uint64_t> shard_targets;
  for (size_t i = last_shard.begin(plan.checkpoints.size());
       i < last_shard.end(plan.checkpoints.size()); ++i) {
    shard_targets.push_back(plan.checkpoints[i].executed);
  }

  struct Row {
    const char* name;
    std::vector<core::CoreConfig> configs;
    const std::vector<uint64_t>* targets;
  };
  const Row rows[] = {
      {"single", {sim::presets::ci(2, 512)}, &targets},
      {"grid",
       {sim::presets::scal(2, 256), sim::presets::scal(2, 512),
        sim::presets::wb(2, 256), sim::presets::wb(2, 512),
        sim::presets::ci(2, 256), sim::presets::ci(2, 512),
        sim::presets::ci_window(2, 512), sim::presets::vect(2, 512)},
       &targets},
      {"shard",
       {sim::presets::ci(2, 256), sim::presets::ci(2, 512),
        sim::presets::vect(2, 256), sim::presets::vect(2, 512)},
       &shard_targets},
  };

  std::printf("warm capture, Mi warmed insts/s "
              "(%s scale %u (fixed), best of %d, %d pool threads)\n",
              workload.c_str(), scale, repeats,
              sim::ThreadPool::shared().size());
  for (const Row& row : rows) {
    const Cell cell = run_capture(row.configs, program, *row.targets, repeats);
    std::printf("%-6s %zu-config %zu-trainer %2zu targets %7llu records | "
                "%8.2f\n",
                row.name, row.configs.size(),
                static_cast<size_t>(cell.trainers), row.targets->size(),
                static_cast<unsigned long long>(cell.insts),
                cell.warm_insts_per_sec() / 1e6);
    emit_json(workload, row.name, row.configs.size(), row.targets->size(),
              cell);
  }
  return 0;
}
