// Functional-warming throughput of capture_warm_states_grid, the one
// warm-capture loop: the functional engine feeds kEngineBatch-record
// batches (trace/warming.cpp) — the shape of sim::run_all's sampled grid
// and every run_shard's warm capture — at two grid widths:
//
//   1-config   the single-config sampling path: one trainer, so each
//              batch's fan-out is a single task
//   8-config   the grid-sharding path: scal and wb at two register
//              points each, ci at two, ci-iw and vect, all of one warm
//              geometry, so one shared trainer serves the whole grid
//              (gshare, MBS, RAS and caches trained once, plus one stride
//              predictor each for ci and vect)
//
// Prints a table (million warmed insts/sec per grid width) and, under
// CFIR_JSON=1, one machine-readable line per row with `source` (always
// "engine"), `warm_insts_per_sec` and `trainers` (shared trainers one
// capture ran, from the warming.trainers counter). The capture runs on the
// shared pool, one task per shared trainer per batch, so CFIR_THREADS
// sets how many trainers run at once. Bit-identity of the captured blobs
// is locked separately in tests/test_warming_pipeline.cpp.
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

void emit_json(const std::string& workload, size_t n_configs,
               const Cell& cell) {
  if (!bench::json_requested()) return;
  std::printf("{\"bench\":\"micro_warming\",\"workload\":\"%s\","
              "\"source\":\"engine\",\"configs\":%zu,\"trainers\":%llu,"
              "\"insts\":%llu,\"wall_us\":%.1f,"
              "\"warm_insts_per_sec\":%.1f}\n",
              workload.c_str(), n_configs,
              static_cast<unsigned long long>(cell.trainers),
              static_cast<unsigned long long>(cell.insts), cell.best_us,
              cell.warm_insts_per_sec());
}

}  // namespace

int main() {
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

  const std::vector<core::CoreConfig> one = {sim::presets::ci(2, 512)};
  const std::vector<core::CoreConfig> grid = {
      sim::presets::scal(2, 256),     sim::presets::scal(2, 512),
      sim::presets::wb(2, 256),       sim::presets::wb(2, 512),
      sim::presets::ci(2, 256),       sim::presets::ci(2, 512),
      sim::presets::ci_window(2, 512), sim::presets::vect(2, 512)};

  std::printf("warm capture, Mi warmed insts/s "
              "(%s scale %u, %llu records, 8 targets, best of %d, "
              "%d pool threads)\n",
              workload.c_str(), scale,
              static_cast<unsigned long long>(total), repeats,
              sim::ThreadPool::shared().size());
  for (const auto* entry : {&one, &grid}) {
    const std::vector<core::CoreConfig>& configs = *entry;
    const Cell cell = run_capture(configs, program, targets, repeats);
    std::printf("engine %zu-config %zu-trainer | %10.2f\n", configs.size(),
                static_cast<size_t>(cell.trainers),
                cell.warm_insts_per_sec() / 1e6);
    emit_json(workload, configs.size(), cell);
  }
  return 0;
}
