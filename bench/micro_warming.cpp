// Functional-warming throughput of capture_warm_states_grid from both
// record sources:
//
//   trace    fed from a recorded CFIRTRC2 file — the shape of
//            `run-shard --trace`; block decode is prefetched on the pool
//   engine   fed by the functional engine in kEngineBatch-record batches
//            (trace/warming.cpp) — the shape of sim::run_all's sampled
//            grid and every in-process run_shard
//
// and two grid widths each:
//
//   1-config   the single-config sampling path; the pipeline can only
//              overlap record production with the one trainer
//   8-config   the grid-sharding path: scal and wb at two register
//              points each, ci at two, ci-iw and vect, all of one warm
//              geometry, so one shared trainer serves the whole grid
//              (gshare, MBS, RAS and caches trained once, plus one stride
//              predictor each for ci and vect)
//
// Prints a table (million warmed insts/sec per source and grid width)
// and, under CFIR_JSON=1, one machine-readable line per row with
// `source`, `warm_insts_per_sec` and `trainers` (shared trainers one
// capture ran, from the warming.trainers counter). The capture runs on the
// shared pool, one task per shared trainer per batch, so CFIR_THREADS
// sets how many trainers run at once. Bit-identity of the captured blobs
// is locked separately in tests/test_warming_pipeline.cpp.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/config.hpp"
#include "obs/metrics.hpp"
#include "sim/pool.hpp"
#include "sim/presets.hpp"
#include "trace/trace.hpp"
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

/// One full grid capture per repetition, keeping the best wall time. The
/// trace source opens a fresh TraceReader each time so every sample pays
/// block decode; an empty `trace_path` selects the engine source.
Cell run_capture(const std::vector<core::CoreConfig>& configs,
                 const isa::Program& program, const std::string& trace_path,
                 const std::vector<uint64_t>& targets, int repeats) {
  Cell cell;
  cell.insts = targets.back();
  cell.best_us = 1e18;
  const obs::Counter& trainers =
      obs::Registry::instance().counter("warming.trainers");
  const uint64_t trainers0 = trainers.value();
  for (int r = 0; r < repeats; ++r) {
    const obs::Stopwatch clock;
    if (trace_path.empty()) {
      (void)trace::capture_warm_states_grid(configs, program, targets);
    } else {
      trace::TraceReader reader(trace_path);
      (void)trace::capture_warm_states_grid(configs, program, reader,
                                            targets);
    }
    const double us = static_cast<double>(clock.elapsed_us());
    cell.best_us = std::min(cell.best_us, us);
  }
  cell.trainers = (trainers.value() - trainers0) / repeats;
  return cell;
}

void emit_json(const std::string& workload, const char* source,
               size_t n_configs, const Cell& cell) {
  if (!bench::json_requested()) return;
  std::printf("{\"bench\":\"micro_warming\",\"workload\":\"%s\","
              "\"source\":\"%s\",\"configs\":%zu,\"trainers\":%llu,"
              "\"insts\":%llu,\"wall_us\":%.1f,"
              "\"warm_insts_per_sec\":%.1f}\n",
              workload.c_str(), source, n_configs,
              static_cast<unsigned long long>(cell.trainers),
              static_cast<unsigned long long>(cell.insts), cell.best_us,
              cell.warm_insts_per_sec());
}

std::string temp_trace_path() {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir ? dir : "/tmp") + "/cfir_micro_warming_" +
         std::to_string(static_cast<unsigned long>(std::rand())) + ".trc";
}

}  // namespace

int main() {
  const std::string workload = "bzip2";
  const uint32_t scale = 8;
  const uint64_t cap = 1'000'000;
  const int repeats = 3;

  const isa::Program program = workloads::build(workload, scale);
  const std::string path = temp_trace_path();
  trace::TraceMeta meta;
  meta.workload = workload;
  meta.scale = scale;
  trace::record_interpreter(program, path, meta, cap);

  uint64_t total = 0;
  {
    trace::TraceReader reader(path);
    total = reader.record_count();
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
  const std::pair<const char*, std::string> sources[] = {{"trace", path},
                                                         {"engine", ""}};
  for (const auto& [source, source_path] : sources) {
    for (const auto* entry : {&one, &grid}) {
      const std::vector<core::CoreConfig>& configs = *entry;
      const Cell cell =
          run_capture(configs, program, source_path, targets, repeats);
      std::printf("%-6s %zu-config %zu-trainer | %10.2f\n", source,
                  configs.size(), static_cast<size_t>(cell.trainers),
                  cell.warm_insts_per_sec() / 1e6);
      emit_json(workload, source, configs.size(), cell);
    }
  }

  std::remove(path.c_str());
  return 0;
}
