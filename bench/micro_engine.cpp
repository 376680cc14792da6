// Functional-engine throughput: the superblock-caching FunctionalEngine
// (isa/engine.hpp) run over workload kernels to architectural completion
// in the three configurations the pipeline uses, against the
// switch-dispatch reference Interpreter as a baseline:
//
//   bare    no sink attached — pure architectural fast-forward, the
//           checkpoint / planning path
//   stream  run_into in 16Ki-event batches — every retired instruction's
//           StepEvent written into one reused buffer: the warming /
//           trace-record path
//   slices  slice sink feeding a trace::BbvBuilder — the cluster
//           planner's BBV pass, minus its snapshots (one slice per
//           executed block, no events written)
//
// The baseline (`switch`) is the Interpreter's unobserved run, timed in
// mode bare only: it is the oracle, not a path the pipeline streams from.
//
// Prints a table (million insts/sec per mode, plus the bare speedup over
// the baseline) and, under CFIR_JSON=1, one machine-readable line per
// (workload, engine, mode) cell with `insts_per_sec` — `engine` is
// "switch" for the baseline and "cached" for FunctionalEngine.
//
// Scale and run lengths are fixed here: of the knobs, only CFIR_JSON and
// CFIR_TRACE change what this bench does.
//
// No Google Benchmark dependency: runs are long enough (hundreds of
// thousands of instructions, best-of-N) that plain wall-clock timing is
// stable, and the bench-telemetry CI smoke wants a bare CFIR_JSON stream.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "common.hpp"
#include "isa/engine.hpp"
#include "isa/interpreter.hpp"
#include "mem/main_memory.hpp"
#include "obs/metrics.hpp"
#include "trace/bbv.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace cfir;

struct Cell {
  uint64_t insts = 0;
  double best_us = 0.0;
  [[nodiscard]] double insts_per_sec() const {
    return best_us > 0.0 ? static_cast<double>(insts) * 1e6 / best_us : 0.0;
  }
};

enum class Mode { kBare, kStream, kSlices };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kBare: return "bare";
    case Mode::kStream: return "stream";
    case Mode::kSlices: return "slices";
  }
  return "?";
}

/// Events per run_into batch in mode stream: the warm capture's batch.
constexpr size_t kStreamBatch = 16 * 1024;

/// One full run to HALT on a fresh memory image per repetition; keeps the
/// best wall time. `Engine` is FunctionalEngine or, in mode bare only, the
/// Interpreter. Engine state (including the block cache) is rebuilt every
/// repetition so each sample pays decode cost — the steady-state advantage
/// shows anyway because decode is O(static footprint) while execution is
/// O(dynamic length).
template <typename Engine>
Cell run_engine(const isa::Program& program, Mode mode, int repeats) {
  Cell cell;
  cell.best_us = 1e18;
  uint64_t observed = 0;
  std::vector<isa::StepEvent> batch(mode == Mode::kStream ? kStreamBatch : 0);
  for (int r = 0; r < repeats; ++r) {
    mem::MainMemory memory;
    isa::load_data_image(program, memory);
    Engine engine(program, memory);
    trace::BbvBuilder runs;
    if constexpr (std::is_same_v<Engine, isa::FunctionalEngine>) {
      if (mode == Mode::kSlices) {
        engine.on_slice = [&runs](uint64_t pc, uint32_t n, bool branch) {
          runs.add(pc, n, branch);
        };
      }
    }
    const obs::Stopwatch clock;
    if (mode != Mode::kStream) {
      engine.run(UINT64_MAX);
    } else if constexpr (std::is_same_v<Engine, isa::FunctionalEngine>) {
      while (const uint64_t n = engine.run_into(batch.data(), batch.size())) {
        observed += n;
      }
    }
    const double us = static_cast<double>(clock.elapsed_us());
    cell.insts = engine.executed();
    cell.best_us = std::min(cell.best_us, us);
    observed += runs.total_insts();
  }
  if (mode != Mode::kBare && observed == 0) {
    std::fprintf(stderr, "no events?\n");
  }
  return cell;
}

void emit_json(const std::string& workload, const char* engine, Mode mode,
               const Cell& cell) {
  if (!bench::options().json) return;
  std::printf("{\"bench\":\"micro_engine\",\"workload\":\"%s\","
              "\"engine\":\"%s\",\"mode\":\"%s\",\"insts\":%llu,"
              "\"wall_us\":%.1f,\"insts_per_sec\":%.1f}\n",
              workload.c_str(), engine, mode_name(mode),
              static_cast<unsigned long long>(cell.insts), cell.best_us,
              cell.insts_per_sec());
}

}  // namespace

int main() {
  bench::options();  // a bad CFIR_* knob exits 2 before any output
  const std::vector<std::string> kernels = {"bzip2", "gcc", "parser",
                                            "twolf"};
  const uint32_t scale = 8;
  const int repeats = 5;

  std::printf("engine throughput, Mi/s (scale %u (fixed), best of %d runs)\n",
              scale, repeats);
  std::printf("%-8s %9s | %7s | %7s %7s %7s | %7s\n", "workload", "insts",
              "sw/bare", "bare", "stream", "slices", "speedup");

  const Mode modes[] = {Mode::kBare, Mode::kStream, Mode::kSlices};
  for (const std::string& name : kernels) {
    const isa::Program program = workloads::build(name, scale);
    const Cell sw = run_engine<isa::Interpreter>(program, Mode::kBare, repeats);
    Cell ca[3];
    for (int m = 0; m < 3; ++m) {
      ca[m] = run_engine<isa::FunctionalEngine>(program, modes[m], repeats);
    }
    std::printf("%-8s %9llu | %7.1f | %7.1f %7.1f %7.1f | %6.2fx\n",
                name.c_str(), static_cast<unsigned long long>(ca[0].insts),
                sw.insts_per_sec() / 1e6, ca[0].insts_per_sec() / 1e6,
                ca[1].insts_per_sec() / 1e6, ca[2].insts_per_sec() / 1e6,
                sw.best_us / ca[0].best_us);
    emit_json(name, "switch", Mode::kBare, sw);
    for (int m = 0; m < 3; ++m) emit_json(name, "cached", modes[m], ca[m]);
  }
  return 0;
}
