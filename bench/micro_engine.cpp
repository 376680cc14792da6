// Functional-engine throughput: the switch-dispatch reference interpreter
// versus the superblock-caching engine (isa/engine.hpp), run over workload
// kernels to architectural completion in the two configurations the
// pipeline uses:
//
//   bare    no sink attached — pure architectural fast-forward, the
//           checkpoint / planning path
//   stream  per-block sink attached — every branch/mem/step event is
//           delivered, the warming / trace-record path (the switch
//           engine pays three per-instruction std::function observers
//           here; the cached engine batches events per block)
//   slices  slice sink feeding a trace::BbvBuilder — the cluster
//           planner's BBV pass, minus its snapshots (the cached engine
//           reports one slice per executed block and writes no events;
//           the switch engine reports one-instruction slices)
//
// Prints a table (million insts/sec per engine and mode, plus speedups)
// and, under CFIR_JSON=1, one machine-readable line per (workload, engine,
// mode) cell with `insts_per_sec` — the figure tests/test_engine_bench.cpp
// guards.
//
// No Google Benchmark dependency: runs are long enough (hundreds of
// thousands of instructions, best-of-N) that plain wall-clock timing is
// stable, and the bench-telemetry CI smoke wants a bare CFIR_JSON stream.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "isa/engine.hpp"
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

/// One full run to HALT on a fresh memory image per repetition; keeps the
/// best wall time. Engine state (including the cached engine's block
/// cache) is rebuilt every repetition so each sample pays decode cost —
/// the steady-state advantage shows anyway because decode is O(static
/// footprint) while execution is O(dynamic length).
Cell run_engine(const isa::Program& program, isa::EngineKind kind, Mode mode,
                int repeats) {
  Cell cell;
  cell.best_us = 1e18;
  uint64_t observed = 0;
  for (int r = 0; r < repeats; ++r) {
    mem::MainMemory memory;
    isa::load_data_image(program, memory);
    isa::FunctionalEngine engine(program, memory, kind);
    trace::BbvBuilder runs;
    if (mode == Mode::kStream) {
      engine.set_sink([&observed](uint64_t, const isa::StepEvent*,
                                  size_t n) { observed += n; });
    } else if (mode == Mode::kSlices) {
      engine.set_slice_sink([&runs](uint64_t pc, uint32_t n, bool branch) {
        runs.add(pc, n, branch);
      });
    }
    const obs::Stopwatch clock;
    engine.run(UINT64_MAX);
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
  if (!bench::json_requested()) return;
  std::printf("{\"bench\":\"micro_engine\",\"workload\":\"%s\","
              "\"engine\":\"%s\",\"mode\":\"%s\",\"insts\":%llu,"
              "\"wall_us\":%.1f,\"insts_per_sec\":%.1f}\n",
              workload.c_str(), engine, mode_name(mode),
              static_cast<unsigned long long>(cell.insts), cell.best_us,
              cell.insts_per_sec());
}

}  // namespace

int main() {
  const std::vector<std::string> kernels = {"bzip2", "gcc", "parser",
                                            "twolf"};
  const uint32_t scale = 8;
  const int repeats = 5;

  std::printf("engine throughput, Mi/s (scale %u, best of %d runs)\n", scale,
              repeats);
  std::printf("%-8s %9s |", "workload", "insts");
  for (const char* mode : {"bare", "strm", "slic"}) {
    std::printf(" sw/%-4s ca/%-4s %7s |", mode, mode, "speedup");
  }
  std::printf("\n");

  const Mode modes[] = {Mode::kBare, Mode::kStream, Mode::kSlices};
  for (const std::string& name : kernels) {
    const isa::Program program = workloads::build(name, scale);
    Cell sw[3];
    Cell ca[3];
    for (int m = 0; m < 3; ++m) {
      sw[m] = run_engine(program, isa::EngineKind::kSwitch, modes[m], repeats);
      ca[m] = run_engine(program, isa::EngineKind::kCached, modes[m], repeats);
    }
    std::printf("%-8s %9llu |", name.c_str(),
                static_cast<unsigned long long>(ca[0].insts));
    for (int m = 0; m < 3; ++m) {
      std::printf(" %7.1f %7.1f %6.2fx |", sw[m].insts_per_sec() / 1e6,
                  ca[m].insts_per_sec() / 1e6, sw[m].best_us / ca[m].best_us);
    }
    std::printf("\n");
    for (int m = 0; m < 3; ++m) {
      emit_json(name, "switch", modes[m], sw[m]);
      emit_json(name, "cached", modes[m], ca[m]);
    }
  }
  return 0;
}
