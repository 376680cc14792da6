// Detailed-core throughput. Runs each workload kernel at scale 8 under the
// configs the figures spend their detailed time in: a plain superscalar,
// the paper's CI mechanism (whose replica engine rides the same core
// loop), a wide-window stress point (1K-entry ROB) where the scheduler's
// stall lists and calendar ring run longest, the vect baseline, ci at the
// "infinite" register point (an 8K-entry ROB), and the fig14 grid's two
// extreme columns: ci starved at 128 registers and vect at the 8K-entry
// ROB. Every cell runs a
// fixed commit budget several times, round-robin across cells so a burst
// of host load lands on all cells alike, and keeps its best wall time.
// Prints a table of million committed insts/sec and host ns per simulated
// cycle (perfbench's detail.host_ns_per_cycle) and, under CFIR_JSON=1,
// one machine-readable line per (workload, config) cell with
// `detailed_insts_per_sec` and `host_ns_per_cycle`. Scale and commit
// budget are fixed here: of the knobs, only CFIR_JSON and CFIR_TRACE
// change what this bench does.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace cfir;

struct Cell {
  std::string workload;
  const char* config = "";
  uint64_t insts = 0;
  uint64_t cycles = 0;
  double best_us = 1e18;
  [[nodiscard]] double insts_per_sec() const {
    return best_us > 0.0 ? static_cast<double>(insts) * 1e6 / best_us : 0.0;
  }
  [[nodiscard]] double host_ns_per_cycle() const {
    return cycles > 0 ? best_us * 1e3 / static_cast<double>(cycles) : 0.0;
  }
};

/// One detailed run to the commit budget on a fresh Simulator; returns
/// its wall time and fills the cell's (deterministic) commit and cycle
/// counts.
double run_once(const core::CoreConfig& config, const isa::Program& program,
                uint64_t max_insts, Cell& cell) {
  sim::Simulator sim(config, program);
  const obs::Stopwatch clock;
  const stats::SimStats st = sim.run(max_insts);
  const double us = static_cast<double>(clock.elapsed_us());
  cell.insts = st.committed;
  cell.cycles = st.cycles;
  return us;
}

void emit_json(const Cell& cell) {
  if (!bench::options().json) return;
  std::printf("{\"bench\":\"micro_detailed\",\"workload\":\"%s\","
              "\"config\":\"%s\",\"insts\":%llu,\"cycles\":%llu,"
              "\"wall_us\":%.1f,\"detailed_insts_per_sec\":%.1f,"
              "\"host_ns_per_cycle\":%.2f}\n",
              cell.workload.c_str(), cell.config,
              static_cast<unsigned long long>(cell.insts),
              static_cast<unsigned long long>(cell.cycles), cell.best_us,
              cell.insts_per_sec(), cell.host_ns_per_cycle());
}

[[nodiscard]] core::CoreConfig wide_window_config() {
  core::CoreConfig c = sim::presets::scal(1, 2048);
  c.rob_size = 1024;
  c.lsq_size = 512;
  return c;
}

}  // namespace

int main() {
  bench::options();  // a bad CFIR_* knob exits 2 before any output
  const std::vector<std::string> kernels = {"bzip2", "parser", "twolf"};
  const uint32_t scale = 8;
  const int repeats = 7;
  const uint64_t budget = 200000;  // committed insts per run

  const std::vector<std::pair<const char*, core::CoreConfig>> configs = {
      {"scal1p", sim::presets::scal(1, 256)},
      {"ci2p", sim::presets::ci(2, 256)},
      {"wide1p", wide_window_config()},
      {"vect2p", sim::presets::vect(2, 256)},
      {"ci2p-inf", sim::presets::ci(2, sim::presets::kInfRegs)},
      {"ci2p-128", sim::presets::ci(2, 128)},
      {"vect2p-inf", sim::presets::vect(2, sim::presets::kInfRegs)},
  };

  std::vector<isa::Program> programs;
  std::vector<Cell> cells;
  for (const std::string& name : kernels) {
    programs.push_back(workloads::build(name, scale));
    for (const auto& entry : configs) {
      Cell cell;
      cell.workload = name;
      cell.config = entry.first;
      cells.push_back(cell);
    }
  }
  for (int r = 0; r < repeats; ++r) {
    for (size_t i = 0; i < cells.size(); ++i) {
      const isa::Program& program = programs[i / configs.size()];
      const core::CoreConfig& config = configs[i % configs.size()].second;
      cells[i].best_us = std::min(cells[i].best_us,
                                  run_once(config, program, budget, cells[i]));
    }
  }

  std::printf("detailed core throughput (scale %u (fixed), %llu commits, "
              "best of %d round-robin runs)\n",
              scale, static_cast<unsigned long long>(budget), repeats);
  std::printf("%-8s %-10s %9s | %8s %10s\n", "workload", "config", "insts",
              "Mi/s", "ns/cycle");
  for (const Cell& cell : cells) {
    std::printf("%-8s %-10s %9llu | %8.3f %10.1f\n", cell.workload.c_str(),
                cell.config, static_cast<unsigned long long>(cell.insts),
                cell.insts_per_sec() / 1e6, cell.host_ns_per_cycle());
    emit_json(cell);
  }
  return 0;
}
