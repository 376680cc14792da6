// Detailed-core throughput. Runs each workload kernel at scale 8 under a
// plain superscalar config, the paper's CI mechanism (whose replica engine
// rides the same core loop), and a wide-window stress point (1K-entry ROB)
// where the scheduler's stall lists and calendar ring run longest. Each
// cell keeps its best wall time over a few runs. Prints a table of million
// committed insts/sec and, under CFIR_JSON=1, one machine-readable line
// per (workload, config) cell with `detailed_insts_per_sec`.
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
  uint64_t insts = 0;
  double best_us = 1e18;
  [[nodiscard]] double insts_per_sec() const {
    return best_us > 0.0 ? static_cast<double>(insts) * 1e6 / best_us : 0.0;
  }
};

/// One detailed run to the commit budget on a fresh Simulator.
double run_once(const core::CoreConfig& config, const isa::Program& program,
                uint64_t max_insts, uint64_t& insts_out) {
  sim::Simulator sim(config, program);
  const obs::Stopwatch clock;
  const stats::SimStats st = sim.run(max_insts);
  const double us = static_cast<double>(clock.elapsed_us());
  insts_out = st.committed;
  return us;
}

void emit_json(const std::string& workload, const char* config,
               const Cell& cell) {
  if (!bench::json_requested()) return;
  std::printf("{\"bench\":\"micro_detailed\",\"workload\":\"%s\","
              "\"config\":\"%s\",\"insts\":%llu,"
              "\"wall_us\":%.1f,\"detailed_insts_per_sec\":%.1f}\n",
              workload.c_str(), config,
              static_cast<unsigned long long>(cell.insts), cell.best_us,
              cell.insts_per_sec());
}

[[nodiscard]] core::CoreConfig wide_window_config() {
  core::CoreConfig c = sim::presets::scal(1, 2048);
  c.rob_size = 1024;
  c.lsq_size = 512;
  return c;
}

}  // namespace

int main() {
  const std::vector<std::string> kernels = {"bzip2", "parser", "twolf"};
  const uint32_t scale = 8;
  const int repeats = 3;
  const uint64_t budget = 200000;  // committed insts per run

  const std::vector<std::pair<const char*, core::CoreConfig>> configs = {
      {"scal1p", sim::presets::scal(1, 256)},
      {"ci2p", sim::presets::ci(2, 256)},
      {"wide1p", wide_window_config()},
  };

  std::printf("detailed core throughput "
              "(scale %u, %llu commits, best of %d runs)\n",
              scale, static_cast<unsigned long long>(budget), repeats);
  std::printf("%-8s %-7s %9s | %8s\n", "workload", "config", "insts", "Mi/s");

  for (const std::string& name : kernels) {
    const isa::Program program = workloads::build(name, scale);
    for (const auto& [cfg_name, config] : configs) {
      Cell cell;
      for (int r = 0; r < repeats; ++r) {
        cell.best_us = std::min(cell.best_us,
                                run_once(config, program, budget, cell.insts));
      }
      std::printf("%-8s %-7s %9llu | %8.3f\n", name.c_str(), cfg_name,
                  static_cast<unsigned long long>(cell.insts),
                  cell.insts_per_sec() / 1e6);
      emit_json(name, cfg_name, cell);
    }
  }
  return 0;
}
