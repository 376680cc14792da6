// Figure 9: IPC for scal/wb/ci with 1 and 2 L1D ports across the register
// sweep (128/256/512/768/inf). The paper's shape: wide buses help the
// baseline; CI loses at 128 registers, is neutral at 256 and gains
// 14-17.8% beyond 512 while the baselines flatten out.
//
// All 30 config columns of one workload share a single interval plan when
// sampling (CFIR_INTERVALS > 1): boundaries and checkpoints are
// config-independent, and functional warming streams each gap once for
// the whole column group (sim::run_all / trace::run_shard). With
// CFIR_JSON=1 the trailing telemetry line's `sweep.chain_us` count is the
// number of plans built: one per workload.
#include "common.hpp"

int main() {
  using namespace cfir;
  using namespace cfir::bench;
  run_register_sweep(
      "Figure 9: IPC vs registers and L1D ports",
      [](uint32_t regs) -> std::vector<NamedConfig> {
        return {
            {"scal1p", sim::presets::scal(1, regs)},
            {"wb1p", sim::presets::wb(1, regs)},
            {"ci1p", sim::presets::ci(1, regs)},
            {"scal2p", sim::presets::scal(2, regs)},
            {"wb2p", sim::presets::wb(2, regs)},
            {"ci2p", sim::presets::ci(2, regs)},
        };
      });
  return 0;
}
