// Figure 4: IPC depending on the number of propagated stridedPCs per
// rename-map entry (1, 2 or 4). The paper reports SpecInt2000 needs 1.7 on
// average and that going from 2 to 4 hardly changes performance.
#include "common.hpp"

int main() {
  using namespace cfir;
  using namespace cfir::bench;
  std::vector<NamedConfig> configs;
  for (const uint32_t pcs : {1u, 2u, 4u}) {
    core::CoreConfig cfg = sim::presets::ci(2, 256);
    cfg.stridedpc_per_entry = pcs;
    configs.push_back({std::to_string(pcs) + "PC", cfg});
  }
  const std::vector<sim::RunOutcome> outcomes = run_figure(
      "Figure 4: IPC vs propagated stridedPCs per rename entry (ci2p, 256 "
      "regs, 4 replicas)",
      configs, [](const stats::SimStats& s) { return s.ipc(); });

  // The paper's companion number: average stridedPC set width actually
  // propagated (SpecInt2000: ~1.7), over the table's 4PC cells.
  double num = 0, den = 0;
  for (const sim::RunOutcome& o : outcomes) {
    if (o.spec.config_name != configs.back().name) continue;
    num += static_cast<double>(o.stats.stridedpc_width_accum);
    den += static_cast<double>(o.stats.stridedpc_propagations);
  }
  std::printf("Average propagated stridedPCs per entry (4PC cap): %.2f "
              "(paper: 1.7)\n",
              den > 0 ? num / den : 0.0);
  return 0;
}
