// Figure 14: the control-independence scheme vs the full-blown dynamic
// vectorization of reference [12] across the register sweep (2 wide
// ports). Paper: ci wins below ~700 registers; vect edges ahead (~4%) only
// with unbounded registers while generating far more useless speculation
// (48.45% vs 29.62% of executed instructions wasted).
#include "common.hpp"

int main() {
  using namespace cfir;
  using namespace cfir::bench;
  const std::vector<sim::RunOutcome> outcomes = run_register_sweep(
      "Figure 14: ci vs full dynamic vectorization (vect), 2 wide ports",
      [](uint32_t regs) -> std::vector<NamedConfig> {
        return {
            {"ci", sim::presets::ci(2, regs)},
            {"vect", sim::presets::vect(2, regs)},
        };
      });

  // Waste comparison at the paper's operating point: the sweep's inf-regs
  // cells.
  double waste[2] = {0, 0}, reuse[2] = {0, 0};
  uint64_t exec[2] = {0, 0}, committed[2] = {0, 0};
  for (const sim::RunOutcome& o : outcomes) {
    if (o.spec.config.num_phys_regs != sim::presets::kInfRegs) continue;
    const int m = o.spec.config_name == "ci" ? 0 : 1;
    // Wasted work: wrong-path squashes plus replicas that never validated.
    waste[m] += static_cast<double>(o.stats.squashed +
                                    o.stats.replicas_executed) -
                static_cast<double>(o.stats.reused_committed);
    exec[m] += o.stats.committed + o.stats.squashed +
               o.stats.replicas_executed;
    reuse[m] += static_cast<double>(o.stats.reused_committed);
    committed[m] += o.stats.committed;
  }
  std::printf("Speculative waste (inf regs): ci %.1f%% vs vect %.1f%% of "
              "executed (paper: 29.6%% vs 48.5%%)\n",
              exec[0] ? 100.0 * waste[0] / static_cast<double>(exec[0]) : 0.0,
              exec[1] ? 100.0 * waste[1] / static_cast<double>(exec[1]) : 0.0);
  std::printf("Reuse fraction of committed: ci %.1f%% vs vect %.1f%% "
              "(paper: 14%% vs 17%%)\n",
              committed[0] ? 100.0 * reuse[0] / static_cast<double>(committed[0]) : 0.0,
              committed[1] ? 100.0 * reuse[1] / static_cast<double>(committed[1]) : 0.0);
  return 0;
}
