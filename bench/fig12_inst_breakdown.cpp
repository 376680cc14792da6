// Figure 12: committed instructions that do not reuse (noR) / reuse a
// precomputed value (Reuse), instructions fetched but squashed by branch
// mispredictions (specBP), and speculative instructions generated by the
// scheme (specCI), for 2 and 4 replicas. Paper: reuse rises 12.3% -> 14%
// from 2 to 4 replicas and specCI activity is comparable to specBP.
#include "common.hpp"

int main() {
  using namespace cfir;
  using namespace cfir::bench;

  std::vector<sim::RunOutcome> all;
  for (const uint32_t reps : {2u, 4u}) {
    const NamedConfig nc{std::to_string(reps) + "rep",
                         sim::presets::ci(2, 256, reps)};
    std::vector<sim::RunSpec> specs;
    for (const std::string& wl : workloads::names()) {
      specs.push_back(env_spec(wl, nc));
    }
    const auto out = sim::run_all(specs, options().threads);
    stats::Table table(
        {"bench", "noR", "Reuse", "specBP", "specCI", "reuse%"});
    uint64_t committed = 0, reuse = 0;
    for (const auto& o : out) {
      const auto& s = o.stats;
      committed += s.committed;
      reuse += s.reused_committed;
      table.add_row(
          o.spec.workload,
          {static_cast<double>(s.committed - s.reused_committed),
           static_cast<double>(s.reused_committed),
           static_cast<double>(s.squashed),
           static_cast<double>(s.replicas_executed),
           s.committed ? 100.0 * s.reuse_fraction() : 0.0},
          1);
    }
    std::printf("Figure 12 (%u replicas): instruction breakdown\n", reps);
    std::printf("aggregate reuse: %.1f%% of committed (paper: %.1f%%)\n\n%s\n",
                committed ? 100.0 * static_cast<double>(reuse) /
                                static_cast<double>(committed)
                          : 0.0,
                reps == 2 ? 12.3 : 14.0, table.to_text().c_str());
    all.insert(all.end(), out.begin(), out.end());
  }
  dump_json(all);
  dump_telemetry_json(all);
  return 0;
}
