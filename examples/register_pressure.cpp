// Register-pressure study (paper sections 2.4.2 and 2.4.6): how replica
// speculation stretches value lifetimes, what DAEC reclaims, and how the
// speculative data memory takes the pressure off the register file.
//
//   $ ./build/register_pressure
#include <cstdio>

#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "stats/table.hpp"
#include "workloads/workloads.hpp"

using namespace cfir;

namespace {
stats::SimStats run_one(const core::CoreConfig& cfg) {
  sim::Simulator s(cfg, workloads::build("bzip2", 1));
  return s.run(150000);
}
}  // namespace

int main() {
  stats::Table table({"configuration", "IPC", "avg regs", "max regs",
                      "rename stalls", "reuse%"});
  auto add = [&](const char* name, const core::CoreConfig& cfg) {
    const stats::SimStats st = run_one(cfg);
    table.add_row({name, stats::fmt(st.ipc(), 3),
                   stats::fmt(st.avg_regs_in_use(), 0),
                   std::to_string(st.regs_in_use_max),
                   std::to_string(st.rename_stall_cycles),
                   stats::fmt(100.0 * st.reuse_fraction(), 1)});
  };

  add("scal 256r", sim::presets::scal(1, 256));
  add("ci 128r (starved)", sim::presets::ci(1, 128));
  add("ci 256r", sim::presets::ci(1, 256));
  add("ci 512r", sim::presets::ci(1, 512));
  add("ci inf regs", sim::presets::ci(1, sim::presets::kInfRegs));

  core::CoreConfig nodaec = sim::presets::ci(1, sim::presets::kInfRegs);
  nodaec.daec_threshold = UINT32_MAX;  // disable DAEC reclamation
  add("ci inf, DAEC off", nodaec);

  add("ci-h 256r+768 slots", sim::presets::ci_specmem(1, 256, 768));

  std::printf("Register pressure under speculation (bzip2 kernel)\n\n%s\n",
              table.to_text().c_str());
  std::printf(
      "Observations (paper sections 2.4.2/2.4.6):\n"
      " * replicas inflate register lifetimes: 'DAEC off' holds many more\n"
      "   registers than 'ci inf regs' — DAEC reclaims dead speculation\n"
      "   after two misprediction recoveries;\n"
      " * at 128 registers the CI machine starves rename (stall count) and\n"
      "   loses performance, matching Figure 9;\n"
      " * the speculative data memory keeps replica values out of the\n"
      "   register file: 256 registers + 768 slots behaves like a much\n"
      "   larger monolithic file (Figure 13).\n");
  return 0;
}
