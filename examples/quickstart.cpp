// Quickstart: build the paper's Figure 1 program with the assembler API,
// run it on the baseline superscalar and on the control-independence
// machine, and compare.
//
//   $ ./build/quickstart
#include <cstdio>
#include <random>

#include "isa/assembler.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"

using namespace cfir;

int main() {
  // The code of Figure 1: count zero / non-zero elements of a[], accumulate
  // the sum. Random data makes the hammock branch hard to predict.
  isa::Assembler as;
  std::mt19937_64 gen(2005);
  const size_t n = 4096;
  const uint64_t a = as.reserve("a", n * 8);
  for (size_t i = 0; i < n; ++i) {
    as.init_word(a + 8 * i, gen() & 1 ? 1 + gen() % 100 : 0);
  }
  as.movi(1, 0);                       // I1: R1 = 0 (index)
  as.movi(2, 0);                       // I2: R2 = 0 (non-zero count)
  as.movi(3, 0);                       // I3: R3 = 0 (zero count)
  as.movi(4, 0);                       // I4: R4 = 0 (sum)
  as.movi(5, static_cast<int64_t>(a));
  as.movi(6, static_cast<int64_t>(n * 8));
  as.movi(7, 0);
  as.label("loop");
  as.add(0, 5, 1);
  as.ld(0, 0, 0, 8);                   // I5: LD R0, a[R1]
  as.beq(0, 7, "else_");               // I6/I7: BE else
  as.addi(2, 2, 1);                    // I8: INC R2
  as.jmp("ip");                        // I9: BR IP
  as.label("else_");
  as.addi(3, 3, 1);                    // I10: INC R3
  as.label("ip");
  as.add(4, 4, 0);                     // I11: ADD R4, R4, R0  (control indep.)
  as.addi(1, 1, 8);                    // I12: ADD R1, 8
  as.blt(1, 6, "loop");                // I13/I14: BLE loop
  as.halt();
  const isa::Program program = as.assemble();

  std::printf("Figure 1 program (%zu static instructions):\n%s\n",
              program.size(), program.listing().c_str());

  auto report = [](const char* name, sim::Simulator& s,
                   const stats::SimStats& st) {
    std::printf("%-18s IPC %.3f  cycles %-8llu  mispredict rate %.1f%%  "
                "reused %llu (%.1f%% of committed)\n",
                name, st.ipc(), static_cast<unsigned long long>(st.cycles),
                100.0 * st.mispredict_rate(),
                static_cast<unsigned long long>(st.reused_committed),
                100.0 * st.reuse_fraction());
    std::printf("%-18s   non-zero(R2)=%llu zero(R3)=%llu sum(R4)=%llu\n", "",
                static_cast<unsigned long long>(s.arch_reg(2)),
                static_cast<unsigned long long>(s.arch_reg(3)),
                static_cast<unsigned long long>(s.arch_reg(4)));
  };

  {
    sim::Simulator s(sim::presets::scal(1, 512), program);
    const auto st = s.run(1000000);
    report("superscalar", s, st);
  }
  {
    sim::Simulator s(sim::presets::wb(1, 512), program);
    const auto st = s.run(1000000);
    report("wide bus", s, st);
  }
  {
    sim::Simulator s(sim::presets::ci(1, 512), program);
    const auto st = s.run(1000000);
    report("control indep.", s, st);
    std::printf("\nCI detail: %llu hard mispredicts, %llu episodes with "
                "selection, %llu with reuse, %llu replicas executed, "
                "safety net fired %llu times\n",
                static_cast<unsigned long long>(st.hard_mispredicts),
                static_cast<unsigned long long>(st.ep_ci_selected),
                static_cast<unsigned long long>(st.ep_ci_reused),
                static_cast<unsigned long long>(st.replicas_executed),
                static_cast<unsigned long long>(st.safety_net_recoveries));
  }
  return 0;
}
