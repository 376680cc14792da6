// Workload explorer: run any of the twelve SpecInt2000-named kernels under
// any mechanism and print the full statistics block. CFIR_SCALE sizes the
// kernel and CFIR_MAX_INSTS caps the run (default 200000, 0 = to HALT).
//
//   $ ./build/workload_explorer                 # list workloads
//   $ ./build/workload_explorer bzip2 ci 512    # workload, policy, regs
//     policies: scal | wb | ci | ci-iw | vect | ci-h
#include <cstdio>
#include <exception>

#include "sim/options.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "util/parse.hpp"
#include "workloads/workloads.hpp"

using namespace cfir;

int main(int argc, char** argv) {
  sim::Options opts;
  std::string about;
  uint32_t regs = 512;
  try {  // a malformed knob, workload or register count is a usage error
    opts = sim::Options::from_env();
    if (argc > 1) about = workloads::describe(argv[1]);
    if (argc > 3) {
      regs = static_cast<uint32_t>(
          util::parse_decimal("regs", argv[3], UINT32_MAX));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (argc < 2) {
    std::printf("usage: %s <workload> [policy=ci] [regs=512]\n\n", argv[0]);
    std::printf("workloads:\n");
    for (const auto& name : workloads::names()) {
      std::printf("  %-8s %s\n", name.c_str(),
                  workloads::describe(name).c_str());
    }
    std::printf("\npolicies: scal wb ci ci-iw vect ci-h\n");
    return 0;
  }
  const std::string wl = argv[1];
  const std::string policy = argc > 2 ? argv[2] : "ci";

  core::CoreConfig cfg;
  if (policy == "scal") cfg = sim::presets::scal(1, regs);
  else if (policy == "wb") cfg = sim::presets::wb(1, regs);
  else if (policy == "ci") cfg = sim::presets::ci(2, regs);
  else if (policy == "ci-iw") cfg = sim::presets::ci_window(1, regs);
  else if (policy == "vect") cfg = sim::presets::vect(2, regs);
  else if (policy == "ci-h") cfg = sim::presets::ci_specmem(1, regs, 768);
  else {
    std::fprintf(stderr, "unknown policy: %s\n", policy.c_str());
    return 2;
  }

  std::printf("%s under %s:\n  %s\n\n", wl.c_str(), cfg.label().c_str(),
              about.c_str());
  sim::Simulator sim(cfg, workloads::build(wl, opts.scale));
  const uint64_t max_insts = opts.max_insts.value_or(200000);
  const stats::SimStats st = sim.run(max_insts == 0 ? UINT64_MAX : max_insts);
  std::printf("%s\n", st.to_string().c_str());
  return 0;
}
