// Re-convergence analysis walkthrough: assemble the three canonical control
// constructs of the paper's Figure 2 (loop / if-then / if-then-else), show
// the estimated re-convergent point for each branch, then trace how the
// NRBQ write masks evolve so the CI filter of section 2.3.2 becomes
// concrete.
//
//   $ ./build/hammock_reconvergence
#include <cstdio>

#include "ci/reconvergence.hpp"
#include "isa/assembler.hpp"

using namespace cfir;

namespace {
void analyze(const char* title, const isa::Program& p) {
  std::printf("--- %s ---\n%s", title, p.listing().c_str());
  for (size_t i = 0; i < p.size(); ++i) {
    const isa::Instruction& inst = p.code()[i];
    if (!isa::is_cond_branch(inst.op)) continue;
    const uint64_t pc = p.pc_of(i);
    const uint64_t rp = ci::estimate_reconvergence_point(p, pc, inst);
    std::printf("branch at 0x%llx -> estimated re-convergent point 0x%llx\n",
                static_cast<unsigned long long>(pc),
                static_cast<unsigned long long>(rp));
  }
  std::printf("\n");
}
}  // namespace

int main() {
  {
    isa::Assembler as;  // Figure 2a: loop
    as.label("loop");
    as.addi(1, 1, 1);
    as.blt(1, 2, "loop");
    as.halt();
    analyze("loop structure (backward branch: RP = fall-through)",
            as.assemble());
  }
  {
    isa::Assembler as;  // Figure 2b: if-then
    as.beq(1, 2, "endif");
    as.addi(3, 3, 1);
    as.label("endif");
    as.halt();
    analyze("if-then (forward branch, no closing jump: RP = target)",
            as.assemble());
  }
  isa::Assembler as;  // Figure 2c: if-then-else
  as.beq(1, 2, "else_");
  as.addi(3, 3, 1);
  as.jmp("join");
  as.label("else_");
  as.addi(4, 4, 1);
  as.label("join");
  as.add(5, 5, 6);
  as.halt();
  const isa::Program p = as.assemble();
  analyze("if-then-else (jump above target: RP = its destination)", p);

  // NRBQ mask walkthrough on the if-then-else: decode the taken (else)
  // path and watch the mask close when the join point is crossed.
  ci::Nrbq nrbq(16);
  const uint64_t branch_pc = p.pc_of(0);
  const uint64_t rp =
      ci::estimate_reconvergence_point(p, branch_pc, p.code()[0]);
  nrbq.push(/*seq=*/1, branch_pc, rp);
  std::printf("NRBQ trace (else path): push branch 0x%llx rp=0x%llx\n",
              static_cast<unsigned long long>(branch_pc),
              static_cast<unsigned long long>(rp));
  auto show = [&](const char* what) {
    std::printf("  after %-28s mask=%#llx reached=%d\n", what,
                static_cast<unsigned long long>(nrbq.mask_of(1)),
                nrbq.find(1)->reached);
  };
  nrbq.observe_pc(p.pc_of(3));  // else: addi r4
  nrbq.on_dest_write(4);
  show("else-arm write of r4");
  nrbq.observe_pc(rp);          // join crossed: region closes
  show("crossing the join point");
  nrbq.on_dest_write(5);        // post-join write of r5 (the CI candidate)
  show("post-join write of r5");
  std::printf("\nr5 stays clear of the mask: 'add r5, r5, r6' after the join "
              "is control independent\nand would be selected for speculative "
              "vectorization if its slice started at a strided load.\n");
  return 0;
}
