#include "core/regfile.hpp"

namespace cfir::core {

PhysRegFile::PhysRegFile(uint32_t num_regs) {
  regs_.assign(num_regs, Reg{});
  free_.reserve(num_regs);
  // Hand out low indices first (purely cosmetic in traces).
  for (int r = static_cast<int>(num_regs) - 1; r >= 0; --r) free_.push_back(r);
}

}  // namespace cfir::core
