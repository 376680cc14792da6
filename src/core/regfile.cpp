#include "core/regfile.hpp"

namespace cfir::core {

PhysRegFile::PhysRegFile(uint32_t num_regs) {
  regs_.assign(num_regs, Reg{});
  free_.reserve(num_regs);
  // Hand out low indices first. A LIFO stack seeded N-1 .. 0 makes a
  // larger file's stack this one's with the extra registers underneath,
  // so until this file runs dry both pop the same registers in the same
  // order (CoreConfig::covers).
  for (int r = static_cast<int>(num_regs) - 1; r >= 0; --r) free_.push_back(r);
}

}  // namespace cfir::core
