#include "ci/srsmt.hpp"

#include "util/warmable.hpp"

namespace cfir::ci {

Srsmt::Srsmt(uint32_t sets, uint32_t ways, uint32_t replicas_per_entry)
    : sets_(sets),
      ways_(ways),
      replicas_(replicas_per_entry),
      ring_pos_(replicas_per_entry) {
  util::require_geometry("Srsmt", "set count", sets_, true);
  util::require_geometry("Srsmt", "way count", ways_, false);
  util::require_geometry("Srsmt", "replica count", replicas_, false);
  entries_.assign(static_cast<size_t>(sets_) * ways_, SrsmtEntry{});
  pcs_.assign(entries_.size(), kNoPc);
  live_.assign((entries_.size() + 63) / 64, 0);
  loads_.assign(live_.size(), 0);
}

}  // namespace cfir::ci
