// Named processor configurations matching the paper's evaluation section:
// scalXp / wbXp / ciXp / ci-h-N / ci-iw / vect, register sweeps of
// 128/256/512/768/"infinite", and Table 1 defaults everywhere else.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace cfir::sim::presets {

/// Physical register count used for the paper's "infinite" points.
inline constexpr uint32_t kInfRegs = 8192;

/// The register sweep of Figures 9/11/13/14.
[[nodiscard]] std::vector<uint32_t> register_sweep();
/// Pretty label for a sweep point ("128", ..., "inf").
[[nodiscard]] std::string reg_label(uint32_t regs);

/// Table 1 baseline (no mechanism, scalar ports).
[[nodiscard]] core::CoreConfig table1();

/// scalXp: plain superscalar with X scalar L1D ports.
[[nodiscard]] core::CoreConfig scal(uint32_t ports, uint32_t regs);
/// wbXp: superscalar with X wide L1D ports (section 2.4.5).
[[nodiscard]] core::CoreConfig wb(uint32_t ports, uint32_t regs);
/// ciXp: wide bus + the control-independence mechanism.
[[nodiscard]] core::CoreConfig ci(uint32_t ports, uint32_t regs,
                                  uint32_t replicas = 4);
/// ci-h-N: ci with the speculative data memory of section 2.4.6.
[[nodiscard]] core::CoreConfig ci_specmem(uint32_t ports, uint32_t regs,
                                          uint32_t slots,
                                          uint32_t replicas = 4);
/// ci-iw: squash reuse only (Figure 10).
[[nodiscard]] core::CoreConfig ci_window(uint32_t ports, uint32_t regs);
/// vect: full-blown dynamic vectorization of reference [12] (Figure 14).
[[nodiscard]] core::CoreConfig vect(uint32_t ports, uint32_t regs,
                                    uint32_t replicas = 4);

/// Parses a preset spec "<family>:<ports>:<regs>[:<extra>...]" into a
/// CoreConfig — the textual form of a config point for `trace_tool plan
/// --configs` / `sample --config` (docs/sharding.md):
///   scal:2:512 | wb:1:256 | ci:2:512[:replicas] | ci-iw:2:512
///   vect:2:512[:replicas] | ci-h:2:512:slots[:replicas]
/// Throws util::UsageError on unknown families, malformed numbers or
/// wrong arities so a typo'd grid column fails loudly at plan time.
[[nodiscard]] core::CoreConfig from_spec(std::string_view spec);

}  // namespace cfir::sim::presets
