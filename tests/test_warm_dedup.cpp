// Warm-blob deduplication (trace/warming.cpp capture_warm_states_grid):
// functional warm state depends only on the geometry
// core::CoreConfig::warm_digest() covers (predictor and cache shapes,
// policy family), so a ports/regs/width sweep must train each distinct
// geometry ONCE and share the blobs across the group by construction. The
// dedup is an optimization, not a semantic change: the grid still runs and
// merges bit-identically per column (locked by tests/test_shard.cpp); this
// file locks the sharing itself so a digest regression cannot silently
// re-inflate warming cost O(configs)-fold.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/presets.hpp"
#include "trace/sampling.hpp"
#include "trace/warming.hpp"
#include "workloads/workloads.hpp"

namespace cfir::trace {
namespace {

/// A 4-point sweep with exactly two warm geometries: three points vary
/// only warm-irrelevant knobs (ports, registers, issue width) around the
/// scal preset, one changes cache geometry for real.
[[nodiscard]] std::vector<core::CoreConfig> sweep_configs() {
  core::CoreConfig wide = sim::presets::scal(4, 1024);
  wide.issue_width = 16;
  core::CoreConfig big_cache = sim::presets::scal(1, 256);
  big_cache.memory.l1d.size_bytes *= 2;
  return {sim::presets::scal(1, 256), sim::presets::scal(4, 256), wide,
          big_cache};
}

TEST(WarmDedup, GridCaptureSharesBlobsAcrossEqualGeometry) {
  const std::vector<core::CoreConfig> configs = sweep_configs();
  ASSERT_EQ(configs[0].warm_digest(), configs[1].warm_digest());
  ASSERT_EQ(configs[0].warm_digest(), configs[2].warm_digest());
  ASSERT_NE(configs[0].warm_digest(), configs[3].warm_digest());

  const isa::Program program = workloads::build("bzip2", 4);
  const IntervalPlan plan =
      plan_intervals(program, 2, 60000, 0, WarmMode::kFunctional);
  std::vector<uint64_t> targets;
  for (const Checkpoint& ck : plan.checkpoints) targets.push_back(ck.executed);
  const std::vector<std::vector<std::vector<uint8_t>>> blobs =
      capture_warm_states_grid(configs, program, targets);
  ASSERT_EQ(blobs.size(), configs.size());
  for (size_t c = 0; c < blobs.size(); ++c) {
    ASSERT_EQ(blobs[c].size(), targets.size()) << "config " << c;
    for (const auto& blob : blobs[c]) EXPECT_FALSE(blob.empty()) << c;
  }
  // Geometry-equal points carry byte-identical blobs; the distinct
  // geometry trained something else.
  EXPECT_EQ(blobs[0], blobs[1]);
  EXPECT_EQ(blobs[0], blobs[2]);
  EXPECT_NE(blobs[0], blobs[3]);
}

}  // namespace
}  // namespace cfir::trace
