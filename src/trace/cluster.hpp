// Phase clustering of per-interval basic-block vectors (bbv.hpp), the
// SimPoint recipe (Sherwood et al., ASPLOS'02):
//
//   1. Normalize each BBV to a frequency vector (entries sum to 1), so
//      intervals compare by *where* they spend time, not how long they are.
//   2. Random-project down to a small dimension. The projection matrix is
//      a deterministic +-1/sqrt(d) sign matrix hashed from (seed, leader
//      pc, output dim), so results are reproducible across runs and
//      independent of block discovery order.
//   3. k-means (k-means++ seeding, Lloyd refinement) for every k in
//      1..max_k, scored with the Bayesian Information Criterion of
//      X-means (Pelleg & Moore, ICML'00). The chosen k is the smallest
//      whose BIC reaches kBicFraction of the best score's range —
//      SimPoint's "smallest k within 90% of the best" rule.
//   4. Each cluster is represented by the member interval closest to the
//      centroid; its weight is the cluster population.
//
// Everything is deterministic: fixed seed, no std::rand, ties broken by
// lowest index. Two machines clustering the same trace agree bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/bbv.hpp"

namespace cfir::trace {

/// The clustering parameters. Every plan uses these, so they are fixed.
inline constexpr uint32_t kProjectionDims = 16;  ///< random-projection target
inline constexpr uint64_t kClusterSeed = 0xC1F15EEDu;
inline constexpr uint32_t kKmeansIters = 64;   ///< Lloyd iteration cap per k
inline constexpr double kBicFraction = 0.9;    ///< smallest k within this range

struct Clustering {
  uint32_t k = 0;
  std::vector<uint32_t> assignment;      ///< per interval: cluster id
  std::vector<uint32_t> representative;  ///< per cluster: interval index
  std::vector<uint64_t> sizes;           ///< per cluster: member count
  std::vector<double> bic_by_k;          ///< BIC score of k = 1..max swept
};

/// Normalizes + projects the BBVs (step 1-2 above). Exposed for tests;
/// returns one `dims`-dimensional point per interval.
[[nodiscard]] std::vector<std::vector<double>> project_bbvs(
    const BbvSet& bbvs, uint32_t dims, uint64_t seed);

/// Deterministic k-means on pre-projected points: returns the per-point
/// assignment for exactly `k` clusters (k-means++ seeding, Lloyd until
/// stable or `iters`).
[[nodiscard]] std::vector<uint32_t> kmeans(
    const std::vector<std::vector<double>>& points, uint32_t k,
    uint64_t seed, uint32_t iters = kKmeansIters);

/// The full pipeline: project, sweep k = 1..min(max_k, #intervals) by BIC,
/// pick representatives.
[[nodiscard]] Clustering cluster_bbvs(const BbvSet& bbvs, uint32_t max_k = 16);

}  // namespace cfir::trace
