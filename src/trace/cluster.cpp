#include "trace/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace cfir::trace {

namespace {

uint64_t splitmix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Tiny deterministic PRNG (LCG advanced, splitmix-finalized output).
struct Rng {
  uint64_t state;
  uint64_t next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return splitmix64(state);
  }
  double next_double() {  // uniform in [0, 1)
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
};

double dist2(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    d += diff * diff;
  }
  return d;
}

std::vector<std::vector<double>> centroids_of(
    const std::vector<std::vector<double>>& points,
    const std::vector<uint32_t>& assignment, uint32_t k) {
  const size_t dims = points.empty() ? 0 : points[0].size();
  std::vector<std::vector<double>> centroids(k,
                                             std::vector<double>(dims, 0.0));
  std::vector<uint64_t> counts(k, 0);
  for (size_t i = 0; i < points.size(); ++i) {
    const uint32_t c = assignment[i];
    ++counts[c];
    for (size_t j = 0; j < dims; ++j) centroids[c][j] += points[i][j];
  }
  for (uint32_t c = 0; c < k; ++c) {
    if (counts[c] == 0) continue;
    for (double& v : centroids[c]) v /= static_cast<double>(counts[c]);
  }
  return centroids;
}

/// X-means BIC (Pelleg & Moore): log-likelihood of a spherical-Gaussian
/// mixture fit minus the parameter-count penalty. Higher is better.
double bic_score(const std::vector<std::vector<double>>& points,
                 const std::vector<uint32_t>& assignment, uint32_t k) {
  const double n = static_cast<double>(points.size());
  const double d = points.empty() ? 1.0 : static_cast<double>(points[0].size());
  const auto centroids = centroids_of(points, assignment, k);

  std::vector<uint64_t> sizes(k, 0);
  double sq_sum = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    ++sizes[assignment[i]];
    sq_sum += dist2(points[i], centroids[assignment[i]]);
  }
  const double denom = d * std::max(1.0, n - static_cast<double>(k));
  // The variance floor doubles as a noise gate: points are projected
  // frequency vectors (coordinates O(1)), so sub-1e-3 per-dimension
  // differences are execution jitter, not phase structure. Without the
  // floor the likelihood of near-identical intervals diverges as k grows
  // and BIC degenerates to k = max_k.
  const double variance = std::max(sq_sum / denom, 1e-6);

  double loglik = 0.0;
  for (uint32_t c = 0; c < k; ++c) {
    if (sizes[c] == 0) continue;
    const double r = static_cast<double>(sizes[c]);
    loglik += r * std::log(r) - r * std::log(n) -
              r * d / 2.0 * std::log(2.0 * M_PI * variance) -
              d * (r - 1.0) / 2.0;
  }
  const double params = static_cast<double>(k) * (d + 1.0);
  return loglik - params / 2.0 * std::log(n);
}

}  // namespace

std::vector<std::vector<double>> project_bbvs(const BbvSet& bbvs,
                                              uint32_t dims, uint64_t seed) {
  if (dims == 0) throw std::runtime_error("project_bbvs: dims must be > 0");
  const double scale = 1.0 / std::sqrt(static_cast<double>(dims));
  // Projection row per block, hashed from its leader PC so the matrix
  // does not depend on block discovery order; computed once, shared by
  // every interval.
  std::vector<std::vector<double>> rows(bbvs.leaders.size(),
                                        std::vector<double>(dims));
  for (size_t b = 0; b < bbvs.leaders.size(); ++b) {
    for (uint32_t j = 0; j < dims; ++j) {
      const uint64_t h = splitmix64(seed ^ splitmix64(bbvs.leaders[b]) ^
                                    (uint64_t{j} * 0xA24BAED4963EE407ull));
      rows[b][j] = (h & 1) != 0 ? scale : -scale;
    }
  }
  std::vector<std::vector<double>> points;
  points.reserve(bbvs.vectors.size());
  for (const std::vector<uint32_t>& vec : bbvs.vectors) {
    uint64_t total = 0;
    for (const uint32_t c : vec) total += c;
    std::vector<double> point(dims, 0.0);
    if (total > 0) {
      for (size_t b = 0; b < vec.size(); ++b) {
        if (vec[b] == 0) continue;
        const double freq =
            static_cast<double>(vec[b]) / static_cast<double>(total);
        for (uint32_t j = 0; j < dims; ++j) point[j] += freq * rows[b][j];
      }
    }
    points.push_back(std::move(point));
  }
  return points;
}

std::vector<uint32_t> kmeans(const std::vector<std::vector<double>>& points,
                             uint32_t k, uint64_t seed, uint32_t iters) {
  const size_t n = points.size();
  if (k == 0 || n == 0) return std::vector<uint32_t>(n, 0);
  k = static_cast<uint32_t>(std::min<size_t>(k, n));

  // k-means++ seeding: first center uniform, then proportional to the
  // squared distance from the nearest chosen center.
  Rng rng{splitmix64(seed)};
  std::vector<std::vector<double>> centers;
  centers.reserve(k);
  centers.push_back(points[rng.next() % n]);
  std::vector<double> best_d2(n, 0.0);
  while (centers.size() < k) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double d2 = dist2(points[i], centers[0]);
      for (size_t c = 1; c < centers.size(); ++c) {
        d2 = std::min(d2, dist2(points[i], centers[c]));
      }
      best_d2[i] = d2;
      total += d2;
    }
    size_t pick = 0;
    if (total > 0.0) {
      double target = rng.next_double() * total;
      for (; pick + 1 < n; ++pick) {
        target -= best_d2[pick];
        if (target <= 0.0) break;
      }
    } else {
      // All remaining points coincide with a center; any choice is as good.
      pick = rng.next() % n;
    }
    centers.push_back(points[pick]);
  }

  // Lloyd refinement. An iteration is a pure function of the (assignment,
  // centers) state it starts from, so once a post-iteration state repeats,
  // the rest of the loop is determined: a repeat of the previous state is
  // a fixed point (its assignment is the answer), and a repeat of the one
  // before that is a 2-cycle that would alternate until the cap (the
  // answer is whichever of the two the cap's parity lands on). Detecting
  // both ends the loop early with the result the full loop returns; with
  // few distinct points, k above their count otherwise swaps two labelings
  // until the cap. The stable-assignment exit below fires only after
  // iteration 0, and only post-iteration states are compared, so neither
  // shortcut can skip it.
  struct State {
    std::vector<uint32_t> assignment;
    std::vector<std::vector<double>> centers;
  };
  State prev1;  // after the previous iteration
  State prev2;  // after the one before that
  std::vector<uint32_t> assignment(n, 0);
  for (uint32_t iter = 0; iter < iters; ++iter) {
    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
      uint32_t best = 0;
      double best_dist = std::numeric_limits<double>::max();
      for (uint32_t c = 0; c < k; ++c) {
        const double d2 = dist2(points[i], centers[c]);
        if (d2 < best_dist) {
          best_dist = d2;
          best = c;
        }
      }
      if (assignment[i] != best) {
        assignment[i] = best;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;

    auto next = centroids_of(points, assignment, k);
    // Re-seed any emptied cluster with the farthest point whose donor
    // cluster keeps at least one member (deterministic: first farthest
    // wins). Stealing only from multi-member clusters — and keeping the
    // counts current — guarantees the donor cannot itself end up empty,
    // so no empty cluster survives this pass.
    std::vector<uint64_t> counts(k, 0);
    for (const uint32_t a : assignment) ++counts[a];
    for (uint32_t c = 0; c < k; ++c) {
      if (counts[c] > 0) continue;
      size_t farthest = n;
      double far_d = -1.0;
      for (size_t i = 0; i < n; ++i) {
        if (counts[assignment[i]] <= 1) continue;
        const double d2 = dist2(points[i], next[assignment[i]]);
        if (d2 > far_d) {
          far_d = d2;
          farthest = i;
        }
      }
      // An empty cluster implies some cluster holds >= 2 of the n >= k
      // points, so a donor always exists.
      if (farthest == n) continue;
      --counts[assignment[farthest]];
      next[c] = points[farthest];
      assignment[farthest] = c;
      ++counts[c];
    }
    centers = std::move(next);

    const auto repeats = [&](const State& s) {
      return assignment == s.assignment && centers == s.centers;
    };
    if (iter >= 1 && repeats(prev1)) break;  // fixed point
    if (iter >= 2 && repeats(prev2)) {
      // 2-cycle: the state after iteration iters - 1 is this one when
      // (iters - 1 - iter) is even, else the previous one.
      if ((iters - 1 - iter) % 2 != 0) return std::move(prev1.assignment);
      break;
    }
    prev2 = std::move(prev1);
    prev1 = {assignment, centers};
  }
  return assignment;
}

Clustering cluster_bbvs(const BbvSet& bbvs, uint32_t max_k) {
  Clustering result;
  const size_t n = bbvs.num_intervals();
  if (n == 0) return result;

  const auto points = project_bbvs(bbvs, kProjectionDims, kClusterSeed);
  max_k = static_cast<uint32_t>(
      std::max<size_t>(1, std::min<size_t>(max_k, n)));

  // Sweep k, keep every assignment so the winner needs no re-run.
  std::vector<std::vector<uint32_t>> assignments;
  assignments.reserve(max_k);
  result.bic_by_k.reserve(max_k);
  for (uint32_t k = 1; k <= max_k; ++k) {
    assignments.push_back(kmeans(points, k, kClusterSeed + k));
    result.bic_by_k.push_back(bic_score(points, assignments.back(), k));
  }

  // SimPoint's rule: smallest k whose BIC reaches kBicFraction of the
  // swept score range.
  const double best =
      *std::max_element(result.bic_by_k.begin(), result.bic_by_k.end());
  const double worst =
      *std::min_element(result.bic_by_k.begin(), result.bic_by_k.end());
  const double cutoff = best - (1.0 - kBicFraction) * (best - worst);
  uint32_t chosen = max_k;
  for (uint32_t k = 1; k <= max_k; ++k) {
    if (result.bic_by_k[k - 1] >= cutoff) {
      chosen = k;
      break;
    }
  }

  result.k = chosen;
  result.assignment = assignments[chosen - 1];
  result.sizes.assign(chosen, 0);
  for (const uint32_t a : result.assignment) ++result.sizes[a];

  // Representative per cluster: member closest to the centroid (lowest
  // index on ties, since the scan goes in order and uses strict <).
  const auto centroids = centroids_of(points, result.assignment, chosen);
  result.representative.assign(chosen, 0);
  std::vector<double> best_d(chosen, std::numeric_limits<double>::max());
  for (size_t i = 0; i < n; ++i) {
    const uint32_t c = result.assignment[i];
    const double d2 = dist2(points[i], centroids[c]);
    if (d2 < best_d[c]) {
      best_d[c] = d2;
      result.representative[c] = static_cast<uint32_t>(i);
    }
  }
  return result;
}

}  // namespace cfir::trace
