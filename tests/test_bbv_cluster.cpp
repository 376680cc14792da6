// Phase detection for cluster-mode sampling (src/trace/bbv, cluster):
//  - BBVs are deterministic across capture sources: a trace recorded from
//    the reference interpreter, a trace recorded from the detailed core,
//    and a direct interpreter pass all yield identical vectors
//  - the block-slice builder equals a per-instruction reference built in
//    the test from the reference Interpreter's committed stream, at window
//    lengths 1, 7, 1000 and 4096, under a cap that ends inside a block,
//    across a jump to the next slot and a block longer than the engine's
//    block cap, with more windows than instructions and on an empty run
//  - vectors partition the instruction stream (entries sum to interval
//    instruction counts)
//  - k-means separates well-separated synthetic clusters, deterministically,
//    and its cycle exit returns what the plain Lloyd loop returns for every
//    k and iteration cap, on points with and without duplicates
//  - cluster_bbvs picks few phases for a homogeneous run, weights sum to
//    the interval count, and representatives lie in their own cluster
//  - plan_cluster_intervals produces a well-formed weighted plan with
//    warm-up checkpoints, and the checkpoints it checks out of its
//    snapshot ladder equal a forward interval_checkpoints pass for every
//    kernel, a run long enough to drop snapshots twice, a capped run that
//    ends inside a block and a program that halts at instruction 0, under
//    functional and hybrid warming
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "helpers.hpp"
#include "isa/assembler.hpp"
#include "isa/interpreter.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "trace/bbv.hpp"
#include "trace/cluster.hpp"
#include "trace/sampling.hpp"
#include "trace/trace.hpp"
#include "workloads/workloads.hpp"

namespace cfir::trace {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "cfir_" + tag + "_" +
              std::to_string(reinterpret_cast<uintptr_t>(this))) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void expect_bbv_equal(const BbvSet& a, const BbvSet& b) {
  EXPECT_EQ(a.total_insts, b.total_insts);
  EXPECT_EQ(a.leaders, b.leaders);
  ASSERT_EQ(a.vectors.size(), b.vectors.size());
  for (size_t i = 0; i < a.vectors.size(); ++i) {
    EXPECT_EQ(a.vectors[i], b.vectors[i]) << "interval " << i;
  }
}

TEST(Bbv, DeterministicAcrossCaptureSources) {
  const isa::Program program = workloads::build("bzip2", 1);
  constexpr uint64_t kIntervalLen = 5000;

  // Source 1: trace recorded from the reference interpreter.
  TempFile interp_file("bbv_interp");
  TraceMeta meta;
  meta.workload = "bzip2";
  const isa::InterpResult ref =
      record_interpreter(program, interp_file.path(), meta);
  TraceReader interp_reader(interp_file.path());
  const BbvSet from_interp = bbv_from_trace(interp_reader, kIntervalLen);

  // Source 2: trace recorded from the detailed core.
  TempFile core_file("bbv_core");
  {
    TraceWriter writer(core_file.path(), meta);
    sim::Simulator sim(sim::presets::ci(2, 512), program);
    sim.attach_trace(writer);
    const stats::SimStats st = sim.run(UINT64_MAX);
    EXPECT_EQ(st.committed, ref.executed);
    std::array<uint64_t, isa::kNumLogicalRegs> regs{};
    for (int r = 0; r < isa::kNumLogicalRegs; ++r) {
      regs[static_cast<size_t>(r)] = sim.arch_reg(r);
    }
    writer.finish(regs, sim.memory_digest());
  }
  TraceReader core_reader(core_file.path());
  const BbvSet from_core = bbv_from_trace(core_reader, kIntervalLen);

  // Source 3: direct interpreter pass, no file.
  const BbvSet from_program = bbv_from_program(program, kIntervalLen);

  EXPECT_EQ(from_interp.total_insts, ref.executed);
  expect_bbv_equal(from_interp, from_core);
  expect_bbv_equal(from_interp, from_program);
}

TEST(Bbv, VectorsPartitionTheStream) {
  const isa::Program program = workloads::build("gcc", 1);
  constexpr uint64_t kIntervalLen = 3000;
  const BbvSet bbvs = bbv_from_program(program, kIntervalLen);

  ASSERT_GT(bbvs.num_intervals(), 1u);
  EXPECT_GT(bbvs.leaders.size(), 1u);
  uint64_t total = 0;
  for (size_t i = 0; i < bbvs.num_intervals(); ++i) {
    ASSERT_EQ(bbvs.vectors[i].size(), bbvs.leaders.size());
    uint64_t insts = 0;
    for (const uint32_t c : bbvs.vectors[i]) insts += c;
    // Every interval is exactly full except possibly the last.
    if (i + 1 < bbvs.num_intervals()) {
      EXPECT_EQ(insts, kIntervalLen) << "interval " << i;
    } else {
      EXPECT_GT(insts, 0u);
      EXPECT_LE(insts, kIntervalLen);
    }
    total += insts;
  }
  EXPECT_EQ(total, bbvs.total_insts);
}

TEST(Bbv, MaxInstsCapsTheWalk) {
  const isa::Program program = workloads::build("bzip2", 1);
  const BbvSet capped = bbv_from_program(program, 1000, 2500);
  EXPECT_EQ(capped.total_insts, 2500u);
  EXPECT_EQ(capped.num_intervals(), 3u);  // 1000 + 1000 + 500
}

/// The per-instruction BBV definition, applied to the reference
/// Interpreter's committed stream: a block starts at the first
/// instruction, after a conditional branch, and wherever the PC is not
/// the previous PC + 4. `starts`, when given, receives per instruction
/// whether it started a block.
BbvSet reference_bbvs(const isa::Program& program, uint64_t interval_len,
                      uint64_t max_insts,
                      std::vector<bool>* starts = nullptr) {
  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  isa::Interpreter interp(program, memory);
  BbvSet set;
  set.interval_len = interval_len;
  std::unordered_map<uint64_t, uint32_t> dim_of;
  uint64_t prev_pc = 0;
  bool prev_was_branch = false;
  uint32_t dim = 0;
  interp.on_retire = [&](const isa::StepEvent& ev) {
    const uint64_t pc = ev.pc;
    if (set.total_insts % interval_len == 0) set.vectors.emplace_back();
    const bool start = set.total_insts == 0 || prev_was_branch ||
                       pc != prev_pc + isa::kInstBytes;
    if (starts != nullptr) starts->push_back(start);
    if (start) {
      const auto [it, inserted] = dim_of.try_emplace(
          pc, static_cast<uint32_t>(set.leaders.size()));
      if (inserted) set.leaders.push_back(pc);
      dim = it->second;
    }
    std::vector<uint32_t>& v = set.vectors.back();
    if (v.size() <= dim) v.resize(dim + 1, 0);
    ++v[dim];
    ++set.total_insts;
    prev_pc = pc;
    prev_was_branch = ev.kind == isa::EventKind::kBranch;
  };
  interp.run(max_insts == 0 ? UINT64_MAX : max_insts);
  for (auto& v : set.vectors) v.resize(set.leaders.size(), 0);
  return set;
}

/// A loop whose body jumps to the very next slot: the JMP ends the
/// engine's block, but the BBV block runs on through it.
isa::Program jump_to_next_slot_program() {
  isa::Assembler as;
  as.movi(1, 0);
  as.movi(2, 40);
  as.label("loop");
  as.addi(1, 1, 1);
  as.jmp("next");
  as.label("next");
  as.addi(3, 3, 2);
  as.addi(4, 4, 3);
  as.blt(1, 2, "loop");
  as.halt();
  return as.assemble();
}

/// A loop whose straight-line body is longer than the engine's 256-op
/// block cap: the engine delivers it in two slices, the second starting
/// mid-block.
isa::Program long_block_program() {
  isa::Assembler as;
  as.movi(1, 0);
  as.movi(2, 12);
  as.label("loop");
  for (int i = 0; i < 300; ++i) as.addi(3 + i % 4, 3 + i % 4, i);
  as.addi(1, 1, 1);
  as.blt(1, 2, "loop");
  as.halt();
  return as.assemble();
}

TEST(Bbv, BlockSlicesMatchPerInstructionReference) {
  struct Case {
    const char* name;
    isa::Program program;
    uint64_t max_insts;  ///< 0 = to HALT
  };
  const Case cases[] = {
      {"gcc", workloads::build("gcc", 1), 0},
      {"parser-capped", workloads::build("parser", 1), 2502},
      {"figure1", cfir::testing::figure1_program(200), 0},
      {"figure1-capped", cfir::testing::figure1_program(200), 1001},
      {"jmp-next", jump_to_next_slot_program(), 0},
      {"long-block", long_block_program(), 0},
  };
  for (const Case& c : cases) {
    if (c.max_insts != 0) {
      // The cap must cut a block: the instruction after it continues the
      // block the cap stopped in.
      std::vector<bool> starts;
      (void)reference_bbvs(c.program, 1, c.max_insts + 1, &starts);
      ASSERT_EQ(starts.size(), c.max_insts + 1) << c.name;
      EXPECT_FALSE(starts.back()) << c.name << ": cap ends between blocks";
    }
    TempFile file(std::string("slices_") + c.name);
    TraceMeta meta;
    meta.workload = c.name;
    (void)record_interpreter(
        c.program, file.path(), meta,
        c.max_insts == 0 ? UINT64_MAX : c.max_insts);
    for (const uint64_t len : {uint64_t{1}, uint64_t{7}, uint64_t{1000},
                               uint64_t{4096}}) {
      SCOPED_TRACE(std::string(c.name) + " interval " + std::to_string(len));
      const BbvSet reference = reference_bbvs(c.program, len, c.max_insts);
      ASSERT_GT(reference.total_insts, 0u);
      if (c.max_insts != 0) {
        EXPECT_EQ(reference.total_insts, c.max_insts);
      }
      const BbvSet from_program =
          bbv_from_program(c.program, len, c.max_insts);
      EXPECT_EQ(from_program.interval_len, len);
      expect_bbv_equal(from_program, reference);
      TraceReader reader(file.path());
      const BbvSet from_trace = bbv_from_trace(reader, len);
      EXPECT_EQ(from_trace.interval_len, len);
      expect_bbv_equal(from_trace, reference);
    }
  }
}

TEST(Bbv, MoreWindowsThanInstructions) {
  EXPECT_EQ(window_len(5, 8), 1u);
  EXPECT_EQ(window_len(9, 3), 3u);
  EXPECT_EQ(window_len(10, 3), 4u);
  EXPECT_EQ(window_len(10, 0), 10u);
  EXPECT_EQ(window_len(0, 8), 1u);

  // 50 windows asked of a 20-instruction run: one window per instruction.
  const isa::Program program = cfir::testing::figure1_program(64);
  ClusterPlanOptions opts;
  opts.n_intervals = 50;
  opts.max_insts = 20;
  const IntervalPlan plan = plan_cluster_intervals(program, opts);
  EXPECT_EQ(plan.total_insts, 20u);
  EXPECT_FALSE(plan.ran_to_halt);
  EXPECT_EQ(plan.interval_len, 1u);
  EXPECT_EQ(plan.cluster_of.size(), 20u);
  const BbvSet reference = reference_bbvs(program, 1, 20);
  expect_bbv_equal(bbv_from_program(program, 1, 20), reference);
  EXPECT_EQ(reference.num_intervals(), 20u);
}

TEST(Bbv, EmptyRun) {
  isa::Assembler as;
  as.halt();
  const isa::Program program = as.assemble();
  const BbvSet from_program = bbv_from_program(program, 7);
  EXPECT_EQ(from_program.total_insts, 0u);
  EXPECT_TRUE(from_program.leaders.empty());
  EXPECT_EQ(from_program.num_intervals(), 0u);
  expect_bbv_equal(from_program, reference_bbvs(program, 7, 0));

  TempFile file("bbv_empty");
  TraceMeta meta;
  meta.workload = "halt";
  (void)record_interpreter(program, file.path(), meta);
  TraceReader reader(file.path());
  expect_bbv_equal(bbv_from_trace(reader, 7), from_program);

  const IntervalPlan plan = plan_cluster_intervals(program);
  EXPECT_EQ(plan.total_insts, 0u);
  EXPECT_TRUE(plan.ran_to_halt);
  EXPECT_EQ(plan.boundaries, std::vector<uint64_t>{0});
  EXPECT_EQ(plan.lengths, std::vector<uint64_t>{0});
}

TEST(Kmeans, SeparatesDistantGroupsDeterministically) {
  // Two tight groups far apart; any sane clustering splits them 4/4.
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 4; ++i) {
    points.push_back({0.0 + 0.01 * i, 0.0});
    points.push_back({10.0 + 0.01 * i, 10.0});
  }
  const std::vector<uint32_t> a = kmeans(points, 2, /*seed=*/1);
  ASSERT_EQ(a.size(), points.size());
  for (size_t i = 0; i < points.size(); i += 2) {
    EXPECT_EQ(a[i], a[0]);
    EXPECT_EQ(a[i + 1], a[1]);
    EXPECT_NE(a[i], a[i + 1]);
  }
  // Bitwise deterministic on repeat.
  EXPECT_EQ(kmeans(points, 2, /*seed=*/1), a);
}

// --- the plain Lloyd loop, as a reference for kmeans' cycle exit ----------

uint64_t ref_splitmix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct RefRng {
  uint64_t state;
  uint64_t next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return ref_splitmix64(state);
  }
  double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
};

double ref_dist2(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    d += diff * diff;
  }
  return d;
}

std::vector<std::vector<double>> ref_centroids(
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

/// k-means as it was before the cycle exit: k-means++ seeding, then Lloyd
/// iterations that stop only when the assignment is stable or at `iters`.
std::vector<uint32_t> reference_kmeans(
    const std::vector<std::vector<double>>& points, uint32_t k, uint64_t seed,
    uint32_t iters) {
  const size_t n = points.size();
  if (k == 0 || n == 0) return std::vector<uint32_t>(n, 0);
  k = static_cast<uint32_t>(std::min<size_t>(k, n));
  RefRng rng{ref_splitmix64(seed)};
  std::vector<std::vector<double>> centers;
  centers.push_back(points[rng.next() % n]);
  std::vector<double> best_d2(n, 0.0);
  while (centers.size() < k) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double d2 = ref_dist2(points[i], centers[0]);
      for (size_t c = 1; c < centers.size(); ++c) {
        d2 = std::min(d2, ref_dist2(points[i], centers[c]));
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
      pick = rng.next() % n;
    }
    centers.push_back(points[pick]);
  }
  std::vector<uint32_t> assignment(n, 0);
  for (uint32_t iter = 0; iter < iters; ++iter) {
    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
      uint32_t best = 0;
      double best_dist = std::numeric_limits<double>::max();
      for (uint32_t c = 0; c < k; ++c) {
        const double d2 = ref_dist2(points[i], centers[c]);
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
    auto next = ref_centroids(points, assignment, k);
    std::vector<uint64_t> counts(k, 0);
    for (const uint32_t a : assignment) ++counts[a];
    for (uint32_t c = 0; c < k; ++c) {
      if (counts[c] > 0) continue;
      size_t farthest = n;
      double far_d = -1.0;
      for (size_t i = 0; i < n; ++i) {
        if (counts[assignment[i]] <= 1) continue;
        const double d2 = ref_dist2(points[i], next[assignment[i]]);
        if (d2 > far_d) {
          far_d = d2;
          farthest = i;
        }
      }
      if (farthest == n) continue;
      --counts[assignment[farthest]];
      next[c] = points[farthest];
      assignment[farthest] = c;
      ++counts[c];
    }
    centers = std::move(next);
  }
  return assignment;
}

TEST(Kmeans, CycleExitMatchesThePlainLloydLoop) {
  // Kernels whose windows repeat a few BBVs exactly (the duplicates that
  // make k above their count cycle), and point sets without duplicates.
  std::vector<std::pair<std::string, std::vector<std::vector<double>>>> inputs;
  for (const char* kernel : {"bzip2", "mcf", "vortex", "gcc", "twolf"}) {
    BbvBuilder runs = bbv_runs_from_program(workloads::build(kernel, 8));
    const BbvSet bbvs = runs.finish(window_len(runs.total_insts(), 16));
    inputs.emplace_back(kernel,
                        project_bbvs(bbvs, kProjectionDims, kClusterSeed));
  }
  RefRng gen{7};
  for (const size_t n : {size_t{16}, size_t{24}}) {
    std::vector<std::vector<double>> distinct;
    std::vector<std::vector<double>> repeated;
    for (size_t i = 0; i < n; ++i) {
      distinct.push_back({gen.next_double(), gen.next_double(),
                          gen.next_double()});
      repeated.push_back({static_cast<double>(i % 3), 0.5 * (i % 3 == 1)});
    }
    inputs.emplace_back("distinct/" + std::to_string(n), distinct);
    inputs.emplace_back("three-points/" + std::to_string(n), repeated);
  }

  size_t with_duplicates = 0;
  for (const auto& [name, points] : inputs) {
    std::vector<std::vector<double>> sorted = points;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      ++with_duplicates;
    }
    for (uint32_t k = 1; k <= 16; ++k) {
      for (uint32_t cap = 1; cap <= 64; ++cap) {
        const uint64_t seed = kClusterSeed + k;
        ASSERT_EQ(kmeans(points, k, seed, cap),
                  reference_kmeans(points, k, seed, cap))
            << name << " k=" << k << " cap=" << cap;
      }
    }
  }
  // Both kinds of input are covered.
  EXPECT_GT(with_duplicates, 0u);
  EXPECT_LT(with_duplicates, inputs.size());
}

TEST(Cluster, HomogeneousRunCollapsesToFewPhases) {
  // bzip2 iterates one hammock kernel; its intervals are near-identical,
  // so BIC must not shatter them into one cluster per interval.
  const isa::Program program = workloads::build("bzip2", 1);
  const BbvSet bbvs = bbv_from_program(program, 5000);
  const Clustering clusters = cluster_bbvs(bbvs);

  ASSERT_GT(clusters.k, 0u);
  EXPECT_LE(clusters.k, bbvs.num_intervals() / 2);
  uint64_t members = 0;
  for (uint32_t c = 0; c < clusters.k; ++c) {
    members += clusters.sizes[c];
    ASSERT_LT(clusters.representative[c], bbvs.num_intervals());
    EXPECT_EQ(clusters.assignment[clusters.representative[c]], c)
        << "representative of cluster " << c << " not a member";
  }
  EXPECT_EQ(members, bbvs.num_intervals());
  EXPECT_EQ(clusters.bic_by_k.size(),
            std::min<size_t>(16, bbvs.num_intervals()));
}

TEST(Cluster, PlanClusterIntervalsIsWellFormed) {
  const isa::Program program = workloads::build("parser", 1);
  ClusterPlanOptions opts;
  opts.n_intervals = 16;
  opts.warmup = 4000;
  const IntervalPlan plan = plan_cluster_intervals(program, opts);

  EXPECT_EQ(plan.mode, SampleMode::kCluster);
  EXPECT_GT(plan.total_insts, 0u);
  EXPECT_GT(plan.interval_len, 0u);
  const size_t k = plan.boundaries.size();
  ASSERT_GT(k, 0u);
  ASSERT_EQ(plan.lengths.size(), k);
  ASSERT_EQ(plan.weights.size(), k);
  ASSERT_EQ(plan.checkpoints.size(), k);

  double weight_sum = 0.0;
  for (size_t i = 0; i < k; ++i) {
    if (i > 0) {
      EXPECT_GT(plan.boundaries[i], plan.boundaries[i - 1]);
    }
    EXPECT_EQ(plan.boundaries[i] % plan.interval_len, 0u);
    EXPECT_LE(plan.lengths[i], plan.interval_len);
    EXPECT_GE(plan.weights[i], 1.0);
    weight_sum += plan.weights[i];
    // Warm-up checkpoints sit `warmup` instructions early (clamped at 0).
    const uint64_t expect_start = plan.boundaries[i] >= opts.warmup
                                      ? plan.boundaries[i] - opts.warmup
                                      : 0;
    EXPECT_EQ(plan.checkpoints[i].executed, expect_start);
  }
  EXPECT_EQ(weight_sum, static_cast<double>(plan.cluster_of.size()));
}

// --- checkpoints checked out of the planning pass's snapshots ------------

/// The plan's checkpoints equal a forward interval_checkpoints pass over
/// the positions the warm mode puts them at. Returns how many positions
/// the warm-up clamped to 0 from a nonzero boundary.
size_t expect_checkpoints_match_forward_pass(const isa::Program& program,
                                             const IntervalPlan& plan,
                                             const std::string& what) {
  const uint64_t warmup =
      warm_mode_has_detailed_slice(plan.warm_mode) ? plan.warmup : 0;
  std::vector<uint64_t> positions;
  size_t clamped = 0;
  for (const uint64_t start : plan.boundaries) {
    positions.push_back(start >= warmup ? start - warmup : 0);
    if (start > 0 && start < warmup) ++clamped;
  }
  const std::vector<Checkpoint> forward =
      interval_checkpoints(program, positions);
  EXPECT_EQ(plan.checkpoints.size(), forward.size()) << what;
  for (size_t i = 0; i < std::min(forward.size(), plan.checkpoints.size());
       ++i) {
    const Checkpoint& a = plan.checkpoints[i];
    const Checkpoint& b = forward[i];
    EXPECT_EQ(a.executed, positions[i]) << what << " checkpoint " << i;
    EXPECT_EQ(a.executed, b.executed) << what << " checkpoint " << i;
    EXPECT_EQ(a.pc, b.pc) << what << " checkpoint " << i;
    EXPECT_EQ(a.regs, b.regs) << what << " checkpoint " << i;
    EXPECT_EQ(a.memory.digest(), b.memory.digest())
        << what << " checkpoint " << i;
  }
  return clamped;
}

TEST(SnapshotLadder, CheckpointsMatchForwardPassOnEveryKernel) {
  size_t clamped = 0;
  for (const std::string& kernel : workloads::names()) {
    const isa::Program program = workloads::build(kernel, 8);
    for (const WarmMode mode : {WarmMode::kFunctional, WarmMode::kHybrid}) {
      ClusterPlanOptions opts;
      opts.n_intervals = 16;
      opts.warm_mode = mode;
      opts.warmup = 100000;  // longer than the prefix of windows 1 and 2
      opts.detail_len = 2000;
      const IntervalPlan plan = plan_cluster_intervals(program, opts);
      clamped += expect_checkpoints_match_forward_pass(
          program, plan, kernel + " " + warm_mode_name(mode));
    }
  }
  EXPECT_GT(clamped, 0u) << "no warm-up reached back past instruction 0";
}

TEST(SnapshotLadder, DropsSnapshotsAsTheRunGrows) {
  const isa::Program program = workloads::build("bzip2", 40);
  SnapshotLadder ladder;
  const uint64_t total =
      bbv_runs_from_program(program, 0, &ladder).total_insts();
  // Dropped twice: the grain doubled at least twice, and stays within
  // total / 32 with at most kMaxSnapshots + 1 snapshots kept.
  EXPECT_GE(ladder.grain(), 4 * SnapshotLadder::kStartGrain);
  EXPECT_LE(ladder.grain(), total / 32);
  EXPECT_LE(ladder.size(), SnapshotLadder::kMaxSnapshots + 1);
  EXPECT_EQ(ladder.size(), total / ladder.grain() + 1);

  // Checkouts anywhere in the run, unsorted, including the ends.
  const std::vector<uint64_t> positions = {
      total - 1, 0, ladder.grain(), ladder.grain() - 1, total / 3, total};
  const std::vector<Checkpoint> out = ladder.checkpoints(program, positions);
  for (size_t i = 0; i < positions.size(); ++i) {
    const std::vector<Checkpoint> forward =
        interval_checkpoints(program, {positions[i]});
    EXPECT_EQ(out[i].executed, positions[i]);
    EXPECT_EQ(out[i].pc, forward[0].pc) << "position " << positions[i];
    EXPECT_EQ(out[i].regs, forward[0].regs) << "position " << positions[i];
    EXPECT_EQ(out[i].memory.digest(), forward[0].memory.digest())
        << "position " << positions[i];
  }

  for (const WarmMode mode : {WarmMode::kFunctional, WarmMode::kHybrid}) {
    ClusterPlanOptions opts;
    opts.n_intervals = 32;
    opts.warm_mode = mode;
    opts.warmup = 20000;
    const IntervalPlan plan = plan_cluster_intervals(program, opts);
    EXPECT_EQ(plan.total_insts, total);
    expect_checkpoints_match_forward_pass(
        program, plan, std::string("bzip2 s40 ") + warm_mode_name(mode));
  }
}

TEST(SnapshotLadder, CappedRunEndingInsideABlock) {
  const isa::Program program = workloads::build("parser", 8);
  const uint64_t cap = 300001;
  // The cap must cut a block: the instruction after it continues the
  // block the cap stopped in.
  std::vector<bool> starts;
  (void)reference_bbvs(program, 1, cap + 1, &starts);
  ASSERT_EQ(starts.size(), cap + 1);
  ASSERT_FALSE(starts.back()) << "cap ends between blocks";
  for (const WarmMode mode : {WarmMode::kFunctional, WarmMode::kHybrid}) {
    ClusterPlanOptions opts;
    opts.n_intervals = 16;
    opts.warm_mode = mode;
    opts.warmup = 30000;
    opts.max_insts = cap;
    const IntervalPlan plan = plan_cluster_intervals(program, opts);
    EXPECT_EQ(plan.total_insts, cap);
    EXPECT_FALSE(plan.ran_to_halt);
    expect_checkpoints_match_forward_pass(
        program, plan, std::string("parser capped ") + warm_mode_name(mode));
  }
}

TEST(SnapshotLadder, ProgramThatHaltsAtInstructionZero) {
  isa::Assembler as;
  as.halt();
  const isa::Program program = as.assemble();
  for (const WarmMode mode : {WarmMode::kFunctional, WarmMode::kHybrid}) {
    ClusterPlanOptions opts;
    opts.warm_mode = mode;
    opts.warmup = 1000;
    const IntervalPlan plan = plan_cluster_intervals(program, opts);
    EXPECT_EQ(plan.total_insts, 0u);
    expect_checkpoints_match_forward_pass(
        program, plan, std::string("halt ") + warm_mode_name(mode));
  }
}

}  // namespace
}  // namespace cfir::trace
