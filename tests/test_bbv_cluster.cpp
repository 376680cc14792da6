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
//  - k-means separates well-separated synthetic clusters, deterministically
//  - cluster_bbvs picks few phases for a homogeneous run, weights sum to
//    the interval count, and representatives lie in their own cluster
//  - plan_cluster_intervals produces a well-formed weighted plan with
//    warm-up checkpoints
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
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
  bool is_branch = false;
  uint32_t dim = 0;
  interp.on_branch = [&](uint64_t, bool, uint64_t) { is_branch = true; };
  interp.on_step = [&](uint64_t pc, uint64_t) {
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
    prev_was_branch = is_branch;
    is_branch = false;
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
    if (i > 0) EXPECT_GT(plan.boundaries[i], plan.boundaries[i - 1]);
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

}  // namespace
}  // namespace cfir::trace
