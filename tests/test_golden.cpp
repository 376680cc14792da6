// Golden digests of the trace pipeline's on-disk and in-memory artifacts:
// the CFIRTRC2 bytes the recorder writes, the BBVs read back from them,
// the warm-state blobs of the engine-fed grid capture and of solo warmers
// advanced on the recorded trace, the manifest and checkpoint bytes of a
// 2-config plan, and the shard-result bytes and merged stats of a 2-shard
// run. The literals were computed once and pin the exact bytes, so a
// refactor that changes any artifact — even one that keeps every
// in-process differential test green — fails here. A deliberate format
// change updates the literal in the same change and says why.
//
// The detailed core's cycle-level behaviour is pinned the same way: the
// serialized SimStats and cycle count of every (program, config) cell of a
// matrix that stresses each scheduler structure, and the scrubbed
// run_shard payload of every (workload, warm mode) cell of a sampled grid.
// Under the sanitizer build these runs double as the memory-safety stress
// of the calendar ring, the intrusive ready/stall lists and the pooled
// waiter nodes.
//
// The sampled path is pinned end to end: the program-fed BBVs and cluster
// plans of every kernel, and run_all's sampled outcomes (cluster planning,
// functional warming, a detail cap) for every kernel under ci and vect at
// two register points.
#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "trace/bbv.hpp"
#include "trace/manifest.hpp"
#include "trace/sampling.hpp"
#include "trace/shard.hpp"
#include "trace/trace.hpp"
#include "trace/warming.hpp"
#include "util/warmable.hpp"
#include "workloads/workloads.hpp"

namespace cfir::trace {
namespace {

namespace fs = std::filesystem;

/// A fresh per-test directory under the gtest temp dir, removed with its
/// contents on destruction. File names inside it are fixed, so artifacts
/// that embed sibling file names (manifests) digest the same every run.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "cfir_golden_" + tag) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

std::vector<uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

uint64_t digest_of(const std::vector<uint8_t>& bytes) {
  util::Digest d;
  d.u64(bytes.size());
  d.bytes(bytes.data(), bytes.size());
  return d.value();
}

uint64_t file_digest(const std::string& path) {
  return digest_of(file_bytes(path));
}

uint64_t grid_digest(const std::vector<std::vector<std::vector<uint8_t>>>& g) {
  util::Digest d;
  d.u64(g.size());
  for (const auto& per_config : g) {
    d.u64(per_config.size());
    for (const auto& blob : per_config) d.u64(digest_of(blob));
  }
  return d.value();
}

uint64_t bbv_digest(const BbvSet& set) {
  util::Digest d;
  d.u64(set.interval_len);
  d.u64(set.total_insts);
  d.u64(set.leaders.size());
  for (const uint64_t pc : set.leaders) d.u64(pc);
  d.u64(set.vectors.size());
  for (const auto& v : set.vectors) {
    for (const uint32_t c : v) d.u32(c);
  }
  return d.value();
}

uint64_t stats_digest(const stats::SimStats& s) {
  util::ByteWriter w;
  stats::serialize(s, w);
  return digest_of(w.data());
}

/// Wall-clock telemetry is host-dependent by design; zero it so the result
/// bytes are a pure function of the simulation.
std::vector<uint8_t> scrubbed_bytes(ShardResult r) {
  r.warm_wall_us = 0;
  for (auto& iv : r.intervals) iv.wall_us.assign(r.configs.size(), 0);
  return r.serialize();
}

/// Records parser s2 to `path` with the default block capacity.
void record_parser(const std::string& path) {
  TraceMeta meta;
  meta.workload = "parser";
  meta.scale = 2;
  (void)record_interpreter(workloads::build("parser", 2), path, meta);
}

std::vector<core::CoreConfig> golden_grid() {
  return {sim::presets::scal(2, 256), sim::presets::wb(2, 512),
          sim::presets::ci(2, 512), sim::presets::vect(2, 512)};
}

TEST(Golden, RecordedTraceBytes) {
  TempDir dir("record");
  record_parser(dir.file("parser.s2.cfirtrace"));
  EXPECT_EQ(file_digest(dir.file("parser.s2.cfirtrace")),
            0xbc7b2dec6abdd395ull);

  TraceMeta meta;
  meta.workload = "figure1";
  (void)record_interpreter(cfir::testing::figure1_program(64),
                           dir.file("figure1.cfirtrace"), meta, UINT64_MAX,
                           /*block_len=*/4);
  EXPECT_EQ(file_digest(dir.file("figure1.cfirtrace")),
            0xd5498d83cac5452bull);
}

TEST(Golden, BbvFromRecordedTrace) {
  TempDir dir("bbv");
  record_parser(dir.file("parser.s2.cfirtrace"));
  TraceReader reader(dir.file("parser.s2.cfirtrace"));
  EXPECT_EQ(bbv_digest(bbv_from_trace(reader, 10000)), 0xf8f73d6d4cea6ae2ull);
}

TEST(Golden, GridWarmBlobsFromEngineAndTrace) {
  TempDir dir("grid");
  const std::string path = dir.file("parser.s2.cfirtrace");
  record_parser(path);
  const isa::Program program = workloads::build("parser", 2);
  const uint64_t total = TraceReader(path).record_count();
  ASSERT_GT(total, uint64_t{2 * kTraceBlockLen});
  // Cold (0), a duplicate pair, a target in the middle of a block and one
  // at end-of-trace.
  const std::vector<uint64_t> targets = {0, kTraceBlockLen + 777,
                                         kTraceBlockLen + 777, total / 2 + 13,
                                         total};
  const std::vector<core::CoreConfig> configs = golden_grid();

  EXPECT_EQ(grid_digest(capture_warm_states_grid(configs, program, targets)),
            0x6a80a9a2a46b7e87ull);
  // The same blobs from one solo warmer per config advanced on the trace.
  std::vector<std::vector<std::vector<uint8_t>>> traced(configs.size());
  for (size_t c = 0; c < configs.size(); ++c) {
    FunctionalWarmer warmer(configs[c], program);
    TraceReader reader(path);
    for (const uint64_t target : targets) {
      warmer.advance_on_trace(reader, target);
      traced[c].push_back(warmer.serialize_state());
    }
  }
  EXPECT_EQ(grid_digest(traced), 0x6a80a9a2a46b7e87ull);
}

/// A functionally warmed 4-interval bzip2 s2 plan for two configs.
struct GoldenPlan {
  isa::Program program = workloads::build("bzip2", 2);
  IntervalPlan plan = plan_intervals(program, 4, 0, 0, WarmMode::kFunctional,
                                     /*detail_len=*/2000);
  std::vector<std::pair<std::string, core::CoreConfig>> points = {
      {"ci:2:512", sim::presets::ci(2, 512)},
      {"scal:2:256", sim::presets::scal(2, 256)}};
};

TEST(Golden, ManifestAndCheckpointBytes) {
  TempDir dir("manifest");
  const GoldenPlan g;
  const std::string manifest_path = dir.file("bzip2.s2.cfirman");
  const ShardManifest m = write_manifest(
      g.plan, cfir::testing::bindings_of(g.points), "bzip2", 2, manifest_path);
  EXPECT_EQ(file_digest(manifest_path), 0xea2e0ff7eaf9b8ddull);

  util::Digest ck;
  for (const auto& iv : m.intervals) {
    const std::string& name = iv.checkpoint_file;
    ck.bytes(reinterpret_cast<const uint8_t*>(name.data()), name.size());
    ck.u64(file_digest(dir.file(name)));
  }
  EXPECT_EQ(m.intervals.size(), size_t{4});
  EXPECT_EQ(ck.value(), 0xf1fa973bc2fe14cfull);
}

/// Two shards of a manifest, each capturing its own warm state, as
/// `trace_tool run-shard` runs them.
TEST(Golden, TwoShardRunFromManifest) {
  TempDir dir("shards");
  const GoldenPlan g;
  const std::string path = dir.file("bzip2.s2.cfirman");
  (void)write_manifest(g.plan, cfir::testing::bindings_of(g.points), "bzip2",
                       2, path);
  const ShardManifest m = ShardManifest::load(path);
  const IntervalPlan plan = plan_from_manifest(m, path);
  std::vector<ShardResult> shards;
  util::Digest bytes;
  for (uint32_t i = 0; i < 2; ++i) {
    const ShardSelection sel{i, 2};
    shards.push_back(run_shard(bindings_from_manifest(m, path, sel),
                               g.program, plan, sel, /*threads=*/2,
                               m.plan_hash));
    bytes.u64(digest_of(scrubbed_bytes(shards.back())));
  }
  EXPECT_EQ(bytes.value(), 0x7ba46f646a5ffa50ull);
  const MergedGrid merged = merge_shard_grid(shards);
  ASSERT_EQ(merged.configs.size(), size_t{2});
  EXPECT_EQ(stats_digest(merged.configs[0].run.aggregate),
            0x6ff74ea19cbba2acull);
  EXPECT_EQ(stats_digest(merged.configs[1].run.aggregate),
            0x25dd71f3845c7ddcull);
}

/// The detailed-core config matrix. Each column stresses different
/// scheduler structures: one memory port (stalled-load retries), the CI
/// mechanism (the replica engine rides the same cycle loop), a 1K-entry
/// ROB (calendar wrap-around and long stall lists), the vect baseline,
/// the speculative data memory (copy micro-ops and their waiters), the
/// squash-reuse baseline, ci at the "infinite" register point (an
/// 8K-entry ROB), and the fig14 grid's two extreme columns: ci starved at
/// 128 registers (rename stalls, replica-reserve denials, watchdog
/// reclaims) and vect at the 8K-entry ROB.
const char* const kCoreConfigNames[] = {"scal1p",   "ci2p",     "wide1p",
                                        "vect2p",   "cih2p",    "ciiw2p",
                                        "ci2p-inf", "ci2p-128", "vect2p-inf"};
constexpr size_t kCoreConfigs = std::size(kCoreConfigNames);

std::vector<core::CoreConfig> core_matrix() {
  core::CoreConfig wide = sim::presets::scal(1, 2048);
  wide.rob_size = 1024;
  wide.lsq_size = 512;
  return {sim::presets::scal(1, 256),
          sim::presets::ci(2, 256),
          wide,
          sim::presets::vect(2, 256),
          sim::presets::ci_specmem(2, 512, 256),
          sim::presets::ci_window(2, 256),
          sim::presets::ci(2, sim::presets::kInfRegs),
          sim::presets::ci(2, 128),
          sim::presets::vect(2, sim::presets::kInfRegs)};
}

/// Serialized SimStats plus the cycle count of one plain detailed run.
uint64_t core_run_digest(const core::CoreConfig& config,
                         const isa::Program& program, uint64_t max_insts) {
  sim::Simulator sim(config, program);
  const stats::SimStats st = sim.run(max_insts);
  util::Digest d;
  d.u64(stats_digest(st));
  d.u64(st.cycles);
  return d.value();
}

TEST(Golden, DetailedCoreKernels) {
  const char* const kernels[] = {"bzip2", "parser", "twolf"};
  // Rows: workloads at scale 8; columns: kCoreConfigNames; 120,000 commits.
  const uint64_t expected[3][kCoreConfigs] = {
      {0x82e08d0eeec91d2dull, 0x7dc2c43647462fd6ull, 0x0533d3f57822e934ull,
       0x7e9a73d52a8de773ull, 0x348e94399170cc89ull,
       0x93435f1eda348848ull, 0x6597b2cf1cf512b2ull, 0x1c8feaee3d82d0a6ull,
       0xbf5819f74f67f7ccull},
      {0x148f665fb38371edull, 0xb49cb593f9d1dcbfull, 0x9084f13fca41cd52ull,
       0xe24c20882dfc2708ull, 0xf9044dfb8bc5b8c6ull,
       0xd977a9a3bb4b9989ull, 0x4f94bc0695ac26fcull, 0xed0d521f4cacb09dull,
       0xda7ed2eb13c7031bull},
      {0xd2098969530a9d96ull, 0xebdfbed701a1dc5dull, 0xa8afb241e75dc837ull,
       0xf1a5d7804629ac16ull, 0x30164d7cb78f3e71ull,
       0xf41f71ca9d477012ull, 0x1ce86c64085837dfull, 0xe0f16f0f153eb171ull,
       0xa69547c7b8ef3d22ull},
  };
  const std::vector<core::CoreConfig> configs = core_matrix();
  ASSERT_EQ(configs.size(), kCoreConfigs);
  for (size_t w = 0; w < 3; ++w) {
    const isa::Program program = workloads::build(kernels[w], 8);
    for (size_t c = 0; c < configs.size(); ++c) {
      EXPECT_EQ(core_run_digest(configs[c], program, 120000), expected[w][c])
          << kernels[w] << "/" << kCoreConfigNames[c];
    }
  }
}

/// Random programs reach squash and retry interleavings the curated
/// kernels may not: wakeups of squashed slots, stale calendar events, LSQ
/// squashes that must invalidate the stalled-load retry gate.
TEST(Golden, DetailedCoreRandomPrograms) {
  // Rows: testing::random_program(1..6); columns: kCoreConfigNames;
  // 60,000 commits.
  const uint64_t expected[6][kCoreConfigs] = {
      {0x1c18fd68fb26fc0aull, 0xc8f70bf74bd9c4abull, 0x1c18fd68fb26fc0aull,
       0xc8f70bf74bd9c4abull, 0xc8f70bf74bd9c4abull,
       0xfe130fbcbd02c4e4ull, 0xc8f70bf74bd9c4abull, 0xc8f70bf74bd9c4abull,
       0xc8f70bf74bd9c4abull},
      {0x29e95fc9ade96fa8ull, 0x1a857f44f85c879dull, 0x29e95fc9ade96fa8ull,
       0x53a66cb09411742eull, 0x1a857f44f85c879dull,
       0xfd52619be90782acull, 0x1a857f44f85c879dull, 0x1a857f44f85c879dull,
       0x53a66cb09411742eull},
      {0xb31f94ab5689a846ull, 0xb637c425a9476b1dull, 0xb31f94ab5689a846ull,
       0xa3e630b0811299e4ull, 0xb637c425a9476b1dull,
       0xd301c1a8e0d2b046ull, 0xb637c425a9476b1dull, 0x24bb927c931ca62cull,
       0xa3e630b0811299e4ull},
      {0x00d76458cfd7336cull, 0xdbf299a8ab73eed0ull, 0x00d76458cfd7336cull,
       0xd757a86da6e7def8ull, 0xdbf299a8ab73eed0ull,
       0xbdf1a87fde4be48eull, 0xdbf299a8ab73eed0ull, 0xa45cd15b693537f2ull,
       0xd757a86da6e7def8ull},
      {0xf70403d8060fb177ull, 0x86f8ffe9a1208956ull, 0xf70403d8060fb177ull,
       0x86f8ffe9a1208956ull, 0x86f8ffe9a1208956ull,
       0x6de28836a7e8c351ull, 0x86f8ffe9a1208956ull, 0x86f8ffe9a1208956ull,
       0x86f8ffe9a1208956ull},
      {0xbc749df73a7920f3ull, 0x43b760cd8fcca6efull, 0xbc749df73a7920f3ull,
       0x43b760cd8fcca6efull, 0x43b760cd8fcca6efull,
       0x579fb2536395347cull, 0x43b760cd8fcca6efull, 0x43b760cd8fcca6efull,
       0x43b760cd8fcca6efull},
  };
  const std::vector<core::CoreConfig> configs = core_matrix();
  ASSERT_EQ(configs.size(), kCoreConfigs);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const isa::Program program = cfir::testing::random_program(seed);
    for (size_t c = 0; c < configs.size(); ++c) {
      EXPECT_EQ(core_run_digest(configs[c], program, 60000),
                expected[seed - 1][c])
          << "seed " << seed << "/" << kCoreConfigNames[c];
    }
  }
}

/// The sampled grid path a sharded experiment takes: plan, then run_shard
/// over two configs. The scrubbed payload holds every per-interval stats
/// block and warm count of the grid.
TEST(Golden, DetailedCoreShardGridAcrossWarmModes) {
  const char* const kernels[] = {"bzip2", "parser", "twolf"};
  const WarmMode modes[] = {WarmMode::kDetailed, WarmMode::kFunctional,
                            WarmMode::kHybrid};
  const char* const mode_names[] = {"detailed", "functional", "hybrid"};
  // Rows: workloads at scale 8; columns: modes.
  const uint64_t expected[3][3] = {
      {0x1dfa485a9a599fe1ull, 0xfd904f28bab1e855ull, 0x958127ebeba1fc73ull},
      {0xdad9ee8943fd599cull, 0x471d8aacb15bc63eull, 0xfefce5a0d0484af9ull},
      {0x72f9d1e203596f5bull, 0x85ac84fdb178525full, 0x536d7d7b4b207aa5ull},
  };
  const std::vector<std::pair<std::string, core::CoreConfig>> points = {
      {"scal1p", sim::presets::scal(1, 256)},
      {"ci2p", sim::presets::ci(2, 256)},
  };
  for (size_t w = 0; w < 3; ++w) {
    const isa::Program program = workloads::build(kernels[w], 8);
    for (size_t m = 0; m < 3; ++m) {
      const IntervalPlan plan =
          plan_intervals(program, 2, 120000, 5000, modes[m]);
      const ShardResult r =
          run_shard(cfir::testing::bindings_of(points), program, plan);
      EXPECT_EQ(digest_of(scrubbed_bytes(r)), expected[w][m])
          << kernels[w] << "/" << mode_names[m];
    }
  }
}

/// Every plan field the detail runs consume: the run's extent, the
/// windowing, each measured interval's start, length and weight bits, the
/// window-to-cluster map and where each checkpoint was captured.
uint64_t plan_digest(const IntervalPlan& p) {
  util::Digest d;
  d.u64(p.total_insts);
  d.u8(p.ran_to_halt ? 1 : 0);
  d.u64(p.interval_len);
  d.u64(p.boundaries.size());
  for (size_t i = 0; i < p.boundaries.size(); ++i) {
    d.u64(p.boundaries[i]);
    d.u64(p.lengths[i]);
    d.u64(std::bit_cast<uint64_t>(p.weights[i]));
    d.u64(p.checkpoints[i].executed);
    d.u64(p.checkpoints[i].pc);
  }
  d.u64(p.cluster_of.size());
  for (const uint32_t c : p.cluster_of) d.u32(c);
  return d.value();
}

/// Program-fed BBVs and cluster plans of all twelve kernels at scale 8:
/// the BBVs at an odd window length (windows end mid-block), the plan
/// sampled_s8 uses (16 windows, to HALT) and a capped plan (7 windows,
/// detailed warm-up) whose run ends inside a block.
TEST(Golden, ProgramBbvsAndClusterPlansForEveryKernel) {
  // Rows: kernels in workloads::names() order; columns:
  // bbv_from_program(4999), the 16-window plan, the capped 7-window plan.
  const uint64_t expected[12][3] = {
      {0xac419f7bffe54141ull, 0xd64c7a5a75359532ull, 0x42ef222f0fece779ull},
      {0xaba97da9b584a5baull, 0x1dbad68afac5b102ull, 0x808904ad1630afcdull},
      {0x88f4ec13b32699a1ull, 0x60cc02fe5ec0b0ceull, 0x233b061acb317cf0ull},
      {0xeb41073777a992f7ull, 0xf5a079666d9908f1ull, 0x5f7d4bb010f5de19ull},
      {0x97f87fde4d4f8665ull, 0x01bd7aa21a9e7bb8ull, 0x3f670cc86c62ed15ull},
      {0x85a09365c44186deull, 0xec3bcc6048ed3ebfull, 0x36237d8e39193c6dull},
      {0x8ce8048fcb0f533dull, 0x9b26e4cbe9a9a4f8ull, 0x9365548d779d0ebdull},
      {0x157b494eb3c2db7full, 0x7e71bc79199591a9ull, 0x96384109ad84c221ull},
      {0x5fa43e0155797d99ull, 0x495c92c168ecb2a4ull, 0x5f622d26f1a7daedull},
      {0x58210f6acf2efa53ull, 0xe745f9d363404907ull, 0xe67cbe975ca4fab1ull},
      {0x4d5e2f972d26ff5dull, 0x66f7b2189e4d2b13ull, 0x0035ff06bf648e1dull},
      {0xd26b7cdfe3b0771eull, 0x11ac1292886f6474ull, 0x1d0fef585bf3cf21ull},
  };
  const std::vector<std::string>& kernels = workloads::names();
  ASSERT_EQ(kernels.size(), size_t{12});
  ClusterPlanOptions full;
  full.n_intervals = 16;
  full.warm_mode = WarmMode::kFunctional;
  full.detail_len = 2000;
  ClusterPlanOptions capped;
  capped.n_intervals = 7;
  capped.warmup = 3000;
  capped.max_insts = 100003;
  for (size_t w = 0; w < kernels.size(); ++w) {
    const isa::Program program = workloads::build(kernels[w], 8);
    const uint64_t got[3] = {
        bbv_digest(bbv_from_program(program, 4999)),
        plan_digest(plan_cluster_intervals(program, full)),
        plan_digest(plan_cluster_intervals(program, capped))};
    for (size_t col = 0; col < 3; ++col) {
      EXPECT_EQ(got[col], expected[w][col])
          << kernels[w] << " column " << col << ": 0x" << std::hex
          << got[col];
    }
  }
}

/// run_all's sampled path for every kernel at scale 8 under ci and vect at
/// 128 and 512 registers, set up as sampled_s8 is: 16 cluster windows,
/// functional warming, 2000-instruction measured slices. One literal per
/// kernel covers its four cells' aggregate stats and every phase's start,
/// length, weight bits and stats.
TEST(Golden, SampledRunAllGrid) {
  // One per kernel, in workloads::names() order.
  const uint64_t expected[12] = {
      0xd29a3278891092c2ull, 0x717b0b1a667b779full, 0xa2a9a7828c114c84ull,
      0x6a7e06a4e8a96745ull, 0xe642404426a20a55ull, 0xf7fc5e8c19f27429ull,
      0x6c48a9623f63de25ull, 0x1f6d5b786c01735dull, 0x0d2b837e9c4cb146ull,
      0x26e54196d92eb6d5ull, 0xe9c376d5d5079d40ull, 0xc781fa6cf54c92cfull,
  };
  const std::vector<std::string>& kernels = workloads::names();
  ASSERT_EQ(kernels.size(), size_t{12});
  const std::vector<std::pair<std::string, core::CoreConfig>> columns = {
      {"ci:2:128", sim::presets::ci(2, 128)},
      {"ci:2:512", sim::presets::ci(2, 512)},
      {"vect:2:128", sim::presets::vect(2, 128)},
      {"vect:2:512", sim::presets::vect(2, 512)}};
  std::vector<sim::RunSpec> specs;
  for (const std::string& kernel : kernels) {
    for (const auto& [name, config] : columns) {
      sim::RunSpec spec;
      spec.workload = kernel;
      spec.config_name = name;
      spec.config = config;
      spec.scale = 8;
      spec.intervals = 16;
      spec.sample_mode = SampleMode::kCluster;
      spec.warm_mode = WarmMode::kFunctional;
      spec.detail_len = 2000;
      specs.push_back(spec);
    }
  }
  const std::vector<sim::RunOutcome> outcomes = sim::run_all(specs);
  ASSERT_EQ(outcomes.size(), specs.size());
  for (size_t w = 0; w < kernels.size(); ++w) {
    util::Digest d;
    for (size_t c = 0; c < columns.size(); ++c) {
      const sim::RunOutcome& o = outcomes[w * columns.size() + c];
      EXPECT_FALSE(o.phases.empty()) << kernels[w] << "/" << columns[c].first;
      d.u64(stats_digest(o.stats));
      d.u64(o.phases.size());
      for (const SampledRun::Interval& ph : o.phases) {
        d.u64(ph.start_inst);
        d.u64(ph.length);
        d.u64(std::bit_cast<uint64_t>(ph.weight));
        d.u64(stats_digest(ph.stats));
      }
    }
    EXPECT_EQ(d.value(), expected[w])
        << kernels[w] << ": 0x" << std::hex << d.value();
  }
}

}  // namespace
}  // namespace cfir::trace
