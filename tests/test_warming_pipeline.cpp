// Bit-identity wall for the pipelined block-parallel warming path
// (docs/sampling.md "Pipelined warming"): capture_warm_states_grid must
// produce the byte-identical warm blobs of its per-config references —
// capture_warm_states for the engine source and a solo
// FunctionalWarmer::advance_on_trace for the trace source — because each
// shared trainer always sees the identical record stream in order on a
// single thread. Also locked here:
//
//  - a grid of two shared warm geometries, one holding both stride
//    policies (ci, vect) and three configs without a stride predictor;
//  - targets at 0, duplicated, mid-block and at end-of-trace, and engine
//    targets past HALT;
//  - a 4-record tiny-block trace (every batch spans many block
//    boundaries);
//  - run_shard grids byte-equal whether warm state comes from bound
//    sidecar blobs, the engine pass or a recorded trace, after scrubbing
//    the (intentionally nondeterministic) wall-clock telemetry;
//  - truncated traces name the offending warm target and interval, both
//    in FunctionalWarmer::advance_on_trace and in the grid capture;
//  - WarmingPipelineS8: the same matrix on bzip2 s8 (excluded from the
//    sanitizer CI job alongside TraceV2S8 — same exclusion pattern).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "sim/presets.hpp"
#include "trace/sampling.hpp"
#include "trace/shard.hpp"
#include "trace/trace.hpp"
#include "trace/warming.hpp"
#include "workloads/workloads.hpp"

namespace cfir::trace {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "cfir_warmpipe_" + tag +
              "_" + std::to_string(reinterpret_cast<uintptr_t>(this))) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

using Blobs = std::vector<std::vector<std::vector<uint8_t>>>;

Blobs capture_from(const std::string& trace_path,
                   const std::vector<core::CoreConfig>& configs,
                   const isa::Program& program,
                   const std::vector<uint64_t>& targets) {
  TraceReader reader(trace_path);
  return capture_warm_states_grid(configs, program, reader, targets);
}

/// Engine-source reference: one capture_warm_states pass per config.
Blobs solo_engine(const std::vector<core::CoreConfig>& configs,
                  const isa::Program& program,
                  const std::vector<uint64_t>& targets) {
  Blobs out;
  for (const core::CoreConfig& config : configs) {
    out.push_back(capture_warm_states(config, program, targets));
  }
  return out;
}

/// Trace-source reference: one warmer per config advanced on the trace.
Blobs solo_trace(const std::string& trace_path,
                 const std::vector<core::CoreConfig>& configs,
                 const isa::Program& program,
                 const std::vector<uint64_t>& targets) {
  Blobs out(configs.size());
  for (size_t c = 0; c < configs.size(); ++c) {
    TraceReader reader(trace_path);
    FunctionalWarmer warmer(configs[c], program);
    for (const uint64_t target : targets) {
      warmer.advance_on_trace(reader, target);
      out[c].push_back(warmer.serialize_state());
    }
  }
  return out;
}

/// Wall-clock telemetry is host-dependent by design; zero it so shard
/// results can be compared byte for byte (the trace_tool --scrub-wall
/// contract).
ShardResult scrub_wall(ShardResult r) {
  r.warm_wall_us = 0;
  for (auto& iv : r.intervals) iv.wall_us.clear();
  return r;
}

TEST(WarmingPipeline, BlobsBitIdenticalAcrossSourcesAndJobs) {
  const isa::Program program = cfir::testing::figure1_program(512);
  TempFile file("trace");
  TraceMeta meta;
  meta.workload = "figure1";
  const uint64_t total =
      record_interpreter(program, file.path(), meta, UINT64_MAX, 256)
          .executed;

  // Two shared warm geometries: every preset below but the last shares
  // one (with both stride-training policies, ci and vect, and three
  // without a stride predictor); the last differs only in its L2 size.
  core::CoreConfig small_l2 = sim::presets::ci(2, 512);
  small_l2.memory.l2.size_bytes /= 2;
  const std::vector<core::CoreConfig> configs = {
      sim::presets::scal(2, 256),      sim::presets::ci(2, 512),
      sim::presets::wb(2, 256),        sim::presets::vect(2, 512),
      sim::presets::ci_window(2, 256), small_l2};
  // Targets at 0 (cold snapshot before any record), back to back
  // duplicates, mid-block and exactly at end-of-trace.
  const std::vector<uint64_t> targets = {0,         1,         total / 3,
                                         total / 3, total / 2, total - 1,
                                         total};

  const Blobs engine = solo_engine(configs, program, targets);
  ASSERT_EQ(engine.size(), configs.size());
  for (const auto& per_config : engine) {
    ASSERT_EQ(per_config.size(), targets.size());
  }
  // Cold and warm snapshots must actually differ, or the whole matrix
  // below would pass vacuously on empty blobs.
  EXPECT_NE(engine[0][0], engine[0][4]);
  EXPECT_EQ(engine[0][2], engine[0][3]);  // duplicate target, same state

  // The small-L2 config's blobs must differ, or the second group would
  // pass vacuously.
  EXPECT_NE(engine[1][4], engine[5][4]);

  obs::Counter& trainers =
      obs::Registry::instance().counter("warming.trainers");
  const uint64_t trainers0 = trainers.value();
  EXPECT_EQ(engine, capture_warm_states_grid(configs, program, targets));
  EXPECT_EQ(trainers.value() - trainers0, 2u);
  EXPECT_EQ(engine, solo_trace(file.path(), configs, program, targets));
  EXPECT_EQ(engine, capture_from(file.path(), configs, program, targets));
  EXPECT_EQ(trainers.value() - trainers0, 4u);
}

TEST(WarmingPipeline, EngineHaltBeforeLastTargetMatchesSequential) {
  // The engine source snapshots targets past HALT at the final state
  // instead of throwing (a plan may legitimately overshoot), exactly like
  // a solo warmer's advance_to.
  const isa::Program program = cfir::testing::figure1_program(128);
  const std::vector<core::CoreConfig> configs = {sim::presets::ci(2, 256)};
  const std::vector<uint64_t> targets = {100, 1u << 20, 1u << 21};
  const Blobs reference = solo_engine(configs, program, targets);
  EXPECT_EQ(reference[0][1], reference[0][2]);  // both clamp to the halt
  EXPECT_EQ(reference, capture_warm_states_grid(configs, program, targets));
}

TEST(WarmingPipeline, TinyBlockStress) {
  // 4-record blocks: every wave spans dozens of block boundaries, and
  // batch boundaries land mid-target-run. The decoded stream (and
  // therefore every blob) must still match both references.
  const isa::Program program = cfir::testing::figure1_program(64);
  TempFile tiny("tiny");
  TraceMeta meta;
  meta.workload = "figure1";
  const isa::InterpResult r = record_interpreter(
      program, tiny.path(), meta, UINT64_MAX, /*block_len=*/4);
  const uint64_t total = r.executed;
  ASSERT_GT(total, uint64_t{16});
  {
    TraceReader reader(tiny.path());
    EXPECT_EQ(reader.block_len(), 4u);
    EXPECT_GE(reader.block_count(), total / 4);
  }

  const std::vector<core::CoreConfig> configs = {sim::presets::ci(2, 256),
                                                 sim::presets::scal(2, 256)};
  const std::vector<uint64_t> targets = {0, 3, 4, 5, 9, 9, total};
  const Blobs grid = capture_from(tiny.path(), configs, program, targets);
  EXPECT_EQ(grid, solo_trace(tiny.path(), configs, program, targets));
  EXPECT_EQ(grid, solo_engine(configs, program, targets));
}

TEST(WarmingPipeline, TruncatedTraceErrorNamesTargetAndInterval) {
  const isa::Program program = cfir::testing::figure1_program(512);
  TempFile cut("cut");
  TraceMeta meta;
  meta.workload = "figure1";
  record_interpreter(program, cut.path(), meta, /*max_insts=*/100);
  const std::vector<core::CoreConfig> configs = {sim::presets::ci(2, 256)};
  try {
    (void)capture_from(cut.path(), configs, program, {50, 150});
    FAIL() << "truncated trace accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("trace ends at 100 records"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("warm target 150"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(interval 1 of 2)"), std::string::npos) << msg;
  }
}

TEST(WarmingPipeline, AdvanceOnTraceErrorCarriesContext) {
  const isa::Program program = cfir::testing::figure1_program(512);
  TempFile cut("adv");
  TraceMeta meta;
  meta.workload = "figure1";
  record_interpreter(program, cut.path(), meta, /*max_insts=*/100);
  FunctionalWarmer warmer(sim::presets::ci(2, 256), program);
  TraceReader reader(cut.path());
  try {
    warmer.advance_on_trace(reader, 150, "interval 3 of 8");
    FAIL() << "truncated trace accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("trace ends at 100 records"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("warm target 150"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(interval 3 of 8)"), std::string::npos) << msg;
  }
}

TEST(WarmingPipeline, RunShardGridBitIdenticalAcrossWarmJobs) {
  const isa::Program program = cfir::testing::figure1_program(512);
  TempFile file("shard");
  TraceMeta meta;
  meta.workload = "figure1";
  record_interpreter(program, file.path(), meta);

  const IntervalPlan plan =
      plan_intervals(program, 4, 0, 0, WarmMode::kFunctional, 500);
  const std::vector<std::pair<std::string, core::CoreConfig>> points = {
      {"ci", sim::presets::ci(2, 256)}, {"scal", sim::presets::scal(2, 256)}};
  const std::vector<ConfigBinding> bound = bind_configs(plan, points, program);
  std::vector<ConfigBinding> deferred = bound;
  for (auto& b : deferred) b.warm.clear();

  // Warm state bound up front (one solo capture per geometry), captured at
  // execute time from the engine, or streamed from the recorded trace,
  // under one or two detail threads: byte-equal CFIRSHD2 payloads once
  // the wall telemetry is scrubbed.
  const auto reference =
      scrub_wall(run_shard(bound, program, plan, {0, 1}, 1)).serialize();
  for (const int threads : {1, 2}) {
    EXPECT_EQ(reference,
              scrub_wall(run_shard(deferred, program, plan, {0, 1}, threads))
                  .serialize())
        << "engine, threads=" << threads;
    EXPECT_EQ(reference,
              scrub_wall(run_shard(deferred, program, plan, {0, 1}, threads,
                                   0, file.path()))
                  .serialize())
        << "trace, threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// WarmingPipelineS8: the matrix at paper scale. Excluded from the
// sanitizer CI job (with SamplingAccuracy / TraceV2S8 — instrumented
// builds make million-record streams too slow), still exact everywhere.
// ---------------------------------------------------------------------------

TEST(WarmingPipelineS8, GridMatrixOnBzip2) {
  const isa::Program program = workloads::build("bzip2", 8);
  TempFile file("s8");
  TraceMeta meta;
  meta.workload = "bzip2";
  meta.scale = 8;
  const uint64_t total =
      record_interpreter(program, file.path(), meta, /*max_insts=*/200'000)
          .executed;
  ASSERT_GT(total, uint64_t{50'000});  // capped at 200k or ran to halt

  const std::vector<core::CoreConfig> configs = {
      sim::presets::scal(2, 256), sim::presets::wb(2, 512),
      sim::presets::ci(2, 512), sim::presets::vect(2, 512)};
  std::vector<uint64_t> targets;
  for (uint64_t i = 1; i <= 5; ++i) targets.push_back(total * i / 5);

  const Blobs grid = capture_from(file.path(), configs, program, targets);
  EXPECT_EQ(grid, solo_engine(configs, program, targets));
  EXPECT_EQ(grid, solo_trace(file.path(), configs, program, targets));

  // Sharded grid over the recorded trace: trace-fed warming must never
  // leak into the shard stats either.
  const IntervalPlan plan =
      plan_intervals(program, 3, total, 0, WarmMode::kFunctional, 2000);
  std::vector<ConfigBinding> bindings(2);
  bindings[0].config = configs[2];
  bindings[1].config = configs[0];
  for (auto& b : bindings) {
    b.name = b.config.label();
    b.config_hash = b.config.digest();
  }
  for (const uint32_t shard : {0u, 1u}) {
    const auto engine =
        scrub_wall(run_shard(bindings, program, plan, {shard, 2}, 2));
    const auto traced = scrub_wall(
        run_shard(bindings, program, plan, {shard, 2}, 2, 0, file.path()));
    EXPECT_EQ(engine.serialize(), traced.serialize()) << "shard " << shard;
  }
}

}  // namespace
}  // namespace cfir::trace
