// Bit-identity wall for the pipelined warm capture (docs/sampling.md
// "Pipelined warming"): capture_warm_states_grid must produce the
// byte-identical warm blobs of two independent per-config references — a
// solo FunctionalWarmer fed one engine record at a time
// (testing::warm_on_engine) and one advanced on a recorded trace
// (FunctionalWarmer::advance_on_trace) — because each shared trainer
// always sees the identical record stream in order on a single thread.
// Also locked here:
//
//  - a grid of two shared warm geometries, one holding both stride
//    policies (ci, vect) and three configs without a stride predictor;
//  - targets at 0, duplicated, mid-block and at end-of-trace, and
//    targets past HALT;
//  - a 4-record tiny-block trace (the trace reference crosses a block
//    boundary every few records);
//  - run_shard grids byte-equal under one, two or four detail threads,
//    with and without two stride lanes, after scrubbing the
//    (intentionally nondeterministic) wall-clock telemetry, and unchanged
//    by a path handed to run_shard's unread trace parameter;
//  - a ci + vect + scal grid captured at targets 0, in the first round,
//    duplicated, rounds apart, at the end of the stream and past HALT
//    matches the solo engine blob for blob;
//  - a truncated trace names the offending warm target and interval in
//    FunctionalWarmer::advance_on_trace;
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

/// Engine-source reference: one warmer per config fed record by record.
Blobs solo_engine(const std::vector<core::CoreConfig>& configs,
                  const isa::Program& program,
                  const std::vector<uint64_t>& targets) {
  Blobs out(configs.size());
  for (size_t c = 0; c < configs.size(); ++c) {
    FunctionalWarmer warmer(configs[c], program);
    for (const uint64_t target : targets) {
      cfir::testing::warm_on_engine(warmer, program, target);
      out[c].push_back(warmer.serialize_state());
    }
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
}

TEST(WarmingPipeline, EngineHaltBeforeLastTargetMatchesSequential) {
  // The grid snapshots targets past HALT at the final state instead of
  // throwing (a plan may legitimately overshoot), exactly like a solo
  // warmer fed by the engine.
  const isa::Program program = cfir::testing::figure1_program(128);
  const std::vector<core::CoreConfig> configs = {sim::presets::ci(2, 256)};
  const std::vector<uint64_t> targets = {100, 1u << 20, 1u << 21};
  const Blobs reference = solo_engine(configs, program, targets);
  EXPECT_EQ(reference[0][1], reference[0][2]);  // both clamp to the halt
  EXPECT_EQ(reference, capture_warm_states_grid(configs, program, targets));
}

TEST(WarmingPipeline, TinyBlockStress) {
  // 4-record blocks: the trace reference seeks into and crosses a block
  // boundary every few records, mid-target-run. Its stream (and therefore
  // every blob) must still match the engine grid's.
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
  const Blobs grid = capture_warm_states_grid(configs, program, targets);
  EXPECT_EQ(grid, solo_trace(tiny.path(), configs, program, targets));
  EXPECT_EQ(grid, solo_engine(configs, program, targets));
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
  const IntervalPlan plan =
      plan_intervals(program, 4, 0, 0, WarmMode::kFunctional, 500);
  // ci + scal, and ci + vect, whose group runs two stride lanes beside
  // the hierarchy and predictor lanes.
  for (const auto& grid :
       {cfir::testing::bindings_of({{"ci", sim::presets::ci(2, 256)},
                                    {"scal", sim::presets::scal(2, 256)}}),
        cfir::testing::bindings_of({{"ci", sim::presets::ci(2, 256)},
                                    {"vect", sim::presets::vect(2, 512)}})}) {
    // One, two or four detail threads: byte-equal CFIRSHD2 payloads once
    // the wall telemetry is scrubbed, whichever thread ran which unit.
    const std::vector<uint8_t> one =
        scrub_wall(run_shard(grid, program, plan, {0, 1}, 1)).serialize();
    for (const int threads : {2, 4}) {
      EXPECT_EQ(one, scrub_wall(run_shard(grid, program, plan, {0, 1},
                                          threads))
                         .serialize())
          << grid[1].name << " threads=" << threads;
    }
  }
}

TEST(WarmingPipeline, GridCaptureMatchesSoloAtEdgeTargets) {
  // The laned capture snapshots each target when its lanes reach it, in
  // whichever round that falls: every blob must equal a solo engine's.
  const isa::Program program = workloads::build("bzip2", 1);
  const std::vector<core::CoreConfig> configs = {
      sim::presets::ci(2, 256), sim::presets::vect(2, 512),
      sim::presets::scal(2, 256)};
  const uint64_t total = isa::run_program(program, UINT64_MAX).executed;
  ASSERT_GT(total, uint64_t{4 * 16 * 1024});  // the stream spans rounds
  // Targets at 0, two in the first round, a duplicate, rounds apart, at
  // the end of the stream and past HALT.
  const std::vector<uint64_t> targets = {0,         5,         total / 3,
                                         total / 3, total / 2, total - 1,
                                         total,     total + 7};
  EXPECT_EQ(capture_warm_states_grid(configs, program, targets),
            solo_engine(configs, program, targets));
}

TEST(WarmingPipeline, RunShardIgnoresItsTracePath) {
  // run_shard's last parameter is kept for callers that still pass a
  // recorded trace's path; its warm capture always streams the engine, so
  // even a path that names no file leaves every byte as with none.
  const isa::Program program = cfir::testing::figure1_program(512);
  const IntervalPlan plan =
      plan_intervals(program, 4, 0, 0, WarmMode::kFunctional, 500);
  const std::vector<ConfigBinding> bindings = cfir::testing::bindings_of(
      {{"ci", sim::presets::ci(2, 256)}, {"vect", sim::presets::vect(2, 512)}});
  const TempFile missing("missing");
  for (const uint32_t shard : {0u, 1u}) {
    EXPECT_EQ(
        scrub_wall(run_shard(bindings, program, plan, {shard, 2}, 2))
            .serialize(),
        scrub_wall(run_shard(bindings, program, plan, {shard, 2}, 2, 0,
                             missing.path()))
            .serialize())
        << "shard " << shard;
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

  const Blobs grid = capture_warm_states_grid(configs, program, targets);
  EXPECT_EQ(grid, solo_engine(configs, program, targets));
  EXPECT_EQ(grid, solo_trace(file.path(), configs, program, targets));
}

}  // namespace
}  // namespace cfir::trace
