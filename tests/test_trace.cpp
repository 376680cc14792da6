// Trace capture/replay and checkpointed interval sampling (src/trace/):
//  - write -> read roundtrip reproduces the live record stream exactly
//  - core-captured traces equal interpreter-captured traces
//  - checkpoint save/load and resume are bit-identical to an uninterrupted
//    run (register file + memory_digest)
//  - sampled-run aggregates match a monolithic run exactly on the
//    architectural counters and within tolerance on timing counters
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "trace/blob.hpp"
#include "trace/checkpoint.hpp"
#include "trace/errors.hpp"
#include "trace/sampling.hpp"
#include "workloads/workloads.hpp"

namespace cfir::trace {
namespace {

/// Unique temp path per test; removed on destruction.
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

std::vector<uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

std::vector<TraceRecord> capture_live(const isa::Program& program,
                                      uint64_t max_insts = UINT64_MAX) {
  // Reference stream straight from the interpreter observers, bypassing
  // the file format.
  std::vector<TraceRecord> live;
  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  isa::Interpreter interp(program, memory);
  TraceRecord pending;
  interp.on_branch = [&](uint64_t, bool taken, uint64_t target) {
    pending.kind = RecordKind::kBranch;
    pending.taken = taken;
    pending.next_pc = target;
  };
  interp.on_mem = [&](uint64_t, uint64_t addr, int bytes, bool is_store) {
    pending.kind = is_store ? RecordKind::kStore : RecordKind::kLoad;
    pending.addr = addr;
    pending.size = static_cast<uint8_t>(bytes);
  };
  interp.on_step = [&](uint64_t pc, uint64_t) {
    pending.pc = pc;
    live.push_back(pending);
    pending = TraceRecord{};
  };
  interp.run(max_insts);
  return live;
}

TEST(TraceFormat, RoundTripEqualsLiveStream) {
  const isa::Program program = cfir::testing::figure1_program(256, 50, 11);
  const std::vector<TraceRecord> live = capture_live(program);
  ASSERT_FALSE(live.empty());

  TempFile file("roundtrip");
  TraceMeta meta;
  meta.workload = "figure1";
  meta.scale = 1;
  const isa::InterpResult r =
      record_interpreter(program, file.path(), meta);
  EXPECT_EQ(r.executed, live.size());

  TraceReader reader(file.path());
  EXPECT_EQ(reader.meta().workload, "figure1");
  EXPECT_EQ(reader.meta().scale, 1u);
  EXPECT_EQ(reader.meta().base_pc, program.base());
  EXPECT_EQ(reader.record_count(), live.size());
  EXPECT_EQ(reader.final_digest(), r.mem_digest);
  EXPECT_EQ(reader.final_regs(), r.regs);

  TraceRecord rec;
  for (size_t i = 0; i < live.size(); ++i) {
    ASSERT_TRUE(reader.next(rec)) << "stream ended early at " << i;
    ASSERT_EQ(rec, live[i]) << "record " << i << " differs";
  }
  EXPECT_FALSE(reader.next(rec));
}

TEST(TraceFormat, CrcFooterRejectsBitFlips) {
  // Every finished trace carries per-block CRCs plus the whole-file CRC
  // footer; a single flipped payload byte must be rejected before the
  // corrupted records are handed out.
  const isa::Program program = cfir::testing::figure1_program(64, 50, 5);
  TempFile file("crcflip");
  TraceMeta meta;
  meta.workload = "figure1";
  (void)record_interpreter(program, file.path(), meta);
  const auto drain = [&] {
    TraceReader reader(file.path());
    TraceRecord rec;
    while (reader.next(rec)) {
    }
  };
  EXPECT_NO_THROW(drain());

  std::vector<uint8_t> bytes = file_bytes(file.path());
  bytes[bytes.size() / 2] ^= 0x40;  // mid-stream, away from the footer
  {
    std::ofstream out(file.path(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(drain(), CorruptFileError);
}

TEST(TraceFormat, RandomProgramsRoundTrip) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const isa::Program program = cfir::testing::random_program(seed);
    const std::vector<TraceRecord> live = capture_live(program);
    TempFile file("rand" + std::to_string(seed));
    TraceMeta meta;
    meta.workload = "random";
    record_interpreter(program, file.path(), meta);

    TraceReader reader(file.path());
    ASSERT_EQ(reader.record_count(), live.size()) << "seed " << seed;
    TraceRecord rec;
    for (size_t i = 0; i < live.size(); ++i) {
      ASSERT_TRUE(reader.next(rec));
      ASSERT_EQ(rec, live[i]) << "seed " << seed << " record " << i;
    }
  }
}

TEST(TraceFormat, CoreCaptureMatchesInterpreterCapture) {
  // The detailed core commits the same architectural stream the
  // interpreter retires, so both capture paths must produce identical
  // traces.
  const isa::Program program = workloads::build("bzip2", 1);
  constexpr uint64_t kCap = 15000;

  TempFile interp_file("interp");
  TraceMeta meta;
  meta.workload = "bzip2";
  record_interpreter(program, interp_file.path(), meta, kCap);

  TempFile core_file("core");
  meta.base_pc = program.base();
  TraceWriter writer(core_file.path(), meta);
  sim::Simulator sim(sim::presets::ci(2, 512), program);
  sim.attach_trace(writer);
  const stats::SimStats st = sim.run(kCap);
  std::array<uint64_t, isa::kNumLogicalRegs> regs{};
  for (int i = 0; i < isa::kNumLogicalRegs; ++i) {
    regs[static_cast<size_t>(i)] = sim.arch_reg(i);
  }
  writer.finish(regs, sim.memory_digest());
  ASSERT_EQ(writer.records(), st.committed);

  TraceReader a(interp_file.path());
  TraceReader b(core_file.path());
  ASSERT_EQ(a.record_count(), b.record_count());
  EXPECT_EQ(a.final_digest(), b.final_digest());
  EXPECT_EQ(a.final_regs(), b.final_regs());
  TraceRecord ra, rb;
  for (uint64_t i = 0; i < a.record_count(); ++i) {
    ASSERT_TRUE(a.next(ra));
    ASSERT_TRUE(b.next(rb));
    ASSERT_EQ(ra, rb) << "record " << i << " differs";
  }
}

TEST(TraceReplay, AllWorkloadsMatchDirectSimulatorRun) {
  // Acceptance check: record + replay reproduces the same final digest and
  // architectural registers as a direct Simulator::run, for all twelve
  // workloads.
  constexpr uint64_t kCap = 12000;
  for (const std::string& wl : workloads::names()) {
    const isa::Program program = workloads::build(wl, 1);
    TempFile file("replay_" + wl);
    TraceMeta meta;
    meta.workload = wl;
    record_interpreter(program, file.path(), meta, kCap);

    const ReplayResult r = replay_trace(program, file.path());
    ASSERT_TRUE(r.match) << wl << ": " << r.mismatch;

    sim::Simulator sim(sim::presets::ci(2, 512), program);
    const stats::SimStats st = sim.run(kCap);
    EXPECT_EQ(st.committed, r.replayed) << wl;
    EXPECT_EQ(sim.memory_digest(), r.final_state.mem_digest) << wl;
    for (int i = 0; i < isa::kNumLogicalRegs; ++i) {
      ASSERT_EQ(sim.arch_reg(i), r.final_state.regs[static_cast<size_t>(i)])
          << wl << " r" << i;
    }
  }
}

TEST(TraceReplay, DetectsDivergence) {
  const isa::Program p1 = cfir::testing::figure1_program(128, 50, 3);
  const isa::Program p2 = cfir::testing::figure1_program(128, 50, 4);
  TempFile file("diverge");
  TraceMeta meta;
  meta.workload = "figure1";
  record_interpreter(p1, file.path(), meta);
  // Replaying a different program against p1's trace must not match.
  const ReplayResult r = replay_trace(p2, file.path());
  EXPECT_FALSE(r.match);
  EXPECT_FALSE(r.mismatch.empty());
}

TEST(TraceFormat, FuzzRandomRecordStreamsRoundTrip) {
  // The varint/delta codec must reproduce *arbitrary* record streams, not
  // just streams the interpreter can emit: adversarial pc jumps (large
  // positive and negative deltas), address swings across the whole 64-bit
  // space, and every kind/size combination.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    std::mt19937_64 gen(seed);
    std::vector<TraceRecord> records;
    uint64_t pc = gen();
    for (int i = 0; i < 2000; ++i) {
      TraceRecord rec;
      rec.pc = pc;
      switch (gen() % 4) {
        case 0:
          rec.kind = RecordKind::kPlain;
          break;
        case 1:
          rec.kind = RecordKind::kBranch;
          rec.taken = (gen() & 1) != 0;
          rec.next_pc = gen();
          break;
        case 2:
        case 3:
          rec.kind = (gen() & 1) != 0 ? RecordKind::kLoad
                                      : RecordKind::kStore;
          rec.addr = gen();
          rec.size = static_cast<uint8_t>(uint64_t{1} << (gen() % 4));
          break;
      }
      records.push_back(rec);
      // Mostly sequential pcs with occasional wild jumps, like real code.
      pc = (gen() % 8 == 0) ? gen() : pc + isa::kInstBytes;
    }

    TempFile file("fuzz" + std::to_string(seed));
    TraceMeta meta;
    meta.workload = "fuzz";
    meta.base_pc = records.front().pc;
    // A deliberately odd, small block capacity so the stream spans
    // several blocks with ragged coder-base snapshots.
    TraceWriter writer(file.path(), meta, 257);
    for (const TraceRecord& rec : records) writer.append(rec);
    std::array<uint64_t, isa::kNumLogicalRegs> regs{};
    for (auto& r : regs) r = gen();
    const uint64_t digest = gen();
    writer.finish(regs, digest);

    TraceReader reader(file.path());
    ASSERT_EQ(reader.record_count(), records.size()) << "seed " << seed;
    EXPECT_EQ(reader.final_digest(), digest);
    EXPECT_EQ(reader.final_regs(), regs);
    TraceRecord rec;
    for (size_t i = 0; i < records.size(); ++i) {
      ASSERT_TRUE(reader.next(rec)) << "seed " << seed << " record " << i;
      ASSERT_EQ(rec, records[i]) << "seed " << seed << " record " << i;
    }
    EXPECT_FALSE(reader.next(rec));
  }
}

namespace {
Checkpoint random_checkpoint(uint64_t seed) {
  std::mt19937_64 gen(seed);
  Checkpoint ck;
  ck.pc = gen();
  ck.executed = gen();
  for (auto& r : ck.regs) r = gen();
  // A handful of sparse pages, some partially zero (the all-zero-page
  // dropping must be stable across round trips).
  for (int p = 0; p < 6; ++p) {
    const uint64_t base = (gen() % 1024) * mem::MainMemory::kPageSize;
    std::vector<uint8_t> page(mem::MainMemory::kPageSize, 0);
    const size_t fill = static_cast<size_t>(gen() % page.size());
    for (size_t b = 0; b < fill; ++b) page[b] = static_cast<uint8_t>(gen());
    ck.memory.write_block(base, page.data(), page.size());
  }
  return ck;
}
}  // namespace

TEST(Checkpoint, FuzzSerializeDeserializeReserializeStable) {
  // save -> load -> save must be byte-identical: shards exchanged between
  // machines must not mutate in flight.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Checkpoint ck = random_checkpoint(seed);
    TempFile first("ckfz_a" + std::to_string(seed));
    TempFile second("ckfz_b" + std::to_string(seed));
    ck.save(first.path());
    const Checkpoint loaded = Checkpoint::load(first.path());
    EXPECT_EQ(loaded.pc, ck.pc);
    EXPECT_EQ(loaded.executed, ck.executed);
    EXPECT_EQ(loaded.regs, ck.regs);
    EXPECT_EQ(loaded.memory.digest(), ck.memory.digest());
    loaded.save(second.path());
    EXPECT_EQ(file_bytes(first.path()), file_bytes(second.path()))
        << "seed " << seed;
  }
}

TEST(Checkpoint, SaveLoadRoundTrip) {
  const isa::Program program = workloads::build("gzip", 1);
  const Checkpoint ck = fast_forward(program, 5000);
  ASSERT_EQ(ck.executed, 5000u);

  TempFile file("ckpt");
  ck.save(file.path());
  const Checkpoint loaded = Checkpoint::load(file.path());
  EXPECT_EQ(loaded.pc, ck.pc);
  EXPECT_EQ(loaded.executed, ck.executed);
  EXPECT_EQ(loaded.regs, ck.regs);
  EXPECT_EQ(loaded.memory.digest(), ck.memory.digest());

  // A payload that runs on past its pages, under a valid CRC footer, is
  // not a checkpoint: like the manifest and shard decoders, load rejects
  // it instead of ignoring the tail.
  std::vector<uint8_t> payload = read_blob_file(file.path(), "Checkpoint");
  payload.resize(payload.size() + 8, 0xAB);
  write_blob_file(file.path(), payload);
  EXPECT_THROW((void)Checkpoint::load(file.path()), CorruptFileError);
}

TEST(Checkpoint, InterpreterResumeBitIdentical) {
  for (const char* wl : {"bzip2", "mcf", "parser"}) {
    const isa::Program program = workloads::build(wl, 1);
    const isa::InterpResult whole = isa::run_program(program);

    const Checkpoint ck = fast_forward(program, whole.executed / 2);
    mem::MainMemory memory = ck.memory.clone();
    isa::Interpreter interp(program, memory);
    interp.set_pc(ck.pc);
    for (int i = 0; i < isa::kNumLogicalRegs; ++i) {
      interp.set_reg(i, ck.regs[static_cast<size_t>(i)]);
    }
    interp.run();
    EXPECT_EQ(ck.executed + interp.executed(), whole.executed) << wl;
    EXPECT_EQ(interp.regs(), whole.regs) << wl;
    EXPECT_EQ(memory.digest(), whole.mem_digest) << wl;
  }
}

TEST(Checkpoint, CoreResumeBitIdentical) {
  // Detailed core resumed from a mid-run checkpoint must land on exactly
  // the architectural state of an uninterrupted run.
  for (const char* wl : {"bzip2", "twolf", "vpr"}) {
    const isa::Program program = workloads::build(wl, 1);
    const isa::InterpResult whole = isa::run_program(program);
    const core::CoreConfig config = sim::presets::ci(2, 512);

    const Checkpoint ck = fast_forward(program, whole.executed / 3);
    sim::Simulator resumed(config, program, ck);
    const stats::SimStats st = resumed.run(UINT64_MAX);
    EXPECT_EQ(ck.executed + st.committed, whole.executed) << wl;
    for (int i = 0; i < isa::kNumLogicalRegs; ++i) {
      ASSERT_EQ(resumed.arch_reg(i), whole.regs[static_cast<size_t>(i)])
          << wl << " r" << i;
    }
    EXPECT_EQ(resumed.memory_digest(), whole.mem_digest) << wl;
  }
}

TEST(Checkpoint, IntervalCheckpointsOnePassMatchesFastForward) {
  const isa::Program program = workloads::build("gap", 1);
  const std::vector<uint64_t> boundaries{0, 1000, 4000, 9000};
  const std::vector<Checkpoint> cks =
      interval_checkpoints(program, boundaries);
  ASSERT_EQ(cks.size(), boundaries.size());
  for (size_t i = 0; i < boundaries.size(); ++i) {
    const Checkpoint direct = fast_forward(program, boundaries[i]);
    EXPECT_EQ(cks[i].pc, direct.pc) << "boundary " << boundaries[i];
    EXPECT_EQ(cks[i].executed, direct.executed);
    EXPECT_EQ(cks[i].regs, direct.regs);
    EXPECT_EQ(cks[i].memory.digest(), direct.memory.digest());
  }
}

TEST(SampledRun, AggregateMatchesMonolithic) {
  // Architectural counters must match a monolithic run exactly (the
  // intervals partition the same committed stream); timing counters carry
  // per-interval cold-start effects, so IPC gets a tolerance.
  // Scale 4 keeps intervals long enough that per-interval cold-start cost
  // (empty predictors and caches) stays a bounded fraction of the interval.
  // Workloads whose monolithic run is dominated by a one-time training
  // phase (vortex) exceed any honest tolerance until detailed warm-up
  // windows exist (ROADMAP open item) and are excluded here.
  const core::CoreConfig config = sim::presets::ci(2, 512);
  for (const char* wl : {"bzip2", "eon", "gcc", "twolf"}) {
    const isa::Program program = workloads::build(wl, 4);
    sim::Simulator mono(config, program);
    const stats::SimStats whole = mono.run(UINT64_MAX);

    const SampledRun sampled =
        sampled_run(config, program, /*k=*/5, /*max_insts=*/0, /*threads=*/2);
    EXPECT_EQ(sampled.intervals.size(), 5u) << wl;
    EXPECT_EQ(sampled.total_insts, whole.committed) << wl;
    EXPECT_EQ(sampled.aggregate.committed, whole.committed) << wl;
    EXPECT_EQ(sampled.aggregate.committed_loads, whole.committed_loads) << wl;
    EXPECT_EQ(sampled.aggregate.committed_stores, whole.committed_stores)
        << wl;
    EXPECT_EQ(sampled.aggregate.committed_branches, whole.committed_branches)
        << wl;
    EXPECT_EQ(sampled.aggregate.cond_branches, whole.cond_branches) << wl;
    EXPECT_TRUE(sampled.aggregate.halted) << wl;
    ASSERT_GT(sampled.aggregate.ipc(), 0.0) << wl;
    const double rel =
        std::abs(sampled.aggregate.ipc() - whole.ipc()) / whole.ipc();
    EXPECT_LT(rel, 0.30) << wl << ": sampled IPC " << sampled.aggregate.ipc()
                         << " vs monolithic " << whole.ipc();
  }
}

TEST(SampledRun, CappedRunCoversExactlyTheCap) {
  const isa::Program program = workloads::build("crafty", 1);
  const core::CoreConfig config = sim::presets::scal(2, 256);
  const SampledRun sampled =
      sampled_run(config, program, /*k=*/4, /*max_insts=*/8000);
  EXPECT_EQ(sampled.total_insts, 8000u);
  EXPECT_EQ(sampled.aggregate.committed, 8000u);
  uint64_t covered = 0;
  for (const auto& interval : sampled.intervals) covered += interval.length;
  EXPECT_EQ(covered, 8000u);
}

TEST(SampledRun, ImmediateHaltProgramReportsHalted) {
  // A program that halts at instruction 0 has one empty interval; the
  // sampler must still retire HALT and report halted like a monolithic run.
  const isa::Program program = isa::assemble_text("halt");
  const core::CoreConfig config = sim::presets::scal(2, 256);
  const SampledRun sampled = sampled_run(config, program, /*k=*/4);
  EXPECT_EQ(sampled.total_insts, 0u);
  EXPECT_EQ(sampled.aggregate.committed, 0u);
  EXPECT_TRUE(sampled.aggregate.halted);
}

TEST(SampledRun, ZeroWarmupCapturesCheckpointsAtBoundaries) {
  const isa::Program program = workloads::build("gzip", 1);
  const IntervalPlan plan =
      plan_intervals(program, /*k=*/4, /*max_insts=*/0, /*warmup=*/0);
  ASSERT_EQ(plan.checkpoints.size(), plan.boundaries.size());
  for (size_t i = 0; i < plan.boundaries.size(); ++i) {
    EXPECT_EQ(plan.checkpoints[i].executed, plan.boundaries[i]) << i;
  }
  const SampledRun run =
      sampled_run(sim::presets::scal(2, 256), program, plan);
  for (const auto& interval : run.intervals) {
    EXPECT_EQ(interval.warmup, 0u);
  }
}

TEST(SampledRun, OversizedWarmupClampsToRunStart) {
  // A warm-up longer than the distance to the run start (and longer than
  // the spacing between intervals) must clamp to instruction 0, not
  // underflow — every interval's effective warm-up is exactly its prefix.
  const isa::Program program = workloads::build("gzip", 1);
  const uint64_t huge = 1 << 30;
  const IntervalPlan plan =
      plan_intervals(program, /*k=*/3, /*max_insts=*/0, /*warmup=*/huge);
  ASSERT_EQ(plan.checkpoints.size(), 3u);
  for (size_t i = 0; i < plan.checkpoints.size(); ++i) {
    EXPECT_EQ(plan.checkpoints[i].executed, 0u) << i;
  }
  const core::CoreConfig config = sim::presets::scal(2, 256);
  const SampledRun run = sampled_run(config, program, plan);
  for (size_t i = 0; i < run.intervals.size(); ++i) {
    EXPECT_EQ(run.intervals[i].warmup, plan.boundaries[i]) << i;
  }
  // Warm-up re-executes each prefix but is subtracted back out, so the
  // union still commits exactly the monolithic stream.
  sim::Simulator mono(config, program);
  const stats::SimStats mono_stats = mono.run(UINT64_MAX);
  EXPECT_EQ(run.aggregate.committed, mono_stats.committed);
  EXPECT_EQ(run.aggregate.committed_stores, mono_stats.committed_stores);
}

TEST(SampledRun, WarmupLongerThanIntervalSpacingOverlapsSafely) {
  // k=6 on a short run: the spacing between boundaries is far smaller than
  // the warm-up, so every warm-up window overlaps several earlier
  // intervals. The re-execution is redundant but must stay correct.
  const isa::Program program = workloads::build("crafty", 1);
  const core::CoreConfig config = sim::presets::scal(2, 256);
  const IntervalPlan plan =
      plan_intervals(program, /*k=*/6, /*max_insts=*/6000, /*warmup=*/5000);
  const SampledRun run = sampled_run(config, program, plan);
  EXPECT_EQ(run.aggregate.committed, 6000u);
  for (size_t i = 0; i < run.intervals.size(); ++i) {
    EXPECT_LE(run.intervals[i].warmup, plan.boundaries[i]) << i;
  }
  // Cost accounting includes the overlapping warm-ups.
  EXPECT_GT(run.detailed_insts, run.aggregate.committed);
}

TEST(SampledRun, NoneWarmModeIgnoresWarmupKnob) {
  const isa::Program program = workloads::build("gzip", 1);
  const IntervalPlan plan = plan_intervals(
      program, /*k=*/4, /*max_insts=*/0, /*warmup=*/12345, WarmMode::kNone);
  for (size_t i = 0; i < plan.boundaries.size(); ++i) {
    EXPECT_EQ(plan.checkpoints[i].executed, plan.boundaries[i]) << i;
  }
  const SampledRun run =
      sampled_run(sim::presets::scal(2, 256), program, plan);
  EXPECT_EQ(run.warmed_insts, 0u);
  for (const auto& interval : run.intervals) {
    EXPECT_EQ(interval.warmup, 0u);
  }
}

TEST(SampledRun, DetailCapScalesWeightsAndCutsCost) {
  const isa::Program program = workloads::build("bzip2", 2);
  const core::CoreConfig config = sim::presets::scal(2, 256);
  const IntervalPlan full_plan = plan_intervals(program, 4);
  const IntervalPlan capped_plan =
      plan_intervals(program, 4, 0, 0, WarmMode::kFunctional,
                     /*detail_len=*/1500);
  ASSERT_EQ(capped_plan.lengths.size(), full_plan.lengths.size());
  for (size_t i = 0; i < capped_plan.lengths.size(); ++i) {
    EXPECT_LE(capped_plan.lengths[i], 1500u);
    // weight * measured == original interval population (extrapolation).
    EXPECT_NEAR(capped_plan.weights[i] *
                    static_cast<double>(capped_plan.lengths[i]),
                static_cast<double>(full_plan.lengths[i]),
                1e-6 * static_cast<double>(full_plan.lengths[i]));
  }
  const SampledRun run = sampled_run(config, program, capped_plan);
  EXPECT_LE(run.detailed_insts, 4 * 1500u);
  EXPECT_GT(run.warmed_insts, 0u);
  // The extrapolated committed-instruction estimate lands near the truth.
  const double est = static_cast<double>(run.aggregate.committed);
  const double truth = static_cast<double>(capped_plan.total_insts);
  EXPECT_NEAR(est, truth, 0.01 * truth);
}

TEST(SampledRun, RunAllIntervalsFieldAggregates) {
  // RunSpec::intervals routes a sweep grid point through the sampler.
  sim::RunSpec mono;
  mono.workload = "twolf";
  mono.config_name = "mono";
  mono.config = sim::presets::ci(2, 512);
  mono.max_insts = 10000;
  sim::RunSpec sampled = mono;
  sampled.config_name = "sampled";
  sampled.intervals = 4;
  const auto out = sim::run_all({mono, sampled}, 2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].stats.committed, out[1].stats.committed);
  EXPECT_EQ(out[0].stats.committed_stores, out[1].stats.committed_stores);
}

}  // namespace
}  // namespace cfir::trace
