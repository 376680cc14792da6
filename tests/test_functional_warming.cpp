// Warming-equivalence differential tests (ISSUE 3 tentpole): functionally
// warming over a committed prefix must leave each Warmable component in
// bit-identical state (compared via debug_digest()) to what a detailed run
// of the same prefix leaves behind.
//
// Why this can be exact per component:
//  - gshare / MBS train only at commit, and misprediction recovery repairs
//    the speculative global history before the correct path refetches, so
//    the detailed run's final predictor state is a pure function of the
//    committed branch stream.
//  - the RAS is snapshot-restored on every recovery, so its final state is
//    the committed CALL/RET push/pop sequence.
//  - the stride predictor trains only at commit; under the vect policy the
//    S flags are also set by a commit-time rule (ci/mechanism.cpp), so the
//    full table (flags included) is commit-derivable.
//  - caches: Cache::debug_digest compares contents (resident tags + dirty
//    bits), which for a branch-free run without replacement pressure are
//    the same line set regardless of the detailed core's issue-order
//    interleaving. Programs with wrong-path fetch perturb cache contents,
//    so the cache equivalence program is straight-line by construction.
#include "trace/warming.hpp"

#include <cstring>

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "isa/assembler.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "trace/errors.hpp"
#include "trace/sampling.hpp"
#include "trace/shard.hpp"
#include "util/warmable.hpp"
#include "workloads/workloads.hpp"

namespace cfir::trace {
namespace {

// Runs the detailed core over the whole program (to HALT, so all in-flight
// speculation is resolved and drained) and a functional warmer over the
// same committed stream.
struct WarmPair {
  sim::Simulator sim;
  FunctionalWarmer warmer;
  WarmPair(const core::CoreConfig& config, const isa::Program& program)
      : sim(config, program), warmer(config, program) {
    sim.run(UINT64_MAX);
    cfir::testing::warm_on_engine(warmer, program, UINT64_MAX);
  }
};

TEST(FunctionalWarming, GshareMatchesDetailedRun) {
  for (const char* wl : {"bzip2", "parser", "twolf"}) {
    const isa::Program program = workloads::build(wl, 1);
    WarmPair p(sim::presets::scal(2, 256), program);
    EXPECT_EQ(p.warmer.gshare().debug_digest(),
              p.sim.core().gshare().debug_digest())
        << wl;
  }
}

TEST(FunctionalWarming, MbsMatchesDetailedRun) {
  for (const char* wl : {"bzip2", "parser", "twolf"}) {
    const isa::Program program = workloads::build(wl, 1);
    WarmPair p(sim::presets::scal(2, 256), program);
    EXPECT_EQ(p.warmer.mbs().debug_digest(), p.sim.core().mbs().debug_digest())
        << wl;
  }
}

TEST(FunctionalWarming, RasMatchesDetailedRun) {
  // A call-heavy program whose recursion leaves a non-trivial final stack:
  // recurse(n) { if (n) recurse(n-1); } called from a loop, interleaved
  // with leaf calls, halting mid-call-chain would not drain — instead halt
  // after the loop so the RAS holds whatever stale depth the sequence
  // produced on both sides.
  isa::Assembler as;
  const int rN = 1, rC = 2, rZ = 3;
  as.movi(rC, 6);
  as.movi(rZ, 0);
  as.label("loop");
  as.movi(rN, 4);
  as.call("recurse");
  as.call("leaf");
  as.addi(rC, rC, -1);
  as.bne(rC, rZ, "loop");
  as.halt();
  as.label("recurse");
  as.beq(rN, rZ, "base");
  as.addi(rN, rN, -1);
  // Non-tail recursion clobbers r63, so stash the link in a stack slot
  // keyed by depth to keep returns architecturally correct.
  as.shli(4, rN, 3);
  as.st(63, 4, 0x8000, 8);
  as.call("recurse");
  as.shli(4, rN, 3);
  as.ld(63, 4, 0x8000, 8);
  as.addi(rN, rN, 1);
  as.label("base");
  as.ret();
  as.label("leaf");
  as.ret();
  const isa::Program program = as.assemble();

  for (const char* preset : {"scal", "ci"}) {
    const core::CoreConfig config = preset == std::string("ci")
                                        ? sim::presets::ci(2, 512)
                                        : sim::presets::scal(2, 256);
    WarmPair p(config, program);
    EXPECT_GT(p.warmer.warmed(), 0u);
    EXPECT_EQ(p.warmer.ras().debug_digest(), p.sim.core().ras().debug_digest())
        << preset;
  }
}

TEST(FunctionalWarming, StridePredictorMatchesDetailedVectRun) {
  // vect policy: commit-time training *and* commit-time selection, so the
  // entire stride table — S flags and origin PCs included — must match.
  for (const char* wl : {"bzip2", "gzip", "mcf"}) {
    const isa::Program program = workloads::build(wl, 1);
    WarmPair p(sim::presets::vect(2, 512), program);
    ASSERT_NE(p.sim.ci_mechanism(), nullptr);
    EXPECT_EQ(p.warmer.stride_predictor().debug_digest(),
              p.sim.ci_mechanism()->stride_predictor().debug_digest())
        << wl;
  }
}

TEST(FunctionalWarming, StridePredictorContentMatchesUnderCiPolicy) {
  // Under the ci policy the S flags are episode-driven (speculative) and
  // stay cold in the warmer; everything the *training* path writes — tags,
  // addresses, strides, confidence, LRU — is still commit-derived. Compare
  // via lookup() of every committed load PC rather than the full digest.
  const isa::Program program = workloads::build("bzip2", 1);
  WarmPair p(sim::presets::ci(2, 512), program);
  ASSERT_NE(p.sim.ci_mechanism(), nullptr);
  const ci::StridePredictor& detailed =
      p.sim.ci_mechanism()->stride_predictor();
  const ci::StridePredictor& warmed = p.warmer.stride_predictor();
  // Collect load PCs from the reference stream.
  const isa::Program probe = workloads::build("bzip2", 1);
  std::vector<uint64_t> load_pcs;
  {
    mem::MainMemory mem;
    isa::load_data_image(probe, mem);
    isa::Interpreter interp(probe, mem);
    interp.on_mem = [&](uint64_t pc, uint64_t, int, bool is_store) {
      if (!is_store) load_pcs.push_back(pc);
    };
    interp.run();
  }
  ASSERT_FALSE(load_pcs.empty());
  size_t compared = 0;
  for (const uint64_t pc : load_pcs) {
    const auto d = detailed.lookup(pc);
    const auto w = warmed.lookup(pc);
    ASSERT_EQ(d.known, w.known) << std::hex << pc;
    if (!d.known) continue;
    EXPECT_EQ(d.confident, w.confident) << std::hex << pc;
    EXPECT_EQ(d.stride, w.stride) << std::hex << pc;
    EXPECT_EQ(d.last_addr, w.last_addr) << std::hex << pc;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

/// Branch-free program with strided loads and disjoint stores: no wrong
/// path, no LSQ forwarding, no replacement pressure in any level.
isa::Program straight_line_memory_program() {
  isa::Assembler as;
  const uint64_t buf = as.reserve("buf", 64 * 1024);
  for (uint64_t i = 0; i < 32; ++i) as.init_word(buf + 8 * i, i * 3 + 1);
  as.movi(1, static_cast<int64_t>(buf));
  as.movi(2, 7);
  for (int i = 0; i < 96; ++i) as.ld(3, 1, i * 96, 8);
  for (int i = 0; i < 32; ++i) as.st(2, 1, 32000 + i * 96, 8);
  for (int i = 0; i < 16; ++i) as.ld(3, 1, 24000 + i * 32, 4);
  // Keep HALT on the same I-line as real code: the warmer never sees HALT
  // (it is not a committed record), so it must not open a line by itself.
  if ((as.here() % 64) == 0) as.addi(4, 4, 0);
  as.halt();
  return as.assemble();
}

TEST(FunctionalWarming, CacheHierarchyMatchesDetailedStraightLineRun) {
  const isa::Program program = straight_line_memory_program();
  WarmPair p(sim::presets::scal(2, 256), program);
  const mem::CacheHierarchy& d = p.sim.core().hierarchy();
  const mem::CacheHierarchy& w = p.warmer.hierarchy();
  EXPECT_EQ(w.l1i().debug_digest(), d.l1i().debug_digest());
  EXPECT_EQ(w.l1d().debug_digest(), d.l1d().debug_digest());
  EXPECT_EQ(w.l2().debug_digest(), d.l2().debug_digest());
  EXPECT_EQ(w.l3().debug_digest(), d.l3().debug_digest());
  EXPECT_EQ(w.debug_digest(), d.debug_digest());
  // The warm accesses must not have polluted any stats counter.
  EXPECT_EQ(w.l1d().stats().accesses, 0u);
  EXPECT_EQ(w.l2().stats().accesses, 0u);
}

TEST(FunctionalWarming, WarmAccessMatchesTimedAccessStateTransitions) {
  // Unit-level: the same access sequence through warm_access and access()
  // must land on the same contents, including dirty bits and evictions.
  mem::CacheConfig cfg;
  cfg.name = "t";
  cfg.size_bytes = 1024;  // 8 sets x 2 ways x 64B
  cfg.assoc = 2;
  cfg.line_bytes = 64;
  mem::Cache timed(cfg);
  mem::Cache warm(cfg);
  std::mt19937_64 gen(7);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t addr = (gen() % 64) * 64 + gen() % 64;
    const bool is_write = (gen() & 3) == 0;
    timed.access(addr, is_write, static_cast<uint64_t>(i), 10);
    warm.warm_access(addr, is_write);
    ASSERT_EQ(warm.debug_digest(), timed.debug_digest()) << "access " << i;
    ASSERT_EQ(warm.probe(addr), timed.probe(addr));
  }
  EXPECT_GT(timed.stats().accesses, 0u);
  EXPECT_EQ(warm.stats().accesses, 0u);
}

TEST(FunctionalWarming, SerializeRoundTripIsByteStableAndStateExact) {
  const isa::Program program = workloads::build("twolf", 1);
  const core::CoreConfig config = sim::presets::ci(2, 512);
  FunctionalWarmer a(config, program);
  cfir::testing::warm_on_engine(a, program, 20000);
  const std::vector<uint8_t> blob = a.serialize_state();

  FunctionalWarmer b(config, program);
  b.deserialize_state(blob);
  EXPECT_EQ(b.warmed(), a.warmed());
  EXPECT_EQ(b.gshare().debug_digest(), a.gshare().debug_digest());
  EXPECT_EQ(b.mbs().debug_digest(), a.mbs().debug_digest());
  EXPECT_EQ(b.ras().debug_digest(), a.ras().debug_digest());
  EXPECT_EQ(b.stride_predictor().debug_digest(),
            a.stride_predictor().debug_digest());
  EXPECT_EQ(b.hierarchy().debug_digest(), a.hierarchy().debug_digest());
  // serialize(deserialize(blob)) == blob: the checkpoint-attached format is
  // stable under round-trips.
  EXPECT_EQ(b.serialize_state(), blob);
}

TEST(FunctionalWarming, DeserializeRejectsMismatchedGeometry) {
  const isa::Program program = workloads::build("gzip", 1);
  FunctionalWarmer big(sim::presets::ci(2, 512), program);
  cfir::testing::warm_on_engine(big, program, 1000);
  core::CoreConfig small_cfg = sim::presets::ci(2, 512);
  small_cfg.gshare_entries = 1024;
  FunctionalWarmer small(small_cfg, program);
  EXPECT_THROW(small.deserialize_state(big.serialize_state()),
               ConfigMismatchError);
  // Policy family must match too (stride tables only exist under ci/vect).
  FunctionalWarmer scal_warmer(sim::presets::scal(2, 256), program);
  EXPECT_THROW(scal_warmer.deserialize_state(big.serialize_state()),
               ConfigMismatchError);
  // Truncated blob fails loudly.
  std::vector<uint8_t> blob = big.serialize_state();
  blob.resize(blob.size() / 2);
  FunctionalWarmer other(sim::presets::ci(2, 512), program);
  EXPECT_THROW(other.deserialize_state(blob), CorruptFileError);
}

TEST(FunctionalWarming, CaptureWarmStatesMatchesIndividualWarmers) {
  const isa::Program program = workloads::build("bzip2", 1);
  const core::CoreConfig config = sim::presets::ci(2, 512);
  const std::vector<uint64_t> targets{0, 3000, 3000, 9000};
  const auto blobs = capture_warm_states(config, program, targets);
  ASSERT_EQ(blobs.size(), targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    FunctionalWarmer w(config, program);
    cfir::testing::warm_on_engine(w, program, targets[i]);
    EXPECT_EQ(blobs[i], w.serialize_state()) << "target " << targets[i];
  }
  EXPECT_THROW(capture_warm_states(config, program, {100, 50}),
               std::runtime_error);
}

// --- sharded == solo at s8 -----------------------------------------------

/// Everything simulated in a SampledRun, byte-packed — deliberately
/// excluding the wall_us/warm_wall_us host telemetry, which is
/// nondeterministic and documented as never part of the simulated result.
std::vector<uint8_t> run_signature(const SampledRun& r) {
  util::ByteWriter out;
  out.u64(r.total_insts);
  out.u64(r.detailed_insts);
  out.u64(r.warmed_insts);
  stats::serialize(r.aggregate, out);
  out.u64(r.intervals.size());
  for (const SampledRun::Interval& iv : r.intervals) {
    out.u64(iv.start_inst);
    out.u64(iv.length);
    out.u64(iv.warmup);
    uint64_t weight_bits = 0;
    std::memcpy(&weight_bits, &iv.weight, sizeof(weight_bits));
    out.u64(weight_bits);
    stats::serialize(iv.stats, out);
  }
  return out.take();
}

// The bzip2/parser/twolf s8 sampled-run rows (the accuracy-matrix
// workloads): a 2-shard CFIRSHD2 round-trip + merge of a cluster plan with
// functional warming must be bit-identical to the solo sampled_run.
// Excluded from the sanitizer job like the accuracy matrix (runtime, not
// memory-safety, coverage).
TEST(SamplingS8Matrix, ShardedMergeMatchesSoloRun) {
  for (const char* wl : {"bzip2", "parser", "twolf"}) {
    const isa::Program program = workloads::build(wl, 8);
    const core::CoreConfig config = sim::presets::ci(2, 512);
    ClusterPlanOptions opts;
    opts.n_intervals = 16;
    opts.max_k = 2;
    opts.warm_mode = WarmMode::kFunctional;
    opts.detail_len = 2000;

    const IntervalPlan plan = plan_cluster_intervals(program, opts);
    const std::vector<uint8_t> solo =
        run_signature(sampled_run(config, program, plan, /*threads=*/2));
    std::vector<ShardResult> shards;
    for (uint32_t i = 0; i < 2; ++i) {
      const ShardResult r = run_shard(config, program, plan,
                                      ShardSelection{i, 2}, /*threads=*/2);
      // Round-trip through the CFIRSHD2 payload codec so the merged output
      // is what a multi-machine merge would actually consume.
      shards.push_back(ShardResult::deserialize(r.serialize()));
    }
    EXPECT_EQ(solo, run_signature(merge_shard_results(shards))) << wl;
  }
}

}  // namespace
}  // namespace cfir::trace
