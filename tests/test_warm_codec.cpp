// The sparse WRM2 warm-state blob (docs/trace-format.md "Warm-state blob")
// and the direct-install path run_shard uses:
//  - serialize -> deserialize -> serialize is the identity and restores
//    every component exactly, for random commit streams over small tables
//    of every policy family (sets fill, evict and recycle);
//  - install_warm_state leaves a Simulator in the same state as
//    FunctionalWarmer::deserialize_state + apply_to, and it then simulates
//    byte-identical stats;
//  - installed over a unit that already ran (live cache sets, dirty
//    lines, fills in flight), it leaves the hierarchy as an install into
//    a fresh unit does: same bytes, digest and next access latencies;
//  - malformed blobs fail with their typed error (trace/errors.hpp);
//  - a whole-run blob of a paper-sized config stays small.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "isa/assembler.hpp"
#include "obs/metrics.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "stats/stats.hpp"
#include "trace/checkpoint.hpp"
#include "trace/errors.hpp"
#include "trace/warming.hpp"
#include "util/warmable.hpp"
#include "workloads/workloads.hpp"

namespace cfir::trace {
namespace {

/// Tables small enough that a few thousand random records fill, evict and
/// recycle every set of every component.
core::CoreConfig small_geometry(core::CoreConfig c) {
  c.gshare_entries = 64;
  c.gshare_history_bits = 6;
  c.mbs_sets = 4;
  c.mbs_ways = 2;
  c.stride_sets = 4;
  c.stride_ways = 2;
  c.memory.l1i = {"L1I", 512, 2, 64, 1};
  c.memory.l1d = {"L1D", 512, 2, 32, 1};
  c.memory.l2 = {"L2", 2048, 4, 32, 6};
  c.memory.l3 = {"L3", 4096, 4, 64, 18};
  return c;
}

/// A program whose CALL and RET slots give the random stream's plain
/// records something to push onto and pop off the RAS.
isa::Program call_ret_program() {
  isa::Assembler as;
  as.call("f");
  as.call("f");
  as.halt();
  as.label("f");
  as.ret();
  return as.assemble();
}

/// Random committed records: branches over 64 PCs, loads over 10 PCs that
/// mostly walk their own stride (some stride sets hold more PCs than ways,
/// so entries both settle into confident strides and get evicted), stores
/// anywhere in 64 KiB, and plain records on the program's CALL/RET slots.
class RecordStream {
 public:
  RecordStream(uint64_t seed, const isa::Program& program) : gen_(seed) {
    for (size_t i = 0; i < program.size(); ++i) {
      const isa::Opcode op = program.code()[i].op;
      if (op == isa::Opcode::kCall || op == isa::Opcode::kRet) {
        call_ret_pcs_.push_back(program.pc_of(i));
      }
    }
    for (size_t p = 0; p < next_addr_.size(); ++p) {
      next_addr_[p] = 0x10000 + 0x1000 * p;
    }
  }

  TraceRecord next() {
    TraceRecord r;
    switch (gen_() % 4) {
      case 0:
        r.kind = RecordKind::kBranch;
        r.pc = 0x2000 + 4 * (gen_() % 64);
        r.taken = (gen_() & 1) != 0;
        break;
      case 1: {
        r.kind = RecordKind::kLoad;
        const size_t p = gen_() % next_addr_.size();
        r.pc = 0x3000 + 4 * p;
        r.addr = gen_() % 8 == 0 ? gen_() % 0x10000 : next_addr_[p];
        next_addr_[p] += 8 * (p + 1);
        r.size = 8;
        break;
      }
      case 2:
        r.kind = RecordKind::kStore;
        r.pc = 0x4000 + 4 * (gen_() % 16);
        r.addr = gen_() % 0x10000;
        r.size = 8;
        break;
      default:
        r.kind = RecordKind::kPlain;
        r.pc = call_ret_pcs_[gen_() % call_ret_pcs_.size()];
        break;
    }
    return r;
  }

 private:
  std::mt19937_64 gen_;
  std::vector<uint64_t> call_ret_pcs_;
  std::array<uint64_t, 10> next_addr_{};
};

/// Content digests of every component a warm blob carries.
std::vector<uint64_t> warmer_digests(const FunctionalWarmer& w) {
  const mem::CacheHierarchy& h = w.hierarchy();
  return {w.gshare().debug_digest(),
          w.mbs().debug_digest(),
          w.ras().debug_digest(),
          w.stride_predictor().debug_digest(),
          h.l1i().debug_digest(),
          h.l1d().debug_digest(),
          h.l2().debug_digest(),
          h.l3().debug_digest()};
}

TEST(WarmCodec, RandomStreamsRoundTripExactlyForEveryPolicyFamily) {
  const isa::Program program = call_ret_program();
  const core::CoreConfig families[] = {
      sim::presets::scal(2, 256), sim::presets::ci(2, 256),
      sim::presets::ci_window(2, 256), sim::presets::vect(2, 256)};
  constexpr size_t kRecords = 4000;
  for (const core::CoreConfig& family : families) {
    const core::CoreConfig config = small_geometry(family);
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      RecordStream stream(seed, program);
      std::vector<TraceRecord> records;
      for (size_t i = 0; i < kRecords; ++i) records.push_back(stream.next());

      // Snapshot at several depths, from empty tables to long-recycled
      // ones. Each restored warmer must re-serialize to the same bytes
      // and, resumed on the rest of the stream, end in the uninterrupted
      // warmer's state: recency stamps and LRU order restore exactly, not
      // just contents.
      std::vector<std::vector<uint8_t>> snapshots;
      FunctionalWarmer a(config, program);
      for (size_t i = 0; i <= kRecords; ++i) {
        if (i == 0 || i == 10 || i == 100 || i == 1000 || i == kRecords) {
          snapshots.push_back(a.serialize_state());
        }
        if (i < kRecords) a.on_record(records[i]);
      }
      const std::vector<uint8_t>& final_blob = snapshots.back();
      for (const std::vector<uint8_t>& blob : snapshots) {
        FunctionalWarmer b(config, program);
        b.deserialize_state(blob);
        ASSERT_EQ(b.serialize_state(), blob)
            << config.label() << " seed " << seed << " at " << b.warmed();
        for (size_t i = b.warmed(); i < kRecords; ++i) b.on_record(records[i]);
        EXPECT_EQ(b.serialize_state(), final_blob)
            << config.label() << " seed " << seed;
        EXPECT_EQ(warmer_digests(b), warmer_digests(a))
            << config.label() << " seed " << seed;
      }
    }
  }
}

/// Content digests of the same components, read back from a Simulator's
/// core (the stride predictor only where the policy has one).
std::vector<uint64_t> core_digests(sim::Simulator& sim) {
  core::Core& core = sim.core();
  const mem::CacheHierarchy& h = core.hierarchy();
  std::vector<uint64_t> d = {core.gshare().debug_digest(),
                             core.mbs().debug_digest(),
                             core.ras().debug_digest(),
                             h.l1i().debug_digest(),
                             h.l1d().debug_digest(),
                             h.l2().debug_digest(),
                             h.l3().debug_digest()};
  if (ci::CiMechanism* mech = sim.ci_mechanism()) {
    d.push_back(mech->stride_predictor().debug_digest());
  }
  return d;
}

std::vector<uint8_t> stats_bytes(const stats::SimStats& s) {
  util::ByteWriter out;
  stats::serialize(s, out);
  return out.take();
}

TEST(WarmCodec, DirectInstallMatchesDeserializeThenApply) {
  for (const char* wl : {"bzip2", "parser", "twolf"}) {
    const isa::Program program = workloads::build(wl, 1);
    const Checkpoint ck = fast_forward(program, 30000);
    const core::CoreConfig configs[] = {sim::presets::scal(2, 256),
                                        sim::presets::ci(2, 512),
                                        sim::presets::vect(2, 512)};
    for (const core::CoreConfig& config : configs) {
      FunctionalWarmer warmer(config, program);
      cfir::testing::warm_on_engine(warmer, program, ck.executed);
      const std::vector<uint8_t> blob = warmer.serialize_state();

      sim::Simulator via_warmer(config, program, ck);
      FunctionalWarmer restored(config, program);
      restored.deserialize_state(blob);
      restored.apply_to(via_warmer);

      sim::Simulator direct(config, program, ck);
      install_warm_state(blob, direct);

      const std::string where = std::string(wl) + " " + config.label();
      EXPECT_EQ(core_digests(direct), core_digests(via_warmer)) << where;
      const std::vector<uint8_t> expect = stats_bytes(via_warmer.run(5000));
      EXPECT_EQ(stats_bytes(direct.run(5000)), expect) << where;
      EXPECT_EQ(core_digests(direct), core_digests(via_warmer)) << where;
    }
  }
}

TEST(WarmCodec, InstallOverARanUnitMatchesAFreshOne) {
  const isa::Program program = workloads::build("parser", 1);
  const Checkpoint ck = fast_forward(program, 30000);
  for (const core::CoreConfig& config :
       {sim::presets::ci(2, 512), sim::presets::scal(1, 128)}) {
    FunctionalWarmer warmer(config, program);
    cfir::testing::warm_on_engine(warmer, program, ck.executed);
    const std::vector<uint8_t> blob = warmer.serialize_state();

    // A unit that already ran holds live sets, dirty lines and fills in
    // flight; one more miss at a late cycle leaves a fill pending there,
    // which an access 10 cycles on would merge with if it survived.
    sim::Simulator ran(config, program, ck);
    (void)ran.run(4000);
    mem::CacheHierarchy& used = ran.core().hierarchy();
    const uint64_t late = 1'000'000;
    (void)used.access_data(0x7654320, true, late);
    install_warm_state(blob, ran);
    sim::Simulator fresh(config, program, ck);
    install_warm_state(blob, fresh);
    mem::CacheHierarchy& clean = fresh.core().hierarchy();

    const std::string where = config.label();
    util::ByteWriter a, b;
    used.serialize(a);
    clean.serialize(b);
    EXPECT_EQ(a.data(), b.data()) << where;
    EXPECT_EQ(used.debug_digest(), clean.debug_digest()) << where;
    for (uint64_t i = 0; i < 200; ++i) {
      const uint64_t addr = i % 2 == 0 ? 0x7654320 + 8 * (i % 5)
                                       : program.base() + 64 * i;
      const uint64_t now = late + 10 + i;
      ASSERT_EQ(used.access_data(addr, i % 3 == 0, now),
                clean.access_data(addr, i % 3 == 0, now))
          << where << " data access " << i;
      ASSERT_EQ(used.access_inst(program.base() + 16 * i, now),
                clean.access_inst(program.base() + 16 * i, now))
          << where << " fetch " << i;
    }
    EXPECT_EQ(used.debug_digest(), clean.debug_digest()) << where;
  }
}

constexpr uint32_t kWrm1 = 0x314D5257;  // "WRM1", the retired dense layout
constexpr uint32_t kWrm2 = 0x324D5257;  // "WRM2"

/// A hand-built blob's header (docs/trace-format.md) and the geometry
/// header of its first section, gshare, sized for `config`.
util::ByteWriter gshare_section_start(uint32_t magic,
                                      const core::CoreConfig& config) {
  util::ByteWriter out;
  out.u32(magic);
  out.u8(static_cast<uint8_t>(config.policy));
  out.u64(0);             // warmed
  out.u64(~uint64_t{0});  // last fetch line
  out.u32(config.gshare_entries);
  out.u64(0);  // history
  return out;
}

/// Both restore paths must reject `blob` with exception type `E`.
template <typename E>
void expect_rejected(const std::vector<uint8_t>& blob,
                     const core::CoreConfig& config,
                     const isa::Program& program, const char* what) {
  FunctionalWarmer warmer(config, program);
  EXPECT_THROW(warmer.deserialize_state(blob), E) << what;
  sim::Simulator sim(config, program);
  EXPECT_THROW(install_warm_state(blob, sim), E) << what;
}

TEST(WarmCodec, MalformedBlobsThrowTypedErrors) {
  const isa::Program program = workloads::build("gzip", 1);
  const core::CoreConfig config = sim::presets::ci(2, 512);
  FunctionalWarmer source(config, program);
  cfir::testing::warm_on_engine(source, program, 5000);
  const std::vector<uint8_t> good = source.serialize_state();

  {
    util::ByteWriter slot_past_end = gshare_section_start(kWrm2, config);
    slot_past_end.u32(1);                      // one entry
    slot_past_end.u32(config.gshare_entries);  // slot == table size
    slot_past_end.u8(3);
    expect_rejected<CorruptFileError>(slot_past_end.take(), config, program,
                                      "slot >= table size");
  }
  {
    util::ByteWriter repeated_slot = gshare_section_start(kWrm2, config);
    repeated_slot.u32(2);
    for (int k = 0; k < 2; ++k) {
      repeated_slot.u32(7);
      repeated_slot.u8(3);
    }
    expect_rejected<CorruptFileError>(repeated_slot.take(), config, program,
                                      "repeated slot");
  }
  {
    util::ByteWriter count_too_big = gshare_section_start(kWrm2, config);
    count_too_big.u32(config.gshare_entries + 1);
    expect_rejected<CorruptFileError>(count_too_big.take(), config, program,
                                      "count > table size");
  }
  {
    std::vector<uint8_t> truncated = good;
    truncated.resize(good.size() / 2);
    expect_rejected<CorruptFileError>(truncated, config, program,
                                      "truncated blob");
    std::vector<uint8_t> trailing = good;
    trailing.push_back(0);
    expect_rejected<CorruptFileError>(trailing, config, program,
                                      "trailing byte");
  }
  {
    // A dense WRM1 blob: the same header, then the whole gshare table.
    util::ByteWriter dense = gshare_section_start(kWrm1, config);
    const std::vector<uint8_t> table(config.gshare_entries, 2);
    dense.bytes(table.data(), table.size());
    expect_rejected<VersionError>(dense.take(), config, program,
                                  "dense WRM1 blob");
  }
  {
    std::vector<uint8_t> foreign = good;
    foreign[0] = 'X';
    expect_rejected<BadMagicError>(foreign, config, program, "bad magic");
  }
  core::CoreConfig other_geometry = config;
  other_geometry.gshare_entries = 1024;
  expect_rejected<ConfigMismatchError>(good, other_geometry, program,
                                       "gshare geometry");
  expect_rejected<ConfigMismatchError>(good, sim::presets::vect(2, 512),
                                       program, "policy");
}

TEST(WarmCodec, WholeRunBlobOfPaperConfigStaysSmall) {
  // bzip2 s8 warmed over its whole run under ci:256, the sharded_fine
  // benchmark's first column. The dense layout this replaced wrote
  // 907,141 bytes here, every entry of 1.2 MB of tables, while only ~2%
  // of them ever leave their reset value.
  const isa::Program program = workloads::build("bzip2", 8);
  FunctionalWarmer warmer(sim::presets::ci(2, 256), program);
  cfir::testing::warm_on_engine(warmer, program, UINT64_MAX);
  obs::Counter& snapshot_bytes =
      obs::Registry::instance().counter("warming.snapshot_bytes");
  const uint64_t before = snapshot_bytes.value();
  const std::vector<uint8_t> blob = warmer.serialize_state();
  RecordProperty("blob_bytes", std::to_string(blob.size()));
  EXPECT_LE(blob.size(), 64u * 1024);
  EXPECT_EQ(snapshot_bytes.value() - before, blob.size());
}

}  // namespace
}  // namespace cfir::trace
