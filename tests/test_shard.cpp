// The plan / execute / merge decomposition of sampled simulation
// (trace/manifest.hpp, trace/shard.hpp):
//
//  - manifest and shard-result blobs are byte-stable across
//    serialize -> deserialize -> re-serialize (shards exchanged between
//    machines must not mutate in flight) and reject corruption with the
//    typed errors trace_tool maps to exit codes — including forged fields
//    under a valid CRC, which never size an allocation;
//  - running a plan's intervals as N shards and merging the results is
//    bit-identical to the single-process trace::sampled_run, for any N,
//    any merge order, and through the full manifest-file round trip;
//  - a config GRID bound to one plan (CFIRMAN2: shared checkpoints, warm
//    state captured by each shard) merges to per-config columns each
//    bit-identical to that config's single-config sampled_run — the
//    acceptance matrix covers bzip2/parser/twolf s8 under functional
//    warming for a 3-point register grid — while the shared streaming
//    pass keeps grid warming cost within 1.1x of a single config's;
//  - mismatched plans/configs and incomplete/duplicate shard sets are
//    rejected at merge time instead of silently skewing the aggregate;
//  - retired layouts (CFIRTRC1, CFIRMAN1, CFIRMAN2 v2, CFIRSHD1,
//    CFIRSHD2 v2, the warm-state checkpoint) fail with VersionError, and
//    every format rejects a file whose CRC footer was cut off with
//    CorruptFileError.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "helpers.hpp"
#include "sim/presets.hpp"
#include "trace/blob.hpp"
#include "trace/errors.hpp"
#include "trace/manifest.hpp"
#include "trace/sampling.hpp"
#include "trace/shard.hpp"
#include "trace/trace.hpp"
#include "workloads/workloads.hpp"

namespace cfir::trace {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(::testing::TempDir() + "cfir_shard_" + tag + ".bin") {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A manifest written by write_manifest plus its checkpoint blobs, all
/// removed on destruction.
class TempManifest {
 public:
  TempManifest(const IntervalPlan& plan,
               const std::vector<ConfigBinding>& bindings,
               const std::string& workload, uint32_t scale,
               const std::string& tag)
      : path_(::testing::TempDir() + "cfir_man_" + tag + ".cfirman"),
        manifest_(write_manifest(plan, bindings, workload, scale, path_)) {}
  ~TempManifest() {
    std::remove(path_.c_str());
    const std::string dir = path_.substr(0, path_.find_last_of('/') + 1);
    for (const auto& iv : manifest_.intervals) {
      std::remove((dir + iv.checkpoint_file).c_str());
    }
  }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const ShardManifest& manifest() const { return manifest_; }

 private:
  std::string path_;
  ShardManifest manifest_;
};

core::CoreConfig random_config(std::mt19937_64& gen) {
  core::CoreConfig cfg = sim::presets::ci(
      static_cast<uint32_t>(gen() % 2 + 1),
      static_cast<uint32_t>(128u << (gen() % 3)));
  cfg.gshare_history_bits = static_cast<uint32_t>(gen() % 8 + 8);
  cfg.replicas = static_cast<uint32_t>(gen() % 8 + 1);
  cfg.watchdog_cycles = gen() % 100000 + 1;
  return cfg;
}

ShardManifest random_manifest(uint64_t seed) {
  std::mt19937_64 gen(seed);
  ShardManifest m;
  m.workload = "wl" + std::to_string(gen() % 1000);
  m.scale = static_cast<uint32_t>(gen() % 16 + 1);
  m.plan_hash = gen();
  m.mode = (gen() & 1) != 0 ? SampleMode::kCluster : SampleMode::kUniform;
  m.warm_mode = static_cast<WarmMode>(gen() % 4);
  m.warmup = gen() % 100000;
  m.total_insts = gen();
  m.interval_len = gen() % 100000;
  m.ran_to_halt = (gen() & 1) != 0;
  const size_t nc = gen() % 3 + 1;
  m.configs.resize(nc);
  for (size_t c = 0; c < nc; ++c) {
    m.configs[c].name = "cfg" + std::to_string(c);
    m.configs[c].config_hash = gen();
    m.configs[c].config = random_config(gen);
  }
  const size_t n = gen() % 8;
  m.intervals.resize(n);
  for (size_t i = 0; i < n; ++i) {
    m.intervals[i].start = gen();
    m.intervals[i].length = gen();
    m.intervals[i].weight =
        static_cast<double>(gen() % 10000) / 16.0;  // exact in binary
    m.intervals[i].checkpoint_file = "ck" + std::to_string(i) + ".cfirckpt";
  }
  return m;
}

ShardResult random_shard_result(uint64_t seed) {
  std::mt19937_64 gen(seed);
  ShardResult r;
  r.plan_hash = gen();
  r.shard_count = static_cast<uint32_t>(gen() % 7 + 1);
  r.shard_index = static_cast<uint32_t>(gen() % r.shard_count);
  r.plan_intervals = static_cast<uint32_t>(gen() % 16 + 1);
  r.total_insts = gen();
  r.ran_to_halt = (gen() & 1) != 0;
  r.warmed_insts = gen() % 1000000;
  r.warm_wall_us = gen() % 1000000;
  const size_t nc = gen() % 3 + 1;
  r.configs.resize(nc);
  for (size_t c = 0; c < nc; ++c) {
    r.configs[c].name = "cfg" + std::to_string(c);
    r.configs[c].config_hash = gen();
    r.configs[c].detailed_insts = gen() % 1000000;
  }
  const size_t n = gen() % 5;
  r.intervals.resize(n);
  for (size_t i = 0; i < n; ++i) {
    r.intervals[i].plan_index = static_cast<uint32_t>(gen() % 16);
    r.intervals[i].start_inst = gen();
    r.intervals[i].length = gen();
    r.intervals[i].warmup = gen() % 10000;
    r.intervals[i].weight = static_cast<double>(gen() % 10000) / 16.0;
    r.intervals[i].stats.resize(nc);
    r.intervals[i].wall_us.resize(nc);
    for (size_t c = 0; c < nc; ++c) {
      r.intervals[i].stats[c] = cfir::testing::random_sim_stats(gen);
      r.intervals[i].wall_us[c] = gen() % 10000000;
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Blob byte stability and corruption rejection
// ---------------------------------------------------------------------------

TEST(ShardManifestBlob, FuzzSerializeDeserializeReserializeStable) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    const ShardManifest m = random_manifest(seed);
    const std::vector<uint8_t> first = m.serialize();
    const ShardManifest loaded = ShardManifest::deserialize(first);
    EXPECT_EQ(loaded.workload, m.workload) << "seed " << seed;
    EXPECT_EQ(loaded.plan_hash, m.plan_hash) << "seed " << seed;
    ASSERT_EQ(loaded.configs.size(), m.configs.size()) << "seed " << seed;
    for (size_t c = 0; c < m.configs.size(); ++c) {
      EXPECT_EQ(loaded.configs[c].name, m.configs[c].name);
      EXPECT_EQ(loaded.configs[c].config_hash, m.configs[c].config_hash);
      EXPECT_EQ(loaded.configs[c].config.digest(),
                m.configs[c].config.digest())
          << "seed " << seed << " config " << c;
    }
    EXPECT_EQ(loaded.intervals.size(), m.intervals.size())
        << "seed " << seed;
    EXPECT_EQ(loaded.serialize(), first) << "seed " << seed;
  }
}

TEST(ShardManifestBlob, FileRoundTripVerifiesCrc) {
  const ShardManifest m = random_manifest(7);
  TempFile file("man_crc");
  m.save(file.path());
  const ShardManifest loaded = ShardManifest::load(file.path());
  EXPECT_EQ(loaded.serialize(), m.serialize());

  // Flip one payload byte: the CRC footer must catch it.
  {
    std::FILE* f = std::fopen(file.path().c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 12, SEEK_SET);
    std::fputc(0xA5, f);
    std::fclose(f);
  }
  EXPECT_THROW((void)ShardManifest::load(file.path()), CorruptFileError);
}

TEST(ShardManifestBlob, TruncationAndWrongKindRejected) {
  const ShardManifest m = random_manifest(9);
  std::vector<uint8_t> payload = m.serialize();

  std::vector<uint8_t> truncated(payload.begin(), payload.begin() + 24);
  EXPECT_THROW((void)ShardManifest::deserialize(truncated), CorruptFileError);

  std::vector<uint8_t> wrong = payload;
  wrong[0] = 'X';
  EXPECT_THROW((void)ShardManifest::deserialize(wrong), BadMagicError);

  std::vector<uint8_t> vers = payload;
  vers[8] = 99;  // u32 version little-endian LSB
  EXPECT_THROW((void)ShardManifest::deserialize(vers), VersionError);

  // A file missing its (mandatory) footer is rejected even when the
  // payload itself is intact.
  TempFile file("man_nofooter");
  {
    std::FILE* f = std::fopen(file.path().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(payload.data(), 1, payload.size(), f);
    std::fclose(f);
  }
  EXPECT_THROW((void)ShardManifest::load(file.path()), CorruptFileError);
}

TEST(ShardResultBlob, FuzzSerializeDeserializeReserializeStable) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    const ShardResult r = random_shard_result(seed);
    const std::vector<uint8_t> first = r.serialize();
    const ShardResult loaded = ShardResult::deserialize(first);
    EXPECT_EQ(loaded.plan_hash, r.plan_hash) << "seed " << seed;
    ASSERT_EQ(loaded.configs.size(), r.configs.size()) << "seed " << seed;
    for (size_t c = 0; c < r.configs.size(); ++c) {
      EXPECT_EQ(loaded.configs[c].name, r.configs[c].name);
      EXPECT_EQ(loaded.configs[c].config_hash, r.configs[c].config_hash);
      EXPECT_EQ(loaded.configs[c].detailed_insts,
                r.configs[c].detailed_insts);
    }
    EXPECT_EQ(loaded.warm_wall_us, r.warm_wall_us) << "seed " << seed;
    ASSERT_EQ(loaded.intervals.size(), r.intervals.size())
        << "seed " << seed;
    for (size_t i = 0; i < r.intervals.size(); ++i) {
      for (size_t c = 0; c < r.configs.size(); ++c) {
        EXPECT_EQ(stats::to_json(loaded.intervals[i].stats[c]),
                  stats::to_json(r.intervals[i].stats[c]))
            << "seed " << seed << " interval " << i << " config " << c;
        EXPECT_EQ(loaded.intervals[i].wall_us[c], r.intervals[i].wall_us[c])
            << "seed " << seed << " interval " << i << " config " << c;
      }
    }
    EXPECT_EQ(loaded.serialize(), first) << "seed " << seed;
  }
}

TEST(ShardResultBlob, WrongKindAndVersionRejected) {
  const ShardResult r = random_shard_result(3);
  std::vector<uint8_t> payload = r.serialize();
  std::vector<uint8_t> wrong = payload;
  wrong[3] = 'Z';
  EXPECT_THROW((void)ShardResult::deserialize(wrong), BadMagicError);
  std::vector<uint8_t> vers = payload;
  vers[8] = 99;
  EXPECT_THROW((void)ShardResult::deserialize(vers), VersionError);
  // The retired CFIRSHD1 magic is a version error, not a foreign file.
  std::vector<uint8_t> retired = payload;
  retired[7] = '1';
  EXPECT_THROW((void)ShardResult::deserialize(retired), VersionError);
  payload.resize(payload.size() / 2);
  EXPECT_THROW((void)ShardResult::deserialize(payload), CorruptFileError);
}

/// Runs `load` and requires a CorruptFileError whose message names `field`.
void expect_corrupt_naming(const std::function<void()>& load,
                           const std::string& field) {
  try {
    load();
    ADD_FAILURE() << field << ": forgery accepted";
  } catch (const CorruptFileError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(ForgedFields, RejectedByNameWithoutSizingAnything) {
  // The CRC footer catches corruption, not forgery: write_blob_file signs
  // any payload. Each decoder must reject a forged count before it sizes
  // a vector, a weight merge cannot fold, and a mode byte no enum holds.
  ShardResult result = random_shard_result(11);
  result.intervals.assign(1, {});
  result.intervals[0].stats.resize(result.configs.size());
  ShardManifest manifest = random_manifest(11);
  manifest.intervals = {{0, 100, 1.0, "ck0.cfirckpt"}};
  const std::vector<uint8_t> shard = result.serialize();
  const std::vector<uint8_t> man = manifest.serialize();
  ASSERT_NO_THROW((void)ShardResult::deserialize(shard));
  ASSERT_NO_THROW((void)ShardManifest::deserialize(man));
  // Each interval section starts where the interval-less payload ends,
  // right after its u32 count.
  result.intervals.clear();
  manifest.intervals.clear();
  const size_t shard_iv = result.serialize().size();
  const size_t man_iv = manifest.serialize().size();

  const uint64_t nan =
      std::bit_cast<uint64_t>(std::numeric_limits<double>::quiet_NaN());
  const uint64_t inf =
      std::bit_cast<uint64_t>(std::numeric_limits<double>::infinity());
  const uint64_t negative = std::bit_cast<uint64_t>(-1.0);
  struct Forgery {
    const char* field;  ///< what the error must name
    bool is_manifest;
    size_t at, width;  ///< the little-endian field forged
    uint64_t value;
  };
  // A shard interval is u32 plan_index, then start, length, warmup and
  // weight; a manifest interval start, length and weight. Magic, version,
  // reserved and plan_hash put a manifest's mode at 24, warm_mode at 25.
  const Forgery forgeries[] = {
      {"interval count", false, shard_iv - 4, 4, uint64_t{1} << 27},
      {"interval count", false, shard_iv - 4, 4, 0xFFFFFFFF},
      {"interval weight", false, shard_iv + 28, 8, nan},
      {"interval weight", false, shard_iv + 28, 8, inf},
      {"interval weight", false, shard_iv + 28, 8, negative},
      {"interval count", true, man_iv - 4, 4, uint64_t{1} << 27},
      {"interval count", true, man_iv - 4, 4, 0xFFFFFFFF},
      {"interval weight", true, man_iv + 16, 8, nan},
      {"interval weight", true, man_iv + 16, 8, inf},
      {"interval weight", true, man_iv + 16, 8, negative},
      {"sample mode", true, 24, 1, 2},
      {"warm mode", true, 25, 1, 4},
  };
  TempFile file("forged");
  for (const Forgery& f : forgeries) {
    std::vector<uint8_t> bytes = f.is_manifest ? man : shard;
    for (size_t b = 0; b < f.width; ++b) {
      bytes[f.at + b] = static_cast<uint8_t>(f.value >> (8 * b));
    }
    write_blob_file(file.path(), bytes);
    expect_corrupt_naming(
        [&] {
          if (f.is_manifest) {
            (void)ShardManifest::load(file.path());
          } else {
            (void)ShardResult::load(file.path());
          }
        },
        f.field);
  }

  // A shard whose header claims more intervals than the shards carry is
  // rejected before that count sizes merge's coverage table.
  ShardResult claims_all = ShardResult::deserialize(shard);
  claims_all.plan_intervals = 0xFFFFFFFF;
  expect_corrupt_naming([&] { (void)merge_shard_grid({claims_all}); },
                        "merge needs every shard");
}

TEST(ParseShard, AcceptsValidRejectsMalformed) {
  const ShardSelection s = parse_shard("2/5");
  EXPECT_EQ(s.index, 2u);
  EXPECT_EQ(s.count, 5u);
  EXPECT_TRUE(s.covers(2));
  EXPECT_TRUE(s.covers(7));
  EXPECT_FALSE(s.covers(3));
  EXPECT_THROW((void)parse_shard("5/5"), std::runtime_error);
  EXPECT_THROW((void)parse_shard("0"), std::runtime_error);
  EXPECT_THROW((void)parse_shard("a/b"), std::runtime_error);
  EXPECT_THROW((void)parse_shard("1/0"), std::runtime_error);
  EXPECT_THROW((void)parse_shard("1/2x"), std::runtime_error);
  // Out of 32-bit range, not wrapped to 1/2; no sign or leading space.
  EXPECT_THROW((void)parse_shard("4294967297/2"), std::runtime_error);
  EXPECT_THROW((void)parse_shard("1/4294967298"), std::runtime_error);
  EXPECT_THROW((void)parse_shard(" 1/2"), std::runtime_error);
  EXPECT_THROW((void)parse_shard("+1/2"), std::runtime_error);
  EXPECT_THROW((void)parse_shard("1/+2"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Sharded == unsharded
// ---------------------------------------------------------------------------

/// Every per-interval stat block and the aggregate must match bit for bit.
void expect_same_run(const SampledRun& a, const SampledRun& b,
                     const std::string& label) {
  ASSERT_EQ(a.intervals.size(), b.intervals.size()) << label;
  for (size_t i = 0; i < a.intervals.size(); ++i) {
    EXPECT_EQ(a.intervals[i].start_inst, b.intervals[i].start_inst)
        << label << " interval " << i;
    EXPECT_EQ(a.intervals[i].warmup, b.intervals[i].warmup)
        << label << " interval " << i;
    EXPECT_EQ(stats::to_json(a.intervals[i].stats),
              stats::to_json(b.intervals[i].stats))
        << label << " interval " << i;
  }
  EXPECT_EQ(a.total_insts, b.total_insts) << label;
  EXPECT_EQ(a.detailed_insts, b.detailed_insts) << label;
  EXPECT_EQ(a.warmed_insts, b.warmed_insts) << label;
  EXPECT_EQ(stats::to_json(a.aggregate), stats::to_json(b.aggregate))
      << label;
}

TEST(ShardedRun, AnyShardCountMergesBitIdentical) {
  const core::CoreConfig config = sim::presets::ci(2, 512);
  const isa::Program program = workloads::build("bzip2", 1);
  const IntervalPlan plan =
      plan_intervals(program, 5, /*max_insts=*/40000, /*warmup=*/500,
                     WarmMode::kDetailed);
  const SampledRun reference = sampled_run(config, program, plan);

  for (const uint32_t n : {2u, 3u, 5u}) {
    std::vector<ShardResult> shards;
    for (uint32_t i = 0; i < n; ++i) {
      shards.push_back(
          run_shard(config, program, plan, ShardSelection{i, n}));
    }
    // Merge order must not matter: reverse the shard list.
    std::reverse(shards.begin(), shards.end());
    expect_same_run(merge_shard_results(shards), reference,
                    "N=" + std::to_string(n));
  }
}

TEST(ShardedRun, SerializedShardsMergeBitIdentical) {
  // The full wire path: each shard result passes through its CFIRSHD2 blob
  // before merging, as it would between machines.
  const core::CoreConfig config = sim::presets::ci(2, 512);
  const isa::Program program = workloads::build("parser", 1);

  ClusterPlanOptions opts;
  opts.n_intervals = 8;
  opts.max_k = 3;
  opts.warm_mode = WarmMode::kFunctional;
  opts.detail_len = 1500;
  opts.max_insts = 40000;
  const IntervalPlan plan = plan_cluster_intervals(program, opts);
  const SampledRun reference = sampled_run(config, program, plan);

  std::vector<ShardResult> shards;
  for (uint32_t i = 0; i < 2; ++i) {
    const ShardResult r =
        run_shard(config, program, plan, ShardSelection{i, 2});
    TempFile file("wire" + std::to_string(i));
    r.save(file.path());
    shards.push_back(ShardResult::load(file.path()));
  }
  expect_same_run(merge_shard_results(shards), reference, "wire");
}

TEST(ShardedRun, MergeRejectsIncompleteDuplicateAndMismatched) {
  const core::CoreConfig config = sim::presets::ci(2, 512);
  const isa::Program program = workloads::build("bzip2", 1);
  const IntervalPlan plan = plan_intervals(program, 4, 20000);

  const ShardResult s0 =
      run_shard(config, program, plan, ShardSelection{0, 2});
  const ShardResult s1 =
      run_shard(config, program, plan, ShardSelection{1, 2});

  EXPECT_THROW((void)merge_shard_results({s0}), CorruptFileError);       // missing
  EXPECT_THROW((void)merge_shard_results({s0, s0}), CorruptFileError);   // dup
  ShardResult tampered = s1;
  tampered.plan_hash = 0xDEADBEEF;
  EXPECT_THROW((void)merge_shard_results({s0, tampered}), ConfigMismatchError);
  ShardResult wrong_grid = s1;
  wrong_grid.configs[0].config_hash ^= 1;
  EXPECT_THROW((void)merge_shard_results({s0, wrong_grid}),
               ConfigMismatchError);
  EXPECT_NO_THROW((void)merge_shard_results({s0, s1}));
  EXPECT_NO_THROW((void)merge_shard_results({s1, s0}));  // any order
}

// ---------------------------------------------------------------------------
// Config grids: one plan, one checkpoint set, per-config columns
// ---------------------------------------------------------------------------

std::vector<std::pair<std::string, core::CoreConfig>> register_grid() {
  std::vector<std::pair<std::string, core::CoreConfig>> points;
  for (const uint32_t regs : {128u, 256u, 512u}) {
    core::CoreConfig config = sim::presets::ci(2, regs);
    points.emplace_back(config.label(), config);
  }
  return points;
}

TEST(ConfigGrid, SharedWarmingIsAmortizedAcrossConfigs) {
  // The acceptance bound: warming a 3-config grid must cost at most 1.1x
  // the warmed instructions of a single config — the streaming pass is
  // shared, so the counts are in fact equal.
  const isa::Program program = workloads::build("bzip2", 1);
  const IntervalPlan plan =
      plan_intervals(program, 4, /*max_insts=*/30000, /*warmup=*/0,
                     WarmMode::kFunctional, /*detail_len=*/1000);
  const auto points = register_grid();

  const ShardResult single =
      run_shard(points[0].second, program, plan);
  ASSERT_GT(single.warmed_insts, 0u);

  const ShardResult grid =
      run_shard(cfir::testing::bindings_of(points), program, plan);
  ASSERT_EQ(grid.configs.size(), 3u);
  EXPECT_LE(static_cast<double>(grid.warmed_insts),
            1.1 * static_cast<double>(single.warmed_insts));
}

TEST(ConfigGrid, GridColumnsMatchSingleConfigRuns) {
  // Every grid column must be bit-identical to the single-config run of
  // the same plan.
  const isa::Program program = workloads::build("parser", 1);
  const IntervalPlan plan =
      plan_intervals(program, 4, /*max_insts=*/30000, /*warmup=*/0,
                     WarmMode::kFunctional, /*detail_len=*/1000);
  const auto points = register_grid();

  const ShardResult grid =
      run_shard(cfir::testing::bindings_of(points), program, plan);
  const MergedGrid merged = merge_shard_grid({grid});
  ASSERT_EQ(merged.configs.size(), points.size());
  for (size_t c = 0; c < points.size(); ++c) {
    EXPECT_EQ(merged.configs[c].name, points[c].first);
    EXPECT_EQ(merged.configs[c].config_hash, points[c].second.digest());
    expect_same_run(merged.configs[c].run,
                    sampled_run(points[c].second, program, plan),
                    "column " + points[c].first);
  }
}

TEST(ConfigGrid, VerifyManifestPlanCatchesSwappedCheckpointFiles) {
  // The plan hash covers only manifest fields, so the checkpoint POSITION
  // check is what catches a .cfirckpt overwritten with one from a
  // different interval — before a shard silently simulates the wrong
  // slice of the run.
  const isa::Program program = workloads::build("bzip2", 1);
  const IntervalPlan plan = plan_intervals(program, 4, 20000);
  TempManifest tm(plan, cfir::testing::bindings_of(register_grid()), "bzip2",
                  1, "swap");
  const ShardManifest manifest = ShardManifest::load(tm.path());

  const IntervalPlan ok = plan_from_manifest(manifest, tm.path());
  EXPECT_NO_THROW(verify_manifest_plan(manifest, ok));

  // Overwrite interval 0's checkpoint with interval 2's.
  const std::string dir = tm.path().substr(0, tm.path().find_last_of('/') + 1);
  const Checkpoint moved =
      Checkpoint::load(dir + manifest.intervals[2].checkpoint_file);
  moved.save(dir + manifest.intervals[0].checkpoint_file);
  const IntervalPlan swapped = plan_from_manifest(manifest, tm.path());
  EXPECT_THROW(verify_manifest_plan(manifest, swapped), CorruptFileError);
}

TEST(ConfigGrid, MergeRejectsColumnMixtures) {
  const isa::Program program = workloads::build("bzip2", 1);
  const IntervalPlan plan = plan_intervals(program, 4, 20000);
  const auto bindings = cfir::testing::bindings_of(register_grid());

  const ShardResult s0 = run_shard(bindings, program, plan,
                                   ShardSelection{0, 2});
  ShardResult s1 = run_shard(bindings, program, plan, ShardSelection{1, 2});
  EXPECT_NO_THROW((void)merge_shard_grid({s0, s1}));

  // A shard that ran a different column set cannot fold into this grid.
  ShardResult renamed = s1;
  renamed.configs[1].name = "imposter";
  EXPECT_THROW((void)merge_shard_grid({s0, renamed}), ConfigMismatchError);
  ShardResult dropped = s1;
  dropped.configs.pop_back();
  for (auto& iv : dropped.intervals) iv.stats.pop_back();
  EXPECT_THROW((void)merge_shard_grid({s0, dropped}), ConfigMismatchError);
}

// ---------------------------------------------------------------------------
// Acceptance: bzip2/parser/twolf s8, functional warming, a 3-point
// register grid (128/256/512 phys regs) farmed from ONE CFIRMAN2 manifest
// — every merged column bit-identical to that config's single-config
// sampled_run.
// ---------------------------------------------------------------------------

void expect_grid_acceptance(const std::string& workload) {
  const isa::Program program = workloads::build(workload, 8);

  ClusterPlanOptions opts;
  opts.n_intervals = 16;
  opts.max_k = 4;
  opts.warm_mode = WarmMode::kFunctional;
  opts.detail_len = 2000;
  const IntervalPlan plan = plan_cluster_intervals(program, opts);
  const auto points = register_grid();
  TempManifest tm(plan, cfir::testing::bindings_of(points), workload, 8,
                  "grid_" + workload);
  const ShardManifest manifest = ShardManifest::load(tm.path());
  ASSERT_EQ(manifest.configs.size(), points.size());
  for (size_t c = 0; c < points.size(); ++c) {
    EXPECT_EQ(manifest.configs[c].name, points[c].first);
    EXPECT_EQ(manifest.configs[c].config_hash, points[c].second.digest());
    EXPECT_EQ(manifest.configs[c].config.digest(), points[c].second.digest());
  }

  const IntervalPlan reloaded = plan_from_manifest(manifest, tm.path());
  verify_manifest_plan(manifest, reloaded);  // must not throw

  // Two shards, each through its CFIRSHD2 wire format, merged in reverse.
  std::vector<ShardResult> shards;
  for (uint32_t i = 0; i < 2; ++i) {
    const ShardResult r =
        run_shard(manifest.configs, program, reloaded, ShardSelection{i, 2},
                  /*threads=*/0, manifest.plan_hash);
    TempFile file("grid_" + workload + std::to_string(i));
    r.save(file.path());
    shards.push_back(ShardResult::load(file.path()));
  }
  std::reverse(shards.begin(), shards.end());
  const MergedGrid merged = merge_shard_grid(shards);
  ASSERT_EQ(merged.configs.size(), points.size());
  for (size_t c = 0; c < points.size(); ++c) {
    expect_same_run(merged.configs[c].run,
                    sampled_run(points[c].second, program, plan),
                    workload + " s8 column " + points[c].first);
  }
}

TEST(GridAcceptance, Bzip2S8Functional) { expect_grid_acceptance("bzip2"); }
TEST(GridAcceptance, ParserS8Functional) { expect_grid_acceptance("parser"); }
TEST(GridAcceptance, TwolfS8Functional) { expect_grid_acceptance("twolf"); }

// ---------------------------------------------------------------------------
// Retired layouts and cut CRC footers: typed failures, never a silent load
// ---------------------------------------------------------------------------

std::vector<uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// `magic` followed by `version` (u32) and zero padding.
std::vector<uint8_t> header_only(const char* magic, uint32_t version) {
  util::ByteWriter out;
  for (int i = 0; i < 8; ++i) out.u8(static_cast<uint8_t>(magic[i]));
  out.u32(version);
  for (int i = 0; i < 64; ++i) out.u8(0);
  return out.take();
}

TEST(RetiredFormats, EveryRetiredLayoutThrowsVersionError) {
  // Nothing writes these layouts anymore; a file carrying one is named as
  // a version problem (trace_tool exit 4), not decoded and not mistaken
  // for a foreign file.
  TempFile file("retired");

  write_bytes(file.path(), header_only("CFIRTRC1", 1));
  EXPECT_THROW(TraceReader{file.path()}, VersionError);

  write_blob_file(file.path(), header_only("CFIRMAN1", 1));
  EXPECT_THROW((void)ShardManifest::load(file.path()), VersionError);

  write_blob_file(file.path(), header_only("CFIRSHD1", 1));
  EXPECT_THROW((void)ShardResult::load(file.path()), VersionError);

  write_blob_file(file.path(), header_only("CFIRCKP2", 2));
  EXPECT_THROW((void)Checkpoint::load(file.path()), VersionError);

  // CFIRSHD2 version 2 (no wall-clock fields): a real v3 payload with the
  // version word rewritten.
  std::vector<uint8_t> v2 = random_shard_result(5).serialize();
  v2[8] = 2;
  write_blob_file(file.path(), v2);
  EXPECT_THROW((void)ShardResult::load(file.path()), VersionError);

  // CFIRMAN2 version 2 (per-config warm-state file names): likewise.
  std::vector<uint8_t> man_v2 = random_manifest(5).serialize();
  man_v2[8] = 2;
  write_blob_file(file.path(), man_v2);
  EXPECT_THROW((void)ShardManifest::load(file.path()), VersionError);
}

TEST(CrcFooter, CutFooterThrowsCorruptFileErrorOnEveryFormat) {
  // Each artifact kind loads whole; with its 8-byte CRC footer cut off it
  // must fail as CorruptFileError (trace_tool exit 6) — a truncated file
  // is never loaded without its integrity check.
  const isa::Program program = workloads::build("bzip2", 1);
  const IntervalPlan plan =
      plan_intervals(program, 2, /*max_insts=*/20000, /*warmup=*/0,
                     WarmMode::kFunctional, /*detail_len=*/1000);
  const core::CoreConfig config = sim::presets::ci(2, 512);
  TempManifest tm(plan, cfir::testing::bindings_of({{"ci", config}}),
                  "bzip2", 1, "cutfooter");
  const std::string dir =
      tm.path().substr(0, tm.path().find_last_of('/') + 1);
  const ShardManifest& m = tm.manifest();

  TempFile trace("cutfooter_trace");
  TraceMeta meta;
  meta.workload = "bzip2";
  (void)record_interpreter(program, trace.path(), meta, 20000);
  TempFile result("cutfooter_result");
  run_shard(config, program, plan).save(result.path());

  const std::vector<std::pair<std::string, std::function<void()>>> files = {
      {tm.path(), [&] { (void)ShardManifest::load(tm.path()); }},
      {dir + m.intervals[0].checkpoint_file,
       [&] { (void)Checkpoint::load(dir + m.intervals[0].checkpoint_file); }},
      {trace.path(), [&] { (void)TraceReader(trace.path()); }},
      {result.path(), [&] { (void)ShardResult::load(result.path()); }},
  };
  for (const auto& [path, load] : files) {
    EXPECT_NO_THROW(load()) << path;
    const std::vector<uint8_t> whole = file_bytes(path);
    ASSERT_GT(whole.size(), kCrcFooterBytes) << path;
    write_bytes(path, std::vector<uint8_t>(whole.begin(),
                                           whole.end() - kCrcFooterBytes));
    EXPECT_THROW(load(), CorruptFileError) << path;
    write_bytes(path, whole);
  }
}

}  // namespace
}  // namespace cfir::trace
