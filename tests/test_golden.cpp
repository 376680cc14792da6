// Golden digests of the trace pipeline's on-disk and in-memory artifacts:
// the CFIRTRC2 bytes the recorder writes, the BBVs read back from them,
// the warm-state blobs of an engine-fed and a trace-fed grid capture, the
// manifest and warm-sidecar bytes of a 2-config plan, and the shard-result
// bytes and merged stats of a 2-shard run. The literals were computed
// once and pin the exact bytes, so a refactor that changes any artifact —
// even one that keeps every in-process differential test green — fails
// here. A deliberate format change updates the literal in the same change
// and says why.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "sim/presets.hpp"
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
  TraceReader reader(path);
  EXPECT_EQ(grid_digest(
                capture_warm_states_grid(configs, program, reader, targets)),
            0x6a80a9a2a46b7e87ull);
}

/// A functionally warmed 4-interval bzip2 s2 plan bound to two configs.
struct GoldenPlan {
  isa::Program program = workloads::build("bzip2", 2);
  IntervalPlan plan = plan_intervals(program, 4, 0, 0, WarmMode::kFunctional,
                                     /*detail_len=*/2000);
  std::vector<std::pair<std::string, core::CoreConfig>> points = {
      {"ci:2:512", sim::presets::ci(2, 512)},
      {"scal:2:256", sim::presets::scal(2, 256)}};
};

TEST(Golden, ManifestAndWarmSidecarBytes) {
  TempDir dir("manifest");
  const GoldenPlan g;
  const std::string manifest_path = dir.file("bzip2.s2.cfirman");
  const ShardManifest m =
      write_manifest(g.plan, bind_configs(g.plan, g.points, g.program),
                     "bzip2", 2, manifest_path);
  EXPECT_EQ(file_digest(manifest_path), 0x69df2bb7dbdf3fc3ull);

  std::vector<std::string> sidecars;
  for (const auto& iv : m.intervals) {
    for (const std::string& wf : iv.warm_files) sidecars.push_back(wf);
  }
  std::sort(sidecars.begin(), sidecars.end());
  sidecars.erase(std::unique(sidecars.begin(), sidecars.end()),
                 sidecars.end());
  util::Digest d;
  for (const std::string& name : sidecars) {
    d.bytes(reinterpret_cast<const uint8_t*>(name.data()), name.size());
    d.u64(file_digest(dir.file(name)));
  }
  EXPECT_EQ(sidecars.size(), size_t{8});
  EXPECT_EQ(d.value(), 0x587f61e2bd272eafull);
}

TEST(Golden, TwoShardRunFromSidecarsAndFromTrace) {
  TempDir dir("shards");
  const GoldenPlan g;
  const std::string trace_path = dir.file("bzip2.s2.cfirtrace");
  TraceMeta meta;
  meta.workload = "bzip2";
  meta.scale = 2;
  (void)record_interpreter(g.program, trace_path, meta);

  // Sidecar-warmed: warm state bound at plan time. Trace-warmed: a plan
  // with no warm sidecars whose shards stream their gaps from the trace.
  std::vector<ConfigBinding> cold;
  for (const auto& [name, config] : g.points) {
    ConfigBinding b;
    b.name = name;
    b.config = config;
    cold.push_back(std::move(b));
  }
  const std::string warm_manifest = dir.file("warm.cfirman");
  const std::string cold_manifest = dir.file("cold.cfirman");
  (void)write_manifest(g.plan, bind_configs(g.plan, g.points, g.program),
                       "bzip2", 2, warm_manifest);
  (void)write_manifest(g.plan, cold, "bzip2", 2, cold_manifest);

  for (const bool from_trace : {false, true}) {
    const std::string& path = from_trace ? cold_manifest : warm_manifest;
    const ShardManifest m = ShardManifest::load(path);
    const IntervalPlan plan = plan_from_manifest(m, path);
    std::vector<ShardResult> shards;
    util::Digest bytes;
    for (uint32_t i = 0; i < 2; ++i) {
      const ShardSelection sel{i, 2};
      shards.push_back(run_shard(bindings_from_manifest(m, path, sel),
                                 g.program, plan, sel, /*threads=*/2,
                                 m.plan_hash,
                                 from_trace ? trace_path : std::string()));
      bytes.u64(digest_of(scrubbed_bytes(shards.back())));
    }
    EXPECT_EQ(bytes.value(), 0x467bcc7e65a2dbb4ull)
        << "from_trace=" << from_trace;
    const MergedGrid merged = merge_shard_grid(shards);
    ASSERT_EQ(merged.configs.size(), size_t{2});
    EXPECT_EQ(stats_digest(merged.configs[0].run.aggregate),
              0x6ff74ea19cbba2acull)
        << "from_trace=" << from_trace;
    EXPECT_EQ(stats_digest(merged.configs[1].run.aggregate),
              0x25dd71f3845c7ddcull)
        << "from_trace=" << from_trace;
  }
}

}  // namespace
}  // namespace cfir::trace
