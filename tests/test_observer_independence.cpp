// Observer independence: attaching commit observers (a TraceWriter via
// Simulator::attach_trace, or a raw on_commit_span callback) must not
// perturb the simulation — same serialized SimStats, same cycle count,
// same committed stream, with and without observers. The core batches
// commit records into a span buffer instead of invoking a per-commit
// std::function, so this pins down the contract that batching is pure
// plumbing: observers see every committed instruction exactly once, in
// order, and the simulated result never depends on whether anyone is
// watching.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"

#include "helpers.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "stats/stats.hpp"
#include "trace/trace.hpp"
#include "util/warmable.hpp"
#include "workloads/workloads.hpp"

namespace cfir {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(::testing::TempDir() + "cfir_obsind_" + tag + ".cfir") {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

[[nodiscard]] std::vector<uint8_t> stats_bytes(const stats::SimStats& s) {
  util::ByteWriter w;
  stats::serialize(s, w);
  return w.take();
}

struct Observed {
  std::vector<uint8_t> stats;
  uint64_t cycles = 0;
  uint64_t committed = 0;
  std::vector<uint64_t> pcs;  ///< committed PCs seen by the observer
};

/// One run; `observe` selects bare (no observer), a raw span callback, or
/// a full TraceWriter attachment.
enum class Observe { kNone, kSpan, kTrace };

[[nodiscard]] Observed run(const core::CoreConfig& config,
                           const isa::Program& program, Observe observe,
                           uint64_t max_insts, const std::string& tag) {
  sim::Simulator sim(config, program);
  Observed out;
  TempFile file(tag);
  std::unique_ptr<trace::TraceWriter> writer;
  if (observe == Observe::kSpan) {
    sim.core().on_commit_span = [&out](const core::CommitRecord* records,
                                       size_t n) {
      for (size_t i = 0; i < n; ++i) {
        // kHalt retires through the span but is not an architectural
        // instruction (it is excluded from stats_.committed too).
        if (records[i].op != isa::Opcode::kHalt) out.pcs.push_back(records[i].pc);
      }
    };
  } else if (observe == Observe::kTrace) {
    trace::TraceMeta meta;
    meta.workload = tag;
    meta.base_pc = program.base();
    writer = std::make_unique<trace::TraceWriter>(file.path(), meta);
    sim.attach_trace(*writer);
  }
  const stats::SimStats st = sim.run(max_insts);
  out.stats = stats_bytes(st);
  out.cycles = st.cycles;
  out.committed = st.committed;
  return out;
}

TEST(ObserverIndependence, StatsIdenticalWithAndWithoutObservers) {
  const std::vector<std::pair<const char*, core::CoreConfig>> configs = {
      {"scal1p", sim::presets::scal(1, 256)},
      {"ci2p", sim::presets::ci(2, 256)},
  };
  for (const std::string& name : {"bzip2", "twolf"}) {
    const isa::Program program = workloads::build(name, 4);
    for (const auto& [cfg_name, config] : configs) {
      const std::string tag = name + "_" + cfg_name;
      const Observed bare =
          run(config, program, Observe::kNone, 40000, tag + "_b");
      const Observed span =
          run(config, program, Observe::kSpan, 40000, tag + "_s");
      const Observed traced =
          run(config, program, Observe::kTrace, 40000, tag + "_t");
      EXPECT_EQ(bare.stats, span.stats) << tag;
      EXPECT_EQ(bare.stats, traced.stats) << tag;
      EXPECT_EQ(bare.cycles, span.cycles) << tag;
      EXPECT_EQ(bare.cycles, traced.cycles) << tag;
      // The span observer saw the whole committed stream, exactly once.
      EXPECT_EQ(span.pcs.size(), span.committed) << tag;
    }
  }
}

/// Random programs: the batched commit buffer drains on squashes,
/// watchdog flushes, and halt paths that curated kernels rarely hit.
TEST(ObserverIndependence, RandomProgramsIdentical) {
  for (uint64_t seed = 10; seed < 14; ++seed) {
    const isa::Program program = testing::random_program(seed);
    const core::CoreConfig config = sim::presets::scal(1, 256);
    const std::string tag = "rand" + std::to_string(seed);
    const Observed bare =
        run(config, program, Observe::kNone, 30000, tag + "_b");
    const Observed span =
        run(config, program, Observe::kSpan, 30000, tag + "_s");
    EXPECT_EQ(bare.stats, span.stats) << tag;
    EXPECT_EQ(bare.cycles, span.cycles) << tag;
    EXPECT_EQ(span.pcs.size(), span.committed) << tag;
  }
}

}  // namespace
}  // namespace cfir
