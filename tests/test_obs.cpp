// The observability layer (src/obs/) must observe without perturbing:
//
//  - the metrics registry takes concurrent updates from a parallel_for
//    pool without losing a single count (instruments are shared atomics,
//    find-or-create is mutex-guarded);
//  - the tracer's Chrome trace-event export is valid JSON with balanced
//    B/E span pairs on every thread lane, even though each thread records
//    into its own wrapping ring buffer;
//  - every detailed unit reports its restore, install and detail parts;
//  - above all: simulated results are BIT-IDENTICAL with telemetry on and
//    off. The flight recorder reads clocks and copies pointers; it never
//    touches simulated state. This file locks that in for sampled_run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/presets.hpp"
#include "sim/sweep.hpp"
#include "stats/stats.hpp"
#include "trace/sampling.hpp"
#include "workloads/workloads.hpp"

namespace cfir::obs {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(::testing::TempDir() + "cfir_obs_" + tag + ".tmp") {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(ObsMetrics, CountersExactUnderParallelHammering) {
  Registry& reg = Registry::instance();
  reg.reset();
  constexpr size_t kTasks = 64;
  constexpr int kAddsPerTask = 1000;
  // Every task bumps one shared counter AND its own striped counter, mixing
  // find-or-create races with pure add races.
  sim::parallel_for(
      kTasks,
      [&](size_t i) {
        for (int k = 0; k < kAddsPerTask; ++k) {
          reg.counter("obs_test.shared").add(1);
          reg.counter("obs_test.stripe_" + std::to_string(i % 7)).add(2);
          reg.histogram("obs_test.lat").observe(i + 1);
          reg.gauge("obs_test.level").set(static_cast<double>(i));
        }
      },
      8);
  EXPECT_EQ(reg.counter("obs_test.shared").value(), kTasks * kAddsPerTask);
  uint64_t striped = 0;
  for (int s = 0; s < 7; ++s) {
    striped += reg.counter("obs_test.stripe_" + std::to_string(s)).value();
  }
  EXPECT_EQ(striped, 2u * kTasks * kAddsPerTask);
  EXPECT_EQ(reg.histogram("obs_test.lat").count(), kTasks * kAddsPerTask);
  EXPECT_EQ(reg.histogram("obs_test.lat").min(), 1u);
  EXPECT_EQ(reg.histogram("obs_test.lat").max(), kTasks);
  reg.reset();
}

TEST(ObsMetrics, KindMismatchThrows) {
  Registry& reg = Registry::instance();
  reg.reset();
  reg.counter("obs_test.kind").add(1);
  EXPECT_THROW((void)reg.gauge("obs_test.kind"), std::logic_error);
  EXPECT_THROW((void)reg.histogram("obs_test.kind"), std::logic_error);
  reg.reset();
}

TEST(ObsMetrics, SnapshotSortedAndJsonWellFormed) {
  Registry& reg = Registry::instance();
  reg.reset();
  reg.counter("obs_test.b").add(2);
  reg.counter("obs_test.a").add(1);
  reg.histogram("obs_test.h").observe(10);
  const std::vector<MetricSample> snap = reg.snapshot();
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].name, snap[i].name);
  }
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"obs_test.a\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.h\""), std::string::npos);
  // Brace balance as a cheap well-formedness proxy (full validation runs
  // in CI via python -m json.tool on the bench telemetry line).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  reg.reset();
}

// ---------------------------------------------------------------------------
// Tracer export
// ---------------------------------------------------------------------------

/// Minimal per-line scan of the one-event-per-line export: extracts "ph"
/// and "tid" without a JSON library.
struct ExportedEvent {
  char ph = 0;
  long tid = -1;
};

std::vector<ExportedEvent> scan_export(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<ExportedEvent> events;
  std::string line;
  while (std::getline(in, line)) {
    const size_t ph = line.find("\"ph\":\"");
    if (ph == std::string::npos) continue;
    ExportedEvent e;
    e.ph = line[ph + 6];
    const size_t tid = line.find("\"tid\":");
    if (tid != std::string::npos) {
      e.tid = std::strtol(line.c_str() + tid + 6, nullptr, 10);
    }
    events.push_back(e);
  }
  return events;
}

TEST(ObsTracer, ExportBalancedSpansAcrossThreads) {
  TempFile out("trace");
  Tracer::instance().start(out.path());
  ASSERT_TRUE(Tracer::enabled());
  sim::parallel_for(
      16,
      [&](size_t i) {
        Span outer("test.outer", i);
        Tracer::counter("test.progress", i);
        { Span inner("test.inner"); }
        Tracer::instant("test.mark");
      },
      4);
  EXPECT_GT(Tracer::instance().recorded_events(), 0u);
  Tracer::instance().stop();
  EXPECT_FALSE(Tracer::enabled());

  const std::vector<ExportedEvent> events = scan_export(out.path());
  ASSERT_FALSE(events.empty());
  // Balanced B/E per thread lane: depth never dips negative, ends at zero.
  std::map<long, long> depth;
  for (const ExportedEvent& e : events) {
    if (e.ph == 'B') ++depth[e.tid];
    if (e.ph == 'E') {
      --depth[e.tid];
      EXPECT_GE(depth[e.tid], 0) << "unbalanced E on tid " << e.tid;
    }
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;

  // The file must parse as one JSON object per event line with a closing
  // bracket — spot-check the envelope.
  std::ifstream in(out.path());
  std::stringstream whole;
  whole << in.rdbuf();
  const std::string text = whole.str();
  EXPECT_EQ(text.rfind("{\"displayTimeUnit\"", 0), 0u);
  EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(text.find("]}"), std::string::npos);
}

TEST(ObsTracer, SpanOpenAcrossStopStillBalances) {
  TempFile out("trace_open");
  Tracer::instance().start(out.path());
  {
    Span open_span("test.open");
    // Stop while the span is still open: the exporter synthesizes the
    // matching end event instead of emitting an unbalanced file.
    Tracer::instance().stop();
  }
  const std::vector<ExportedEvent> events = scan_export(out.path());
  long depth = 0;
  for (const ExportedEvent& e : events) {
    if (e.ph == 'B') ++depth;
    if (e.ph == 'E') --depth;
  }
  EXPECT_EQ(depth, 0);
}

TEST(ObsTracer, DisabledRecordingIsDropped) {
  Tracer::instance().stop();
  ASSERT_FALSE(Tracer::enabled());
  const uint64_t before = Tracer::instance().recorded_events();
  {
    Span s("test.disabled");
    Tracer::counter("test.disabled_counter", 1);
  }
  EXPECT_EQ(Tracer::instance().recorded_events(), before);
}

// ---------------------------------------------------------------------------
// The invariant everything above exists to protect: telemetry does not
// change simulated results.
// ---------------------------------------------------------------------------

TEST(ObsTracer, SampledRunStatsBitIdenticalWithTracingOn) {
  const isa::Program program = workloads::build("gzip", 1);
  const trace::IntervalPlan plan = trace::plan_intervals(
      program, 4, 60000, 0, trace::WarmMode::kFunctional, 0);
  const core::CoreConfig config = sim::presets::ci(2, 512);

  Tracer::instance().stop();
  const trace::SampledRun off = trace::sampled_run(config, program, plan, 2);

  TempFile out("identical");
  Tracer::instance().start(out.path());
  const trace::SampledRun on = trace::sampled_run(config, program, plan, 2);
  Tracer::instance().stop();

  // Serialized stats compare byte-for-byte: any telemetry bleed into
  // simulated state shows up here.
  EXPECT_EQ(stats::to_json(off.aggregate), stats::to_json(on.aggregate));
  ASSERT_EQ(off.intervals.size(), on.intervals.size());
  for (size_t i = 0; i < off.intervals.size(); ++i) {
    EXPECT_EQ(stats::to_json(off.intervals[i].stats),
              stats::to_json(on.intervals[i].stats))
        << "interval " << i;
  }
  EXPECT_EQ(off.detailed_insts, on.detailed_insts);
  EXPECT_EQ(off.warmed_insts, on.warmed_insts);
}

TEST(ObsMetrics, ShardUnitsReportTheirParts) {
  // Every detailed unit splits its wall into restore, install (functional
  // warming only) and detail histograms; warm snapshots count their bytes.
  Registry& reg = Registry::instance();
  const isa::Program program = workloads::build("gzip", 1);
  const trace::IntervalPlan plan = trace::plan_intervals(
      program, 4, 60000, 0, trace::WarmMode::kFunctional, 0);
  const auto count = [&](const char* name) {
    return reg.histogram(name).count();
  };
  const uint64_t units0 = count("shard.unit_us");
  const uint64_t restore0 = count("shard.restore_us");
  const uint64_t install0 = count("shard.install_us");
  const uint64_t detail0 = count("shard.detail_us");
  const uint64_t bytes0 = reg.counter("warming.snapshot_bytes").value();
  (void)trace::sampled_run(sim::presets::ci(2, 512), program, plan, 2);
  const uint64_t units = count("shard.unit_us") - units0;
  EXPECT_GT(units, 0u);
  EXPECT_EQ(count("shard.restore_us") - restore0, units);
  EXPECT_EQ(count("shard.install_us") - install0, units);
  EXPECT_EQ(count("shard.detail_us") - detail0, units);
  EXPECT_GT(reg.counter("warming.snapshot_bytes").value(), bytes0);
}

}  // namespace
}  // namespace cfir::obs
