// Throughput regression guard for the pipelined warming path: on an
// optimized build with at least 4 hardware threads, the block-parallel
// 8-config grid capture (jobs = auto) must warm at least 1.5x as fast as
// the sequential reference path (bench/micro_warming prints the full
// picture; this test keeps the speedup from silently regressing).
// Skipped on Debug builds and under sanitizers, where instrumentation
// and lock overhead flatten the parallelism the guard measures, and on
// hosts too narrow for the fan-out to pay off. A wall-clock guard:
// registered only with -DCFIR_PERF_TESTS=ON (ctest label `perf`) and run
// on its own, never inside a parallel ctest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "obs/metrics.hpp"
#include "sim/presets.hpp"
#include "trace/trace.hpp"
#include "trace/warming.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace cfir;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// Best-of-N wall time for one full trace-fed grid capture, fresh reader
/// each sample so every run pays block decode.
double best_us(const std::vector<core::CoreConfig>& configs,
               const isa::Program& program, const std::string& trace_path,
               const std::vector<uint64_t>& targets, int jobs, int repeats) {
  double best = 1e18;
  for (int r = 0; r < repeats; ++r) {
    trace::TraceReader reader(trace_path);
    const obs::Stopwatch clock;
    const auto blobs = trace::capture_warm_states_grid(configs, program,
                                                       reader, targets, jobs);
    best = std::min(best, static_cast<double>(clock.elapsed_us()));
    EXPECT_EQ(blobs.size(), configs.size());
  }
  return best;
}

TEST(WarmingBench, PipelinedGridAtLeast1_5xSequential) {
  if (!kOptimized || kSanitized) {
    GTEST_SKIP() << "throughput guard needs an optimized, uninstrumented "
                    "build (Debug or sanitizer detected)";
  }
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "pipelined fan-out guard needs >= 4 hardware threads";
  }

  // bzip2 s8 capped at ~600k records: long enough that thread handoff and
  // timer granularity vanish against the 8 x 600k training calls, short
  // enough for a sub-second sequential pass.
  const isa::Program program = workloads::build("bzip2", 8);
  const std::string path = std::string(::testing::TempDir()) +
                           "cfir_warm_bench_" +
                           std::to_string(reinterpret_cast<uintptr_t>(&program));
  trace::TraceMeta meta;
  meta.workload = "bzip2";
  meta.scale = 8;
  trace::record_interpreter(program, path, meta, 600'000,
                            trace::TraceFormat::kV2);
  uint64_t total = 0;
  {
    trace::TraceReader reader(path);
    total = reader.record_count();
  }
  std::vector<uint64_t> targets;
  for (uint64_t i = 1; i <= 8; ++i) targets.push_back(total * i / 8);

  const std::vector<core::CoreConfig> grid = {
      sim::presets::scal(2, 256),      sim::presets::scal(2, 512),
      sim::presets::wb(2, 256),        sim::presets::wb(2, 512),
      sim::presets::ci(2, 256),        sim::presets::ci(2, 512),
      sim::presets::ci_window(2, 512), sim::presets::vect(2, 512)};

  const double seq_us = best_us(grid, program, path, targets, /*jobs=*/1,
                                /*repeats=*/3);
  const double pipe_us = best_us(grid, program, path, targets, /*jobs=*/0,
                                 /*repeats=*/3);
  std::remove(path.c_str());
  ASSERT_GT(pipe_us, 0.0);
  const double speedup = seq_us / pipe_us;
  RecordProperty("speedup", std::to_string(speedup));
  EXPECT_GE(speedup, 1.5) << "pipelined 8-config warming only " << speedup
                          << "x the sequential reference path";
}

}  // namespace
