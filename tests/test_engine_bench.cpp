// Throughput regression guard for the superblock-caching engine: on an
// optimized build, FunctionalEngine must retire instructions at least 3x
// as fast as the switch-dispatch reference Interpreter (bench/micro_engine
// prints the full picture; this test keeps the speedup from silently
// regressing). Skipped on Debug builds and under sanitizers, where
// instrumentation flattens the dispatch-cost difference the guard measures.
// A wall-clock guard: registered only with -DCFIR_PERF_TESTS=ON (ctest
// label `perf`) and run on its own, never inside a parallel ctest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "isa/engine.hpp"
#include "isa/interpreter.hpp"
#include "mem/main_memory.hpp"
#include "obs/metrics.hpp"
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

/// Best-of-N wall time for one full run to HALT on `Engine` (the
/// Interpreter or FunctionalEngine), fresh state each sample.
template <typename Engine>
double best_us(const isa::Program& program, int repeats) {
  double best = 1e18;
  for (int r = 0; r < repeats; ++r) {
    mem::MainMemory memory;
    isa::load_data_image(program, memory);
    Engine engine(program, memory);
    const obs::Stopwatch clock;
    engine.run(UINT64_MAX);
    best = std::min(best, static_cast<double>(clock.elapsed_us()));
  }
  return best;
}

TEST(EngineBench, CachedEngineAtLeast3xSwitch) {
  if (!kOptimized || kSanitized) {
    GTEST_SKIP() << "throughput guard needs an optimized, uninstrumented "
                    "build (Debug or sanitizer detected)";
  }
  // Two kernels with different block shapes (~1-2M dynamic instructions
  // each: long enough that decode cost and timer granularity vanish, short
  // enough for a sub-second test); pass if either clears the bar, so a
  // noisy host sample on one workload cannot fail the guard.
  double best_speedup = 0.0;
  for (const char* kernel : {"bzip2", "parser"}) {
    const isa::Program program = workloads::build(kernel, 16);
    const double switch_us =
        best_us<isa::Interpreter>(program, /*repeats=*/3);
    const double cached_us =
        best_us<isa::FunctionalEngine>(program, /*repeats=*/3);
    ASSERT_GT(cached_us, 0.0);
    best_speedup = std::max(best_speedup, switch_us / cached_us);
  }
  RecordProperty("speedup", std::to_string(best_speedup));
  EXPECT_GE(best_speedup, 3.0)
      << "cached engine only " << best_speedup
      << "x the switch interpreter at best";
}

}  // namespace
