// Throughput regression guard for the fast detailed-core scheduler: on an
// optimized build, CFIR_CORE_SCHED=fast must simulate at least 1.5x as
// fast as the reference scheduler somewhere in the wide-window regime the
// rewrite targets (bench/micro_detailed prints the full table; the
// differential suite proves the two bit-identical, so this guard measures
// pure host-side scheduling cost). Skipped on Debug builds and under
// sanitizers, where instrumentation swamps the data-structure costs the
// guard measures. A wall-clock guard: registered only with
// -DCFIR_PERF_TESTS=ON (ctest label `perf`) and run on its own, never
// inside a parallel ctest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "obs/metrics.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
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

/// The stress point the rewrite targets: a 1K-entry ROB / 512-entry LSQ
/// window on one memory port, where the reference scheduler's per-cycle
/// sort and stalled-load polling dominate the cycle loop.
core::CoreConfig wide_window_config() {
  core::CoreConfig c = sim::presets::scal(1, 2048);
  c.rob_size = 1024;
  c.lsq_size = 512;
  return c;
}

/// One detailed run to the commit budget under the named scheduler; fresh
/// Simulator per sample so no warmed state leaks between schedulers.
double run_us(const core::CoreConfig& config, const isa::Program& program,
              const char* sched, uint64_t max_insts) {
  setenv("CFIR_CORE_SCHED", sched, 1);
  sim::Simulator sim(config, program);
  const obs::Stopwatch clock;
  sim.run(max_insts);
  const double us = static_cast<double>(clock.elapsed_us());
  unsetenv("CFIR_CORE_SCHED");
  return us;
}

TEST(DetailedBench, FastSchedAtLeast1_5xRef) {
  if (!kOptimized || kSanitized) {
    GTEST_SKIP() << "throughput guard needs an optimized, uninstrumented "
                    "build (Debug or sanitizer detected)";
  }
  // Interleave ref/fast samples so host noise (frequency steps, competing
  // load) hits both schedulers alike, keep each side's best, and pass if
  // any workload clears the bar — a noisy sample on one kernel cannot
  // fail the guard.
  const core::CoreConfig config = wide_window_config();
  const uint64_t budget = 200000;  // committed insts per sample
  const int repeats = 5;
  double best_speedup = 0.0;
  for (const char* kernel : {"bzip2", "twolf"}) {
    const isa::Program program = workloads::build(kernel, 8);
    double ref_us = 1e18;
    double fast_us = 1e18;
    for (int r = 0; r < repeats; ++r) {
      ref_us = std::min(ref_us, run_us(config, program, "ref", budget));
      fast_us = std::min(fast_us, run_us(config, program, "fast", budget));
    }
    ASSERT_GT(fast_us, 0.0);
    best_speedup = std::max(best_speedup, ref_us / fast_us);
  }
  RecordProperty("speedup", std::to_string(best_speedup));
  EXPECT_GE(best_speedup, 1.5)
      << "fast scheduler only " << best_speedup
      << "x the reference scheduler at best";
}

}  // namespace
