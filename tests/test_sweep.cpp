#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>

#include "../bench/common.hpp"
#include "obs/metrics.hpp"
#include "sim/pool.hpp"
#include "sim/presets.hpp"
#include "stats/stats.hpp"
#include "util/parse.hpp"
#include "util/warmable.hpp"

namespace cfir::sim {
namespace {

TEST(Sweep, RunsGridInOrder) {
  std::vector<RunSpec> specs;
  for (const char* wl : {"bzip2", "eon"}) {
    for (uint32_t ports : {1u, 2u}) {
      RunSpec s;
      s.workload = wl;
      s.config_name = "scal" + std::to_string(ports) + "p";
      s.config = presets::scal(ports, 256);
      s.max_insts = 20000;
      specs.push_back(s);
    }
  }
  const auto out = run_all(specs, 2);
  ASSERT_EQ(out.size(), 4u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].spec.workload, specs[i].workload);
    EXPECT_EQ(out[i].spec.config_name, specs[i].config_name);
    EXPECT_GT(out[i].stats.committed, 0u);
    EXPECT_GT(out[i].stats.ipc(), 0.0);
  }
}

TEST(Sweep, ParallelEqualsSerial) {
  std::vector<RunSpec> specs;
  for (const char* wl : {"gap", "vpr", "twolf"}) {
    RunSpec s;
    s.workload = wl;
    s.config_name = "ci";
    s.config = presets::ci(2, 512);
    s.max_insts = 20000;
    specs.push_back(s);
  }
  const auto serial = run_all(specs, 1);
  const auto parallel = run_all(specs, 3);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].stats.cycles, parallel[i].stats.cycles) << i;
    EXPECT_EQ(serial[i].stats.committed, parallel[i].stats.committed) << i;
    EXPECT_EQ(serial[i].stats.reused_committed,
              parallel[i].stats.reused_committed)
        << i;
  }
}

// Worker exceptions must reach the caller: a sweep that swallowed them
// would report zeroed outcomes as if the grid point ran. The first thrown
// error is rethrown on the calling thread after the pool joins, for both
// the inline (threads <= 1) and the threaded path.
TEST(Sweep, ParallelForRethrowsWorkerException) {
  for (const int threads : {1, 4}) {
    std::atomic<size_t> ran{0};
    try {
      parallel_for(
          8,
          [&](size_t i) {
            ran.fetch_add(1);
            if (i == 3) throw std::runtime_error("task 3 exploded");
          },
          threads);
      FAIL() << "parallel_for swallowed the worker exception (threads="
             << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3 exploded") << "threads=" << threads;
    }
    // Failure stops the pool handing out further work, so not every task
    // necessarily ran — but the throwing one did.
    EXPECT_GE(ran.load(), 4u) << "threads=" << threads;
    EXPECT_LE(ran.load(), 8u) << "threads=" << threads;
  }
}

// Every task completed => no exception, all indices visited exactly once.
TEST(Sweep, ParallelForRunsEachIndexOnce) {
  std::vector<std::atomic<int>> hits(64);
  parallel_for(hits.size(), [&](size_t i) { hits[i].fetch_add(1); }, 4);
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Sweep, UnknownWorkloadReportsError) {
  std::vector<RunSpec> specs(1);
  specs[0].workload = "doom";
  specs[0].config = presets::scal(1, 256);
  specs[0].max_insts = 10;
  EXPECT_THROW(run_all(specs, 1), std::runtime_error);
}

TEST(Sweep, SampledSpecsExposePhases) {
  // A sampled grid point surfaces per-phase stats that sum to its
  // aggregate.
  RunSpec whole;
  whole.workload = "bzip2";
  whole.config_name = "ci";
  whole.config = presets::ci(2, 512);
  whole.max_insts = 30000;
  whole.intervals = 4;
  whole.warmup = 200;

  const auto out = run_all({whole}, 1);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].phases.size(), 4u);
  uint64_t phase_committed = 0;
  for (const trace::SampledRun::Interval& ph : out[0].phases) {
    EXPECT_EQ(ph.weight, 1.0);
    phase_committed += ph.stats.committed;
  }
  EXPECT_EQ(phase_committed, out[0].stats.committed);
  // Monolithic specs keep phases empty.
  RunSpec mono = whole;
  mono.intervals = 1;
  EXPECT_TRUE(run_all({mono}, 1)[0].phases.empty());
}

TEST(Sweep, SharedPlanGridMatchesPerColumnRunsAndReportsSavings) {
  // Config columns sharing one plan execute as a single multi-config
  // run_shard; each column must be bit-identical to running the spec
  // alone, and the savings accounting must show the plan (and the
  // functional-warming stream) amortized across the columns.
  std::vector<RunSpec> grid;
  for (const uint32_t regs : {128u, 256u, 512u}) {
    RunSpec s;
    s.workload = "bzip2";
    s.config_name = "ci2p/" + std::to_string(regs) + "r";
    s.config = presets::ci(2, regs);
    s.max_insts = 30000;
    s.intervals = 4;
    s.warm_mode = trace::WarmMode::kFunctional;
    s.detail_len = 500;
    grid.push_back(std::move(s));
  }
  SweepSavings savings;
  const auto together = run_all(grid, 2, &savings);
  ASSERT_EQ(together.size(), 3u);
  EXPECT_EQ(savings.sampled_points, 3u);
  EXPECT_EQ(savings.plans, 1u);
  EXPECT_EQ(savings.checkpoints_per_column, savings.checkpoints * 3);
  ASSERT_GT(savings.warmed_insts, 0u);
  // The warming stream is shared: the per-column cost would be 3x.
  EXPECT_EQ(savings.warmed_insts_per_column, savings.warmed_insts * 3);

  for (size_t i = 0; i < grid.size(); ++i) {
    const auto alone = run_all({grid[i]}, 1);
    EXPECT_EQ(alone[0].stats.cycles, together[i].stats.cycles) << i;
    EXPECT_EQ(alone[0].stats.committed, together[i].stats.committed) << i;
    EXPECT_EQ(alone[0].stats.reused_committed,
              together[i].stats.reused_committed)
        << i;
    ASSERT_EQ(alone[0].phases.size(), together[i].phases.size()) << i;
  }
}

TEST(Sweep, SampledGridIdenticalAcrossThreadCounts) {
  // run_all runs each plan's plan -> warm -> detail chain as one pool task,
  // with run_shard's batches nested on the same pool, so chains of
  // different kernels interleave differently at every thread count. No
  // outcome, phase or savings field may depend on that schedule.
  std::vector<RunSpec> grid;
  for (const char* wl : {"bzip2", "gap", "parser", "twolf"}) {
    for (const char* config : {"ci:2:128", "ci:2:512", "vect:2:512"}) {
      RunSpec s;
      s.workload = wl;
      s.config_name = config;
      s.config = presets::from_spec(config);
      s.max_insts = 0;
      s.intervals = 8;
      s.sample_mode = trace::SampleMode::kCluster;
      s.warm_mode = trace::WarmMode::kFunctional;
      s.detail_len = 500;
      grid.push_back(std::move(s));
    }
  }
  const size_t plans = 4;
  const auto stats_bytes = [](const stats::SimStats& s) {
    util::ByteWriter w;
    stats::serialize(s, w);
    return w.take();
  };
  obs::Histogram& chains =
      obs::Registry::instance().histogram("sweep.chain_us");

  SweepSavings savings[2];
  std::vector<RunOutcome> outs[2];
  for (const int t : {0, 1}) {
    const uint64_t chains_before = chains.count();
    outs[t] = run_all(grid, t == 0 ? 1 : 4, &savings[t]);
    EXPECT_EQ(chains.count() - chains_before, plans) << "threads run " << t;
  }
  const std::vector<RunOutcome>& one = outs[0];
  const std::vector<RunOutcome>& four = outs[1];
  ASSERT_EQ(one.size(), grid.size());
  ASSERT_EQ(four.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    const std::string cell = grid[i].workload + "/" + grid[i].config_name;
    EXPECT_GT(one[i].stats.committed, 0u) << cell;
    EXPECT_EQ(stats_bytes(one[i].stats), stats_bytes(four[i].stats)) << cell;
    EXPECT_EQ(one[i].detailed_insts, four[i].detailed_insts) << cell;
    ASSERT_EQ(one[i].phases.size(), four[i].phases.size()) << cell;
    for (size_t ph = 0; ph < one[i].phases.size(); ++ph) {
      const trace::SampledRun::Interval& a = one[i].phases[ph];
      const trace::SampledRun::Interval& b = four[i].phases[ph];
      EXPECT_EQ(a.start_inst, b.start_inst) << cell << " phase " << ph;
      EXPECT_EQ(a.length, b.length) << cell << " phase " << ph;
      EXPECT_EQ(a.weight, b.weight) << cell << " phase " << ph;
      EXPECT_EQ(stats_bytes(a.stats), stats_bytes(b.stats))
          << cell << " phase " << ph;
    }
  }
  EXPECT_EQ(savings[0].sampled_points, grid.size());
  EXPECT_EQ(savings[0].plans, plans);
  EXPECT_GT(savings[0].warmed_insts, 0u);
  EXPECT_EQ(savings[0].sampled_points, savings[1].sampled_points);
  EXPECT_EQ(savings[0].plans, savings[1].plans);
  EXPECT_EQ(savings[0].checkpoints, savings[1].checkpoints);
  EXPECT_EQ(savings[0].checkpoints_per_column,
            savings[1].checkpoints_per_column);
  EXPECT_EQ(savings[0].warmed_insts, savings[1].warmed_insts);
  EXPECT_EQ(savings[0].warmed_insts_per_column,
            savings[1].warmed_insts_per_column);
}

// The memoized worker pool behind parallel_for and the warming pipeline:
// batches submitted concurrently from independent threads must each run
// every index exactly once (the pool multiplexes its workers across the
// live batches; each submitter drains its own).
TEST(Pool, ConcurrentBatchesFromTwoThreadsEachRunOnce) {
  ThreadPool& pool = ThreadPool::shared();
  std::vector<std::atomic<int>> a(48), b(48);
  std::thread ta([&] {
    pool.run(a.size(), [&](size_t i) { a[i].fetch_add(1); });
  });
  std::thread tb([&] {
    pool.run(b.size(), [&](size_t i) { b[i].fetch_add(1); });
  });
  ta.join();
  tb.join();
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].load(), 1) << i;
  for (size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i].load(), 1) << i;
}

// Nested run() must not deadlock even when every worker is already busy:
// the submitting task participates in draining its own inner batch, so
// the innermost batch always makes progress (the warming pipeline nests
// exactly like this — config fan-out inside a shard's interval task).
TEST(Pool, NestedRunCompletesAllIndices) {
  std::atomic<int> total{0};
  ThreadPool::shared().run(4, [&](size_t) {
    ThreadPool::shared().run(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

// max_workers caps the helpers a batch may borrow; with a cap of 1 the
// observed concurrency can never exceed 2 (one helper + the submitter),
// no matter how many workers the pool owns.
TEST(Pool, MaxWorkersBoundsConcurrency) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> live{0}, high{0};
  pool.run(
      64,
      [&](size_t) {
        const int now = live.fetch_add(1) + 1;
        int seen = high.load();
        while (now > seen && !high.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        live.fetch_sub(1);
      },
      /*max_workers=*/1);
  EXPECT_LE(high.load(), 2);
  EXPECT_GE(high.load(), 1);
}

TEST(Sweep, BenchMaxInstsDefaultsOnlyWhenUnset) {
  // README: CFIR_MAX_INSTS=0 runs every bench cell to HALT (RunSpec
  // max_insts 0); only an unset or empty variable means the 30k default.
  ASSERT_EQ(unsetenv("CFIR_MAX_INSTS"), 0);
  EXPECT_EQ(bench::default_max_insts(), 30000u);
  ASSERT_EQ(setenv("CFIR_MAX_INSTS", "", 1), 0);
  EXPECT_EQ(bench::default_max_insts(), 30000u);
  ASSERT_EQ(setenv("CFIR_MAX_INSTS", "0", 1), 0);
  EXPECT_EQ(bench::default_max_insts(), 0u);
  ASSERT_EQ(setenv("CFIR_MAX_INSTS", "5000", 1), 0);
  EXPECT_EQ(bench::default_max_insts(), 5000u);
  ASSERT_EQ(unsetenv("CFIR_MAX_INSTS"), 0);
}

TEST(ParseDecimal, AcceptsOnlyWholeDecimalsThatFit) {
  // The one numeric parser behind the CFIR_* knobs and the tools' numeric
  // arguments: digits only, within `max`, or an error naming the argument
  // and the text.
  EXPECT_EQ(util::parse_decimal("n", "0"), 0u);
  EXPECT_EQ(util::parse_decimal("n", "42"), 42u);
  EXPECT_EQ(util::parse_decimal("n", "007"), 7u);
  EXPECT_EQ(util::parse_decimal("n", "18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(util::parse_decimal("n", "255", 255), 255u);
  for (const std::string bad :
       {"", "1e3", "2k", "4x", "-1", "+3", " 7", "7 ", "0x10", "1.5",
        "18446744073709551616", "256"}) {
    try {
      (void)util::parse_decimal("--jobs", bad, 255);
      ADD_FAILURE() << "'" << bad << "' was accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--jobs"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + bad + "'"), std::string::npos) << what;
    }
  }
}

TEST(Sweep, NumericKnobsRejectMalformedValues) {
  // A numeric knob takes only a whole decimal string that fits its type;
  // anything else throws naming the knob and the value.
  struct Knob {
    const char* name;
    std::function<uint64_t()> read;
    const char* too_big;
  };
  const Knob knobs[] = {
      {"CFIR_MAX_INSTS", [] { return env_max_insts(); },
       "18446744073709551616"},
      {"CFIR_WARMUP", [] { return env_warmup(); }, "18446744073709551616"},
      {"CFIR_DETAIL_LEN", [] { return env_detail_len(); },
       "18446744073709551616"},
      {"CFIR_SCALE", [] { return uint64_t{env_scale()}; }, "4294967296"},
      {"CFIR_INTERVALS", [] { return uint64_t{env_intervals()}; },
       "4294967296"},
      {"CFIR_THREADS", [] { return static_cast<uint64_t>(env_threads()); },
       "2147483648"},
  };
  for (const Knob& k : knobs) {
    ASSERT_EQ(setenv(k.name, "42", 1), 0);
    EXPECT_EQ(k.read(), 42u) << k.name;
    for (const std::string bad :
         {"1e5", "4k", "2x", "abc", "-1", "+3", " 7", k.too_big}) {
      ASSERT_EQ(setenv(k.name, bad.c_str(), 1), 0);
      try {
        (void)k.read();
        ADD_FAILURE() << k.name << "='" << bad << "' was accepted";
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(k.name), std::string::npos) << what;
        EXPECT_NE(what.find("'" + bad + "'"), std::string::npos) << what;
      }
    }
    ASSERT_EQ(unsetenv(k.name), 0);
  }
  // The thread pool sizes itself through the same parser.
  ASSERT_EQ(setenv("CFIR_THREADS", "4k", 1), 0);
  EXPECT_THROW(ThreadPool pool(0), std::runtime_error);
  ASSERT_EQ(unsetenv("CFIR_THREADS"), 0);
}

}  // namespace
}  // namespace cfir::sim
