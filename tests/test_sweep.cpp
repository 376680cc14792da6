#include "sim/sweep.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "sim/options.hpp"
#include "sim/pool.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "stats/stats.hpp"
#include "util/parse.hpp"
#include "util/warmable.hpp"
#include "workloads/workloads.hpp"

namespace cfir::sim {
namespace {

/// Unsets every CFIR_* variable, so a knob set on the host cannot leak
/// into a test that sets its own.
void clear_knobs() {
  std::vector<std::string> names;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view var = *entry;
    if (var.starts_with("CFIR_")) {
      names.emplace_back(var.substr(0, var.find('=')));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

/// Options::from_env() must throw the usage error the entry points exit 2
/// on, naming every string in `parts`.
void expect_rejected(const std::vector<std::string>& parts) {
  try {
    (void)Options::from_env();
    ADD_FAILURE() << parts.front() << " was accepted";
  } catch (const util::UsageError& e) {
    const std::string what = e.what();
    for (const std::string& part : parts) {
      EXPECT_NE(what.find(part), std::string::npos) << what;
    }
  }
}

std::vector<uint8_t> stats_bytes(const stats::SimStats& s) {
  util::ByteWriter w;
  stats::serialize(s, w);
  return w.take();
}

/// A grid point simulated alone: a fresh Simulator run to `max_insts`
/// (0 = to HALT), and whether it reached its register or ROB capacity.
struct OwnRun {
  std::vector<uint8_t> stats;
  bool hit_capacity = false;
};
OwnRun own_run(const core::CoreConfig& config, const isa::Program& program,
               uint64_t max_insts) {
  Simulator sim(config, program);
  const stats::SimStats s = sim.run(max_insts == 0 ? UINT64_MAX : max_insts);
  return {stats_bytes(s), sim.hit_capacity()};
}

/// The cover rule on own runs alone: whenever a member's own run never
/// reached capacity, every member it covers must have produced the same
/// stats bytes when run alone. Returns how many covered pairs it checked.
size_t expect_unbound_runs_cover(const std::vector<core::CoreConfig>& configs,
                                 const std::vector<OwnRun>& runs,
                                 const std::string& what) {
  size_t pairs = 0;
  for (size_t a = 0; a < configs.size(); ++a) {
    if (runs[a].hit_capacity) continue;
    for (size_t b = 0; b < configs.size(); ++b) {
      if (b == a || !configs[a].covers(configs[b], false)) continue;
      ++pairs;
      EXPECT_EQ(runs[a].stats, runs[b].stats)
          << what << ": unbound " << configs[a].label() << " (rob "
          << configs[a].rob_size << ") covers " << configs[b].label()
          << " (rob " << configs[b].rob_size << ")";
    }
  }
  return pairs;
}

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
  // run_shard — one plan chain (`sweep.chain_us` sample) for all three —
  // and each column must be bit-identical to running the spec alone.
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
  obs::Histogram& chains =
      obs::Registry::instance().histogram("sweep.chain_us");
  const uint64_t chains_before = chains.count();
  const auto together = run_all(grid, 2);
  ASSERT_EQ(together.size(), 3u);
  EXPECT_EQ(chains.count() - chains_before, 1u);

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
  // outcome or phase field may depend on that schedule.
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
  obs::Histogram& chains =
      obs::Registry::instance().histogram("sweep.chain_us");

  std::vector<RunOutcome> outs[2];
  for (const int t : {0, 1}) {
    const uint64_t chains_before = chains.count();
    outs[t] = run_all(grid, t == 0 ? 1 : 4);
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
}

TEST(Sweep, CapacityFamiliesMatchEveryMemberRunAlone) {
  // Every kernel under ci, vect and scal, swept from a register file that
  // binds to one that cannot: run_all (which reuses covered cells) must
  // equal each cell's own Simulator run at 1 and 4 threads, and the cover
  // rule must hold on the own runs themselves.
  // 72 is the smallest file the Core accepts: the 64 logical registers
  // plus 8 to rename into. At this cap the first member that never binds
  // lies anywhere from 256 to 8192 registers, by kernel and policy.
  const std::vector<uint32_t> regs = {72, 128, 256, 288, 320, 384, 512, 8192};
  const uint64_t cap = 10000;
  std::vector<RunSpec> specs;
  for (const std::string& wl : workloads::names()) {
    for (const char* policy : {"ci", "vect", "scal"}) {
      for (const uint32_t r : regs) {
        RunSpec s;
        s.workload = wl;
        s.config_name = std::string(policy) + "/" + std::to_string(r);
        s.config = presets::from_spec(std::string(policy) + ":2:" +
                                      std::to_string(r));
        s.max_insts = cap;
        specs.push_back(std::move(s));
      }
    }
  }
  std::vector<isa::Program> programs;
  for (const std::string& wl : workloads::names()) {
    programs.push_back(workloads::build(wl, 1));
  }
  const size_t per_workload = specs.size() / programs.size();
  std::vector<OwnRun> own(specs.size());
  parallel_for(
      specs.size(),
      [&](size_t i) {
        own[i] = own_run(specs[i].config, programs[i / per_workload], cap);
      },
      4);
  size_t covered_pairs = 0;
  for (size_t f = 0; f < specs.size(); f += regs.size()) {
    const auto first = own.begin() + static_cast<std::ptrdiff_t>(f);
    const auto last = first + static_cast<std::ptrdiff_t>(regs.size());
    std::vector<core::CoreConfig> family;
    for (size_t m = f; m < f + regs.size(); ++m) {
      family.push_back(specs[m].config);
    }
    const std::string name = specs[f].workload + "/" + specs[f].config_name;
    // Each family crosses from bound to unbound.
    EXPECT_TRUE(first->hit_capacity) << name;
    EXPECT_FALSE((last - 1)->hit_capacity) << name;
    covered_pairs += expect_unbound_runs_cover(family, {first, last}, name);
  }
  EXPECT_GE(covered_pairs, specs.size() / regs.size());

  obs::Counter& reused = obs::Registry::instance().counter("sweep.cells_reused");
  for (const int threads : {1, 4}) {
    const uint64_t reused_before = reused.value();
    const std::vector<RunOutcome> out = run_all(specs, threads);
    ASSERT_EQ(out.size(), specs.size());
    size_t zero_wall = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(stats_bytes(out[i].stats), own[i].stats)
          << specs[i].workload << "/" << specs[i].config_name << " threads "
          << threads;
      EXPECT_EQ(out[i].detailed_insts, out[i].stats.committed);
      if (out[i].wall_ms == 0) ++zero_wall;
    }
    EXPECT_GT(reused.value() - reused_before, 0u) << "threads " << threads;
    EXPECT_GE(zero_wall, reused.value() - reused_before);
  }

  // The same invariant on random programs with 8 to 64 registers to
  // rename into, at the default window and at a 32-entry one that fills.
  parallel_for(
      12,
      [&](size_t seed) {
        const isa::Program program = cfir::testing::random_program(seed + 1);
        for (const char* policy : {"ci", "vect", "scal"}) {
          for (const uint32_t rob : {32u, 256u}) {
            std::vector<core::CoreConfig> family;
            std::vector<OwnRun> runs;
            for (const uint32_t r : {72u, 80u, 88u, 104u, 128u}) {
              core::CoreConfig config = presets::from_spec(
                  std::string(policy) + ":2:" + std::to_string(r));
              config.rob_size = rob;
              family.push_back(config);
              runs.push_back(own_run(config, program, 0));
            }
            expect_unbound_runs_cover(
                family, runs,
                "random_program(" + std::to_string(seed + 1) + ") " + policy +
                    " rob " + std::to_string(rob));
          }
        }
      },
      4);
}

TEST(Sweep, RegisterFileRefusalsMarkTheRunBound) {
  // A refused replica allocation leaves rename enough registers, so the
  // run may never stall, yet a larger file would have granted it: the
  // refusal alone must mark the run as having hit capacity.
  core::PhysRegFile file(72);
  for (int i = 0; i < 56; ++i) ASSERT_GE(file.alloc(), 0);
  EXPECT_FALSE(file.refused());
  EXPECT_EQ(file.alloc_replica(16), -1);
  EXPECT_TRUE(file.refused());

  core::PhysRegFile empty(72);
  for (int i = 0; i < 72; ++i) ASSERT_GE(empty.alloc(), 0);
  EXPECT_FALSE(empty.refused());
  EXPECT_EQ(empty.alloc(), -1);
  EXPECT_TRUE(empty.refused());
}

TEST(Sweep, LargerFileWithSmallerRobStillRuns) {
  // Sorted by registers, the 2048-register, 512-entry point comes after
  // the unbound 1024/1024 one but has the smaller ROB, so it is not
  // covered and runs; the 2048/2048 point is covered and reuses.
  const auto point = [](uint32_t regs, uint32_t rob) {
    core::CoreConfig config = presets::scal(2, regs);
    config.rob_size = rob;
    return config;
  };
  const core::CoreConfig unbound = point(1024, 1024);
  const core::CoreConfig smaller_rob = point(2048, 512);
  const core::CoreConfig covered = point(2048, 2048);
  EXPECT_FALSE(unbound.covers(smaller_rob, false));
  EXPECT_TRUE(unbound.covers(covered, false));
  EXPECT_FALSE(unbound.covers(covered, true));

  const isa::Program program = workloads::build("gap", 1);
  ASSERT_FALSE(own_run(unbound, program, 20000).hit_capacity);
  std::vector<RunSpec> specs;
  for (const core::CoreConfig& config : {covered, smaller_rob, unbound}) {
    RunSpec s;
    s.workload = "gap";
    s.config_name = std::to_string(config.num_phys_regs) + "/" +
                    std::to_string(config.rob_size);
    s.config = config;
    s.max_insts = 20000;
    specs.push_back(std::move(s));
  }
  obs::Registry& reg = obs::Registry::instance();
  const uint64_t reused_before = reg.counter("sweep.cells_reused").value();
  const uint64_t ran_before = reg.histogram("sweep.mono_us").count();
  const std::vector<RunOutcome> out = run_all(specs, 1);
  EXPECT_EQ(reg.counter("sweep.cells_reused").value() - reused_before, 1u);
  EXPECT_EQ(reg.histogram("sweep.mono_us").count() - ran_before, 2u);
  EXPECT_EQ(out[0].wall_ms, 0.0);
  EXPECT_GT(out[1].wall_ms, 0.0);
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(stats_bytes(out[i].stats),
              own_run(specs[i].config, program, 20000).stats)
        << specs[i].config_name;
  }
}

TEST(Sweep, TwoNamesForOneConfigShareOneRun) {
  // An identical config is covered whether or not its run hit capacity:
  // ci at 80 registers binds, and its second name still reuses the run.
  RunSpec a;
  a.workload = "bzip2";
  a.config_name = "first";
  a.config = presets::ci(2, 80);
  a.max_insts = 10000;
  RunSpec b = a;
  b.config_name = "second";
  const isa::Program program = workloads::build("bzip2", 1);
  ASSERT_TRUE(own_run(a.config, program, a.max_insts).hit_capacity);

  obs::Counter& reused = obs::Registry::instance().counter("sweep.cells_reused");
  const uint64_t before = reused.value();
  const std::vector<RunOutcome> out = run_all({a, b}, 4);
  EXPECT_EQ(reused.value() - before, 1u);
  EXPECT_EQ(out[0].spec.config_name, "first");
  EXPECT_EQ(out[1].spec.config_name, "second");
  EXPECT_EQ(stats_bytes(out[0].stats), stats_bytes(out[1].stats));
  EXPECT_EQ(out[0].detailed_insts, out[1].detailed_insts);
  EXPECT_GT(out[0].wall_ms, 0.0);
  EXPECT_EQ(out[1].wall_ms, 0.0);
  EXPECT_EQ(out[0].simulated_insts(), out[0].detailed_insts);
  EXPECT_EQ(out[1].simulated_insts(), 0u);
}

TEST(Sweep, ThrowingMemberNamesItsSpecAndStopsItsFamily) {
  // The family's smallest member cannot hold the logical file, so the
  // Core refuses it; the error names that spec, and the larger member,
  // which would otherwise run next, never runs.
  RunSpec tiny;
  tiny.workload = "bzip2";
  tiny.config_name = "tiny";
  tiny.config = presets::scal(1, 64);
  tiny.max_insts = 1000;
  RunSpec big = tiny;
  big.config_name = "big";
  big.config = presets::scal(1, 256);
  obs::Registry& reg = obs::Registry::instance();
  const uint64_t ran_before = reg.histogram("sweep.mono_us").count();
  const uint64_t reused_before = reg.counter("sweep.cells_reused").value();
  try {
    (void)run_all({big, tiny}, 1);
    FAIL() << "a spec the Core refuses did not throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("run 'bzip2/tiny' failed"), std::string::npos)
        << what;
    EXPECT_NE(what.find("num_phys_regs too small"), std::string::npos)
        << what;
  }
  EXPECT_EQ(reg.histogram("sweep.mono_us").count(), ran_before);
  EXPECT_EQ(reg.counter("sweep.cells_reused").value(), reused_before);
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
  // max_insts 0); only an unset or empty variable leaves the binary's own
  // default (30k for benches, 200k for workload_explorer).
  clear_knobs();
  EXPECT_FALSE(Options::from_env().max_insts.has_value());
  ASSERT_EQ(setenv("CFIR_MAX_INSTS", "", 1), 0);
  EXPECT_FALSE(Options::from_env().max_insts.has_value());
  ASSERT_EQ(setenv("CFIR_MAX_INSTS", "0", 1), 0);
  EXPECT_EQ(Options::from_env().max_insts, 0u);
  ASSERT_EQ(setenv("CFIR_MAX_INSTS", "5000", 1), 0);
  EXPECT_EQ(Options::from_env().max_insts, 5000u);
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
  // Every declared knob, by the rule of its type: it reads a good value
  // back, takes an empty value as its default, and rejects anything else
  // naming the knob and the value. Numbers are whole decimals that fit
  // the field (CFIR_SCALE at least 1), enums their spelled names, flags
  // 0 or 1; paths take any text.
  const std::vector<std::string> not_numbers = {"1e5", "4k", "2x", "abc",
                                                "-1",  "+3", " 7"};
  const auto numbers = [&](std::vector<std::string> more) {
    more.insert(more.end(), not_numbers.begin(), not_numbers.end());
    return more;
  };
  struct Knob {
    const char* name;
    std::function<std::string(const Options&)> read;  ///< field as text
    const char* good;               ///< accepted, and reads back as itself
    std::vector<std::string> bad;   ///< rejected
  };
  const Knob knobs[] = {
      {"CFIR_SCALE", [](const Options& o) { return std::to_string(o.scale); },
       "42", numbers({"0", "4294967296"})},
      {"CFIR_THREADS",
       [](const Options& o) { return std::to_string(o.threads); }, "42",
       numbers({"2147483648"})},
      {"CFIR_MAX_INSTS",
       [](const Options& o) {
         return o.max_insts ? std::to_string(*o.max_insts) : "unset";
       },
       "42", numbers({"18446744073709551616"})},
      {"CFIR_INTERVALS",
       [](const Options& o) { return std::to_string(o.intervals); }, "42",
       numbers({"4294967296"})},
      {"CFIR_SAMPLE_MODE",
       [](const Options& o) {
         return std::string(trace::sample_mode_name(o.sample_mode));
       },
       "cluster", {"clustr", "Cluster", "1"}},
      {"CFIR_WARMUP", [](const Options& o) { return std::to_string(o.warmup); },
       "42", numbers({"18446744073709551616"})},
      {"CFIR_WARM_MODE",
       [](const Options& o) {
         return std::string(trace::warm_mode_name(o.warm_mode));
       },
       "functional", {"functionl", "Hybrid", "2"}},
      {"CFIR_DETAIL_LEN",
       [](const Options& o) { return std::to_string(o.detail_len); }, "42",
       numbers({"18446744073709551616"})},
      {"CFIR_JSON",
       [](const Options& o) { return std::string(o.json ? "1" : "0"); }, "1",
       {"no", "yes", "true", "2"}},
      {"CFIR_TRACE", [](const Options& o) { return o.trace; }, "run.json",
       {}},
      {"CFIR_TRACE_DIR", [](const Options& o) { return o.trace_dir; }, "out",
       {}},
  };
  clear_knobs();
  const Options defaults;
  for (const Knob& k : knobs) {
    SCOPED_TRACE(k.name);
    ASSERT_EQ(setenv(k.name, k.good, 1), 0);
    EXPECT_EQ(k.read(Options::from_env()), k.good);
    ASSERT_EQ(setenv(k.name, "", 1), 0);
    EXPECT_EQ(k.read(Options::from_env()), k.read(defaults));
    for (const std::string& bad : k.bad) {
      ASSERT_EQ(setenv(k.name, bad.c_str(), 1), 0);
      expect_rejected({k.name, "'" + bad + "'"});
    }
    ASSERT_EQ(unsetenv(k.name), 0);
  }
  // CFIR_TRACE=0 is off, as unset is.
  ASSERT_EQ(setenv("CFIR_TRACE", "0", 1), 0);
  EXPECT_EQ(Options::from_env().trace, "");
  ASSERT_EQ(unsetenv("CFIR_TRACE"), 0);
  // A name no knob declares is rejected by name, even when empty.
  for (const char* name : {"CFIR_INTERVAL", "CFIR_SCALES", "CFIR_"}) {
    for (const char* value : {"4", ""}) {
      ASSERT_EQ(setenv(name, value, 1), 0);
      expect_rejected({name});
      ASSERT_EQ(unsetenv(name), 0);
    }
  }
  // The thread pool sizes itself through the same parser.
  ASSERT_EQ(setenv("CFIR_THREADS", "4k", 1), 0);
  EXPECT_THROW(ThreadPool pool(0), std::runtime_error);
  ASSERT_EQ(unsetenv("CFIR_THREADS"), 0);
}

TEST(Sweep, LibraryPathsRunWithRetiredKnobsSet) {
  // A program that drives the library directly may set names no knob
  // declares (perfbench sets these four retired ones). The entry points'
  // Options::from_env() rejects each by name, but nothing the library
  // runs reads them: the shared pool sizes itself from CFIR_THREADS
  // alone, and run_all takes everything else from its specs.
  clear_knobs();
  const std::pair<const char*, const char*> retired[] = {
      {"CFIR_ENGINE", "cached"},
      {"CFIR_CORE_SCHED", "fast"},
      {"CFIR_WARM_JOBS", "0"},
      {"CFIR_TRACE_FORMAT", "v2"}};
  for (const auto& [name, value] : retired) {
    ASSERT_EQ(setenv(name, value, 1), 0);
    expect_rejected({name});
    ASSERT_EQ(unsetenv(name), 0);
  }
  for (const auto& [name, value] : retired) {
    ASSERT_EQ(setenv(name, value, 1), 0);
  }
  ASSERT_EQ(setenv("CFIR_THREADS", "2", 1), 0);
  const ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 2);

  RunSpec mono;
  mono.workload = "bzip2";
  mono.config_name = "ci";
  mono.config = presets::ci(2, 512);
  mono.max_insts = 4000;
  RunSpec sampled = mono;
  sampled.intervals = 2;
  sampled.warm_mode = trace::WarmMode::kFunctional;
  const auto out = run_all({mono, sampled});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].stats.committed, 4000u);
  EXPECT_EQ(out[1].stats.committed, 4000u);
  EXPECT_EQ(out[1].phases.size(), 2u);
  clear_knobs();
}

}  // namespace
}  // namespace cfir::sim
