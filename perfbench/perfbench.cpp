// Repo benchmark program. perfbench/README.md describes the workloads, the
// metrics and how to read a traced run; perfbench/run.py builds this file
// and is the command to run.
//
// One process, at most nproc threads, drives the simulator through its
// public functions on one of three workloads:
//
//   full_s8       fig14 register-sweep grid (12 workloads x {ci, vect} x 5
//                 register points = 120 cells) at scale 8, every cell a
//                 monolithic sim::run_all cell run to HALT. Ground truth.
//   sampled_s8    the same 120 cells through run_all's in-process sampled
//                 pipeline (cluster plan, 16 windows, functional warming,
//                 detail_len 2000).
//   sharded_fine  the on-disk record -> plan -> shard -> merge path with
//                 fine SMARTS units: 12 workloads x {ci, vect} x {256, 512}
//                 regs, uniform 64-interval plans, detail_len 200, warming
//                 deferred to the shards and fed from CFIRTRC2 traces.
//
// A run sets up several times (setup_s), computes its reference (or loads
// it, cached per binary), then repeats passes of the workload for
// --seconds and reports the median pass wall. Every cell of every pass is
// checked bit-for-bit against the independently computed reference. With
// --trace 1 one pass runs with the benchmark's own spans around every
// public call, the per-layer metrics come from that pass, and the untraced
// passes still run so the tracing overhead can be reported.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "isa/engine.hpp"
#include "isa/interpreter.hpp"
#include "obs/metrics.hpp"
#include "sim/pool.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "stats/stats.hpp"
#include "trace/checkpoint.hpp"
#include "trace/manifest.hpp"
#include "trace/sampling.hpp"
#include "trace/shard.hpp"
#include "trace/trace.hpp"
#include "trace/warming.hpp"
#include "workloads/workloads.hpp"

namespace pb {

using namespace cfir;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Host helpers

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Resets the kernel's resident-memory high-water mark, so the next
/// peak_rss_mb() covers only what runs after this call.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

/// Resident-memory high-water mark (VmHWM) in MiB; the process-lifetime
/// ru_maxrss where /proc does not report it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double mean_ms(const std::vector<double>& secs) {
  return secs.empty() ? 0.0
                      : std::accumulate(secs.begin(), secs.end(), 0.0) * 1e3 /
                            static_cast<double>(secs.size());
}

uint64_t counter(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

uint64_t dir_bytes(const fs::path& dir) {
  uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += static_cast<uint64_t>(e.file_size());
  }
  return total;
}

// ---------------------------------------------------------------------------
// Simulated-stats identity: cells compare bit-for-bit through the byte codec
// the shard blobs use.

std::vector<uint8_t> stats_bytes(const stats::SimStats& s) {
  util::ByteWriter w;
  stats::serialize(s, w);
  return w.take();
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

uint64_t fnv1a(const uint8_t* data, size_t n, uint64_t h = kFnvBasis) {
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t digest(const std::vector<stats::SimStats>& cells) {
  uint64_t h = kFnvBasis;
  for (const stats::SimStats& s : cells) {
    const std::vector<uint8_t> bytes = stats_bytes(s);
    h = fnv1a(bytes.data(), bytes.size(), h);
  }
  return h;
}

std::vector<uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// ---------------------------------------------------------------------------
// Spans: the benchmark's own record of its calls into each layer. Kept in
// memory (one mutex-guarded vector; spans are coarse) and written out as
// JSON when the run ends.

struct Span {
  const char* name = "";
  const char* layer = "";
  int parent = -1;
  int row = -1;  ///< workload index; -1 = the whole grid
  double start = 0;
  double end = 0;
};

class SpanLog {
 public:
  explicit SpanLog(double epoch) : epoch_(epoch) {}

  int open(const char* name, const char* layer, int parent, int row) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({name, layer, parent, row, now_s() - epoch_, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<size_t>(id)].end = now_s() - epoch_;
  }

  /// Host seconds summed over every span named `name`; calls made
  /// concurrently from several threads add up.
  [[nodiscard]] double total(const std::string& name) const {
    std::lock_guard<std::mutex> lk(mu_);
    double t = 0;
    for (const Span& s : spans_) {
      if (name == s.name) t += s.end - s.start;
    }
    return t;
  }

  void write_json(const fs::path& path,
                  const std::vector<std::string>& rows) const {
    std::lock_guard<std::mutex> lk(mu_);
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      throw std::runtime_error("cannot write spans to " + path.string());
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\","
                   "\"parent\":%d,\"row\":\"%s\",\"start_s\":%.9f,"
                   "\"end_s\":%.9f}%s\n",
                   i, s.name, s.layer, s.parent,
                   s.row < 0 ? "" : rows[static_cast<size_t>(s.row)].c_str(),
                   s.start, s.end, i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(f, "]\n");
    if (std::fclose(f) != 0) {
      throw std::runtime_error("cannot write spans to " + path.string());
    }
  }

 private:
  double epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when `log` is null (the untraced passes).
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, const char* layer, int parent,
         int row = -1)
      : log_(log), id_(log ? log->open(name, layer, parent, row) : -1) {}
  ~Scoped() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Fixed workload definitions.

constexpr uint32_t kScale = 8;
constexpr int kSetupReps = 15;  ///< at start; then kSetupRepsPerPass per pass
constexpr int kSetupRepsPerPass = 5;
constexpr int kMinPasses = 2;
constexpr uint32_t kClusterWindows = 16;
constexpr uint64_t kSampledDetailLen = 2000;
constexpr uint32_t kFineIntervals = 64;
constexpr uint64_t kFineDetailLen = 200;
constexpr size_t kProbeUnits = 32;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint32_t scale = kScale;
  std::string inject;  ///< "", "digest" or "truncate" (self-test faults)
  fs::path out_dir = ".bench_build/perfbench-out";
};

struct Cell {
  size_t wl = 0;     ///< index into workloads::names()
  std::string name;  ///< config column label, e.g. "ci:256"
  core::CoreConfig config;
};

/// The fig14 grid (ci and vect, 2 wide ports) over `regs_sweep`.
std::vector<Cell> fig14_cells(size_t n_workloads,
                              const std::vector<uint32_t>& regs_sweep) {
  std::vector<Cell> cells;
  for (size_t w = 0; w < n_workloads; ++w) {
    for (const bool vect : {false, true}) {
      for (const uint32_t regs : regs_sweep) {
        Cell c;
        c.wl = w;
        c.name = std::string(vect ? "vect:" : "ci:") +
                 sim::presets::reg_label(regs);
        c.config = vect ? sim::presets::vect(2, regs)
                        : sim::presets::ci(2, regs);
        cells.push_back(std::move(c));
      }
    }
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Run context shared by the workloads.

struct Context {
  Options opt;
  int threads = 1;
  std::vector<std::string> wl_names;
  std::vector<isa::Program> programs;   ///< from the last setup repetition
  std::vector<isa::InterpResult> oracle;  ///< reference interpreter to HALT
  std::mt19937_64 rng;
  double engine_mips = 0;       ///< bare cached-engine rate, oracle programs
  uint64_t workload_insts = 0;  ///< sum of the oracle instruction counts

  /// A seed-chosen permutation of 0..n-1.
  std::vector<size_t> permuted(size_t n) {
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    return order;
  }
};

/// One pass's per-cell outcome, in canonical cell order.
struct PassResult {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<stats::SimStats> cells;
  std::vector<bool> failed;
  std::vector<std::string> failures;  ///< one line per failed cell

  explicit PassResult(size_t n) : cells(n), failed(n, false) {}
  void fail(size_t cell, const std::string& why) {
    if (!failed[cell]) {
      failed[cell] = true;
      failures.push_back(why);
    }
  }
};

/// Per-layer measurements of the traced pass (and the unit probe).
struct Layers {
  uint64_t engine_insts = 0;  ///< functional-engine instructions in the pass
  std::vector<double> unit_ms;  ///< wall of every detailed unit in the pass
  double restore_ms = 0, install_ms = 0, construct_ms = 0;  ///< per unit
  double fixed_frac = 0;  ///< fixed cost's share of a unit's time
  uint64_t detail_insts = 0;  ///< instructions detail-simulated in the pass
  double run_s = 0;           ///< Simulator::run seconds behind the rates
  uint64_t run_insts = 0, run_cycles = 0;
  double plan_s = 0, warm_s = 0, merge_ms = 0;
  uint64_t warm_insts = 0;  ///< streamed instructions x warm geometries
  double decode_wait_s = 0;
  double record_s = 0;
  uint64_t record_insts = 0, record_bytes = 0;
  double io_write_ms = 0, io_read_ms = 0;
  uint64_t io_bytes = 0;
};

/// Timings and stats of the probe's replayed units.
struct ProbeUnit {
  double restore = 0, construct = 0, install = 0, run = 0;
  stats::SimStats stats;
  std::string why;  ///< non-empty when the unit disagreed with run_shard
};

void fold_probe(const std::vector<ProbeUnit>& units, Layers& layers,
                std::vector<std::string>& failures) {
  std::vector<double> restore, construct, install;
  double fixed_s = 0;
  layers.run_s = 0;
  layers.run_insts = layers.run_cycles = 0;
  for (const ProbeUnit& u : units) {
    restore.push_back(u.restore);
    construct.push_back(u.construct);
    install.push_back(u.install);
    fixed_s += u.restore + u.construct + u.install;
    layers.run_s += u.run;
    layers.run_insts += u.stats.committed;
    layers.run_cycles += u.stats.cycles;
    if (!u.why.empty()) failures.push_back(u.why);
  }
  layers.restore_ms = mean_ms(restore);
  layers.construct_ms = mean_ms(construct);
  layers.install_ms = mean_ms(install);
  layers.fixed_frac = fixed_s / (fixed_s + layers.run_s);
}

/// Where a plan's measured intervals start and end; all a replayed unit
/// needs besides its checkpoint.
struct PlanShape {
  std::vector<uint64_t> starts, lengths;
  uint64_t total_insts = 0;
  bool ran_to_halt = false;

  explicit PlanShape(const trace::IntervalPlan& plan = {})
      : starts(plan.boundaries),
        lengths(plan.lengths),
        total_insts(plan.total_insts),
        ran_to_halt(plan.ran_to_halt) {}
};

/// The measured slice of interval `i` on a Simulator resumed at its
/// checkpoint and already warmed — the same run and clamps run_shard
/// applies to a unit (functional warming: no detailed warm-up slice).
stats::SimStats run_unit(sim::Simulator& sim, const PlanShape& plan,
                         size_t i) {
  const uint64_t len = plan.lengths[i];
  const bool to_halt =
      plan.ran_to_halt && plan.starts[i] + len == plan.total_insts;
  stats::SimStats s = sim.run(to_halt ? UINT64_MAX : len);
  s.ep_ci_selected = std::min(s.ep_ci_selected, s.ep_total);
  s.ep_ci_reused = std::min(s.ep_ci_reused, s.ep_ci_selected);
  return s;
}

/// Distinct functional-warming geometries among one workload's columns:
/// each streamed instruction trains one warmer per geometry.
uint64_t warm_geometries(const std::vector<Cell>& cells) {
  std::set<uint64_t> digests;
  for (const Cell& c : cells) {
    if (c.wl == 0) digests.insert(c.config.warm_digest());
  }
  return digests.size();
}

/// Registry counters read as deltas across a traced pass.
struct CounterMark {
  uint64_t engine = counter("interp.insts");
  uint64_t warmed = counter("warming.insts");
  uint64_t decode_wait_us = counter("warming.decode_wait_us");
};

/// Per-layer numbers of a traced pass that ran `results` through run_shard.
void fold_shard_results(const std::vector<trace::ShardResult>& results,
                        const CounterMark& mark, uint64_t geometries,
                        Layers& layers) {
  layers.engine_insts = counter("interp.insts") - mark.engine;
  layers.warm_insts = (counter("warming.insts") - mark.warmed) * geometries;
  layers.decode_wait_s = static_cast<double>(
                             counter("warming.decode_wait_us") -
                             mark.decode_wait_us) /
                         1e6;
  for (const trace::ShardResult& res : results) {
    layers.warm_s += static_cast<double>(res.warm_wall_us) / 1e6;
    for (const auto& cc : res.configs) layers.detail_insts += cc.detailed_insts;
    for (const auto& iv : res.intervals) {
      for (const uint64_t us : iv.wall_us) {
        layers.unit_ms.push_back(static_cast<double>(us) / 1e3);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Setup and oracle.

/// Program build for every workload plus thread-pool start-up and
/// tear-down: what each fresh figure process pays before its first cell.
double setup_once(Context& ctx) {
  const double t0 = now_s();
  std::vector<isa::Program> programs;
  programs.reserve(ctx.wl_names.size());
  for (const std::string& wl : ctx.wl_names) {
    programs.push_back(workloads::build(wl, ctx.opt.scale));
  }
  {
    sim::ThreadPool pool(ctx.threads - 1);
    pool.run(static_cast<size_t>(ctx.threads), [](size_t) {});
  }
  const double t1 = now_s();
  ctx.programs = std::move(programs);
  return t1 - t0;
}

/// Reference interpreter to HALT per workload (the architectural oracle),
/// plus a bare cached-engine run of the same program, checked against it
/// and timed for engine.mips. Returns failure lines.
std::vector<std::string> run_oracle(Context& ctx) {
  const size_t n = ctx.wl_names.size();
  ctx.oracle.assign(n, {});
  std::vector<double> engine_s(n, 0);
  std::vector<std::string> why(n);
  sim::parallel_for(
      n,
      [&](size_t w) {
        const isa::Program& program = ctx.programs[w];
        const isa::InterpResult ref = isa::run_program(program);
        ctx.oracle[w] = ref;
        mem::MainMemory memory;
        isa::load_data_image(program, memory);
        const double t0 = now_s();
        isa::FunctionalEngine engine(program, memory,
                                     isa::EngineKind::kCached);
        engine.run();
        engine_s[w] = now_s() - t0;
        if (!ref.halted) why[w] = "reference interpreter did not halt";
        if (engine.executed() != ref.executed || engine.regs() != ref.regs ||
            memory.digest() != ref.mem_digest) {
          why[w] = "cached engine disagrees with the reference interpreter";
        }
      },
      ctx.threads);
  std::vector<std::string> failures;
  double secs = 0;
  ctx.workload_insts = 0;
  for (size_t w = 0; w < n; ++w) {
    secs += engine_s[w];
    ctx.workload_insts += ctx.oracle[w].executed;
    if (!why[w].empty()) failures.push_back(ctx.wl_names[w] + ": " + why[w]);
  }
  ctx.engine_mips =
      secs > 0 ? static_cast<double>(ctx.workload_insts) / secs / 1e6 : 0;
  return failures;
}

// ---------------------------------------------------------------------------
// Workloads. Each computes a reference once per run (prepare), runs timed
// passes, checks a pass against the reference, and replays a seed-chosen
// sample of units for the unit-cost split (probe). For full_s8 and
// sampled_s8 the reference is run_all's work decomposed into the public
// calls it makes, so in a traced run it doubles as the traced pass; for
// sharded_fine the reference is the in-process trace::sampled_run and the
// traced pass is one extra pass with spans.

class Workload {
 public:
  Workload(Context& ctx, std::vector<Cell> cells)
      : ctx_(ctx), cells_(std::move(cells)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Reference stats and full-length truth; returns failure lines of the
  /// reference's own checks. `spans`/`layers` are set when the reference
  /// is the traced pass.
  virtual std::vector<std::string> prepare(SpanLog* spans,
                                           Layers* layers) = 0;
  [[nodiscard]] virtual bool reference_is_traced_pass() const = 0;
  /// One pass. `truncate` cuts one seed-chosen cell's run short (the
  /// self-test's truncated-run fault).
  virtual PassResult pass(SpanLog* spans, Layers* layers, bool truncate) = 0;
  /// Marks every cell of `r` that differs from the reference or breaks a
  /// workload invariant.
  virtual void check(PassResult& r) const {
    for (size_t i = 0; i < cells_.size(); ++i) {
      if (stats_bytes(r.cells[i]) != stats_bytes(reference_[i])) {
        r.fail(i, label(i) + ": simulated stats differ from the reference");
      }
    }
  }
  virtual std::vector<ProbeUnit> probe() = 0;

  /// The reference in bytes, for the reference cache (see run()).
  virtual void save_reference(util::ByteWriter& out) const {
    out.u64(reference_.size());
    for (size_t i = 0; i < reference_.size(); ++i) {
      stats::serialize(reference_[i], out);
      out.u64(std::bit_cast<uint64_t>(truth_ipc_[i]));
    }
  }
  /// Inverse of save_reference; throws on a payload of another shape.
  virtual void load_reference(util::ByteReader& in) {
    if (in.u64() != cells_.size()) {
      throw std::runtime_error("reference cache: wrong cell count");
    }
    reference_.assign(cells_.size(), {});
    truth_ipc_.assign(cells_.size(), 0);
    for (size_t i = 0; i < cells_.size(); ++i) {
      reference_[i] = stats::deserialize_stats(in);
      truth_ipc_[i] = std::bit_cast<double>(in.u64());
    }
  }

  [[nodiscard]] const std::vector<Cell>& cells() const { return cells_; }
  [[nodiscard]] const std::vector<stats::SimStats>& reference() const {
    return reference_;
  }
  [[nodiscard]] double traced_wall() const { return traced_wall_; }
  [[nodiscard]] double traced_cpu() const { return traced_cpu_; }
  /// Largest per-cell |sampled - full| / full IPC, in percent, and the
  /// cell it comes from.
  [[nodiscard]] std::pair<double, std::string> ipc_err_pct() const {
    double worst = 0;
    std::string where = "-";
    for (size_t i = 0; i < cells_.size(); ++i) {
      const double full = truth_ipc_[i];
      const double err =
          full > 0 ? std::fabs(reference_[i].ipc() - full) / full * 100.0 : 0;
      if (err > worst) {
        worst = err;
        where = label(i);
      }
    }
    return {worst, where};
  }

 protected:
  [[nodiscard]] std::string label(size_t i) const {
    return ctx_.wl_names[cells_[i].wl] + "/" + cells_[i].name;
  }

  [[nodiscard]] sim::RunSpec mono_spec(const Cell& c) const {
    sim::RunSpec s;
    s.workload = ctx_.wl_names[c.wl];
    s.config_name = c.name;
    s.config = c.config;
    s.max_insts = 0;  // run to HALT, explicitly
    s.scale = ctx_.opt.scale;
    s.intervals = 1;
    return s;
  }

  /// sim::run_all over every cell, submitted in a seed-chosen order.
  PassResult run_all_pass(const std::function<sim::RunSpec(const Cell&)>& spec,
                          bool truncate) {
    PassResult r(cells_.size());
    const std::vector<size_t> order = submission_order();
    std::vector<sim::RunSpec> specs;
    specs.reserve(order.size());
    for (const size_t i : order) specs.push_back(spec(cells_[i]));
    if (truncate) {
      const size_t k = ctx_.rng() % specs.size();
      specs[k].max_insts = ctx_.oracle[cells_[order[k]].wl].executed / 2;
    }
    const double c0 = cpu_seconds();
    const double t0 = now_s();
    const std::vector<sim::RunOutcome> out = sim::run_all(specs, ctx_.threads);
    r.wall_s = now_s() - t0;
    r.cpu_s = cpu_seconds() - c0;
    for (size_t k = 0; k < order.size(); ++k) r.cells[order[k]] = out[k].stats;
    return r;
  }

  /// Every cell halted after exactly the oracle's instruction count.
  void check_full_length(PassResult& r) const {
    for (size_t i = 0; i < cells_.size(); ++i) {
      const uint64_t expect = ctx_.oracle[cells_[i].wl].executed;
      const stats::SimStats& s = r.cells[i];
      if (!s.halted || s.committed != expect) {
        r.fail(i, label(i) + ": committed " + std::to_string(s.committed) +
                      (s.halted ? "" : " without HALT") + ", reference " +
                      std::to_string(expect));
      }
    }
  }

  /// The order cells are submitted in: the seed permutes the kernels,
  /// and each kernel's cells stay together in grid order. Cells running
  /// side by side are then mostly of one kernel, so a pass's memory peak
  /// does not hinge on which kernels' cells happen to overlap.
  [[nodiscard]] std::vector<size_t> submission_order() {
    std::vector<size_t> order;
    for (const size_t w : ctx_.permuted(ctx_.wl_names.size())) {
      for (const size_t i : columns(w)) order.push_back(i);
    }
    return order;
  }

  /// Canonical cell indices of workload `w`'s columns, in grid order.
  [[nodiscard]] std::vector<size_t> columns(size_t w) const {
    std::vector<size_t> out;
    for (size_t i = 0; i < cells_.size(); ++i) {
      if (cells_[i].wl == w) out.push_back(i);
    }
    return out;
  }

  /// Workload `w`'s columns as run_shard config bindings, without warm
  /// state (run_shard or the shards capture it).
  [[nodiscard]] std::vector<trace::ConfigBinding> bindings(size_t w) const {
    std::vector<trace::ConfigBinding> out;
    for (const size_t i : columns(w)) {
      trace::ConfigBinding b;
      b.name = cells_[i].name;
      b.config = cells_[i].config;
      out.push_back(std::move(b));
    }
    return out;
  }

  /// One (interval, column) unit the probe replays.
  struct Pick {
    size_t w, interval, column, cell;
  };
  /// A seed-chosen sample of every workload's units; `intervals(w)` is the
  /// interval count of workload w's plan.
  std::vector<Pick> pick_units(const std::function<size_t(size_t)>& intervals) {
    std::vector<Pick> picks;
    for (size_t w = 0; w < ctx_.wl_names.size(); ++w) {
      const std::vector<size_t> cols = columns(w);
      for (size_t c = 0; c < cols.size(); ++c) {
        for (size_t iv = 0; iv < intervals(w); ++iv) {
          picks.push_back({w, iv, c, cols[c]});
        }
      }
    }
    std::shuffle(picks.begin(), picks.end(), ctx_.rng);
    picks.resize(std::min(picks.size(), kProbeUnits));
    return picks;
  }

  /// Full-length IPC of every cell through monolithic run_all cells.
  std::vector<std::string> compute_truth() {
    PassResult t =
        run_all_pass([&](const Cell& c) { return mono_spec(c); }, false);
    check_full_length(t);
    truth_ipc_.clear();
    for (const stats::SimStats& s : t.cells) truth_ipc_.push_back(s.ipc());
    return t.failures;
  }

  Context& ctx_;
  std::vector<Cell> cells_;
  std::vector<stats::SimStats> reference_;
  std::vector<double> truth_ipc_;
  double traced_wall_ = 0;
  double traced_cpu_ = 0;
};

// --- full_s8 ----------------------------------------------------------------

class FullS8 : public Workload {
 public:
  explicit FullS8(Context& ctx)
      : Workload(ctx, fig14_cells(ctx.wl_names.size(),
                                  sim::presets::register_sweep())) {}

  bool reference_is_traced_pass() const override { return true; }

  // Reference: a run_all mono cell decomposed — build the program,
  // construct the Simulator, run to HALT — plus the architectural check of
  // every cell (final registers and memory digest against the reference
  // interpreter), which run_all's outcome cannot show.
  std::vector<std::string> prepare(SpanLog* spans, Layers* layers) override {
    PassResult r(cells_.size());
    std::vector<std::string> arch(cells_.size());
    std::vector<double> construct_s(cells_.size()), run_s(cells_.size());
    const std::vector<size_t> order = submission_order();
    const double c0 = cpu_seconds();
    const double t0 = now_s();
    {
      Scoped pass(spans, "pass", "sim", -1);
      sim::parallel_for(
          order.size(),
          [&](size_t k) {
            const size_t i = order[k];
            const Cell& c = cells_[i];
            const int row = static_cast<int>(c.wl);
            std::optional<isa::Program> program;
            {
              Scoped s(spans, "workloads::build", "workloads", pass.id(), row);
              program.emplace(
                  workloads::build(ctx_.wl_names[c.wl], ctx_.opt.scale));
            }
            const double a = now_s();
            std::optional<sim::Simulator> sim;
            {
              Scoped s(spans, "Simulator", "core", pass.id(), row);
              sim.emplace(c.config, std::move(*program));
            }
            const double b = now_s();
            {
              Scoped s(spans, "Simulator::run", "core", pass.id(), row);
              r.cells[i] = sim->run(UINT64_MAX);
            }
            construct_s[i] = b - a;
            run_s[i] = now_s() - b;
            const isa::InterpResult& ref = ctx_.oracle[c.wl];
            for (int reg = 0; reg < isa::kNumLogicalRegs; ++reg) {
              if (sim->arch_reg(reg) != ref.regs[static_cast<size_t>(reg)]) {
                arch[i] = "register r" + std::to_string(reg) + " differs";
              }
            }
            if (sim->memory_digest() != ref.mem_digest) {
              arch[i] = "memory digest differs";
            }
          },
          ctx_.threads);
    }
    traced_wall_ = now_s() - t0;
    traced_cpu_ = cpu_seconds() - c0;
    check_full_length(r);
    for (size_t i = 0; i < cells_.size(); ++i) {
      if (!arch[i].empty()) {
        r.fail(i, label(i) + ": vs reference interpreter: " + arch[i]);
      }
    }
    reference_ = r.cells;
    truth_ipc_.clear();
    for (const stats::SimStats& s : reference_) truth_ipc_.push_back(s.ipc());
    if (layers != nullptr) {
      // A monolithic cell is one detailed unit whose only fixed cost is
      // constructing the Simulator.
      for (size_t i = 0; i < cells_.size(); ++i) {
        layers->unit_ms.push_back((construct_s[i] + run_s[i]) * 1e3);
        layers->detail_insts += reference_[i].committed;
        layers->run_insts += reference_[i].committed;
        layers->run_cycles += reference_[i].cycles;
        layers->run_s += run_s[i];
      }
      layers->construct_ms = mean_ms(construct_s);
      const double fixed_s =
          std::accumulate(construct_s.begin(), construct_s.end(), 0.0);
      layers->fixed_frac = fixed_s / (fixed_s + layers->run_s);
    }
    return r.failures;
  }

  PassResult pass(SpanLog*, Layers*, bool truncate) override {
    return run_all_pass([&](const Cell& c) { return mono_spec(c); },
                        truncate);
  }

  void check(PassResult& r) const override {
    check_full_length(r);
    Workload::check(r);
  }

  std::vector<ProbeUnit> probe() override { return {}; }
};

// --- sampled_s8 -------------------------------------------------------------

class SampledS8 : public Workload {
 public:
  explicit SampledS8(Context& ctx)
      : Workload(ctx, fig14_cells(ctx.wl_names.size(),
                                  sim::presets::register_sweep())) {}

  bool reference_is_traced_pass() const override { return true; }

  // Reference: run_all's sampled path decomposed into its public calls —
  // one cluster plan per workload on the pool, then per workload one
  // multi-config run_shard over its 10 columns and one merge_shards per
  // column — plus the full-length truth for ipc_err_pct.
  std::vector<std::string> prepare(SpanLog* spans, Layers* layers) override {
    const size_t nw = ctx_.wl_names.size();
    plans_.clear();
    plans_.resize(nw);
    results_.assign(nw, {});
    reference_.assign(cells_.size(), {});
    const CounterMark mark;
    const double c0 = cpu_seconds();
    const double t0 = now_s();
    {
      Scoped pass(spans, "pass", "sim", -1);
      {
        Scoped phase(spans, "plan_phase", "sim", pass.id());
        sim::parallel_for(
            nw,
            [&](size_t w) {
              const int row = static_cast<int>(w);
              std::optional<isa::Program> program;
              {
                Scoped s(spans, "workloads::build", "workloads", phase.id(),
                         row);
                program.emplace(
                    workloads::build(ctx_.wl_names[w], ctx_.opt.scale));
              }
              Scoped s(spans, "plan_cluster_intervals", "trace/plan",
                       phase.id(), row);
              trace::ClusterPlanOptions opts;
              opts.n_intervals = kClusterWindows;
              opts.warm_mode = trace::WarmMode::kFunctional;
              opts.detail_len = kSampledDetailLen;
              opts.max_insts = 0;
              plans_[w] = trace::plan_cluster_intervals(*program, opts);
            },
            ctx_.threads);
      }
      for (size_t w = 0; w < nw; ++w) {
        std::optional<isa::Program> program;
        {
          Scoped s(spans, "workloads::build", "workloads", pass.id(),
                   static_cast<int>(w));
          program.emplace(workloads::build(ctx_.wl_names[w], ctx_.opt.scale));
        }
        {
          Scoped s(spans, "run_shard", "trace/shard", pass.id(),
                   static_cast<int>(w));
          results_[w] = trace::run_shard(bindings(w), *program, plans_[w], {},
                                         ctx_.threads);
        }
        Scoped s(spans, "merge_shards", "stats", pass.id(),
                 static_cast<int>(w));
        const std::vector<size_t> cols = columns(w);
        for (size_t c = 0; c < cols.size(); ++c) {
          std::vector<stats::WeightedStats> parts;
          for (const auto& iv : results_[w].intervals) {
            parts.push_back({iv.stats[c], iv.weight});
          }
          stats::SimStats agg = stats::merge_shards(parts);
          agg.halted = agg.halted || results_[w].ran_to_halt;
          reference_[cols[c]] = agg;
        }
      }
    }
    traced_wall_ = now_s() - t0;
    traced_cpu_ = cpu_seconds() - c0;

    std::vector<std::string> failures;
    for (size_t w = 0; w < nw; ++w) {
      if (!plans_[w].ran_to_halt ||
          plans_[w].total_insts != ctx_.oracle[w].executed) {
        failures.push_back(ctx_.wl_names[w] + ": plan covers " +
                           std::to_string(plans_[w].total_insts) +
                           " instructions, reference ran " +
                           std::to_string(ctx_.oracle[w].executed));
      }
    }
    if (layers != nullptr && spans != nullptr) {
      fold_shard_results(results_, mark, warm_geometries(cells_), *layers);
      layers->plan_s = spans->total("plan_phase");
      layers->merge_ms = spans->total("merge_shards") * 1e3;
    }
    const std::vector<std::string> truth = compute_truth();
    failures.insert(failures.end(), truth.begin(), truth.end());
    return failures;
  }

  PassResult pass(SpanLog*, Layers*, bool truncate) override {
    return run_all_pass(
        [&](const Cell& c) {
          sim::RunSpec s = mono_spec(c);
          s.intervals = kClusterWindows;
          s.sample_mode = trace::SampleMode::kCluster;
          s.warm_mode = trace::WarmMode::kFunctional;
          s.warmup = 0;
          s.detail_len = kSampledDetailLen;
          return s;
        },
        truncate);
  }

  // Replays seed-chosen (interval, config) units of the reference plans:
  // construct the Simulator from the in-memory checkpoint (restore happens
  // inside construction here), install the functional warm state, run the
  // measured slice, and compare with run_shard's stats for the unit.
  std::vector<ProbeUnit> probe() override {
    const std::vector<Pick> picks =
        pick_units([&](size_t w) { return plans_[w].boundaries.size(); });
    std::vector<ProbeUnit> out(picks.size());
    sim::parallel_for(
        picks.size(),
        [&](size_t k) {
          const Pick& p = picks[k];
          const trace::IntervalPlan& plan = plans_[p.w];
          const isa::Program& program = ctx_.programs[p.w];
          const core::CoreConfig& config = cells_[p.cell].config;
          const trace::Checkpoint& ck = plan.checkpoints[p.interval];
          const std::vector<uint8_t> blob =
              trace::capture_warm_states(config, program, {ck.executed})[0];
          ProbeUnit& u = out[k];
          const double a = now_s();
          sim::Simulator sim(config, program, ck);
          const double b = now_s();
          trace::FunctionalWarmer warmer(config, program);
          warmer.deserialize_state(blob);
          warmer.apply_to(sim);
          const double c = now_s();
          u.stats = run_unit(sim, PlanShape(plan), p.interval);
          u.construct = b - a;
          u.install = c - b;
          u.run = now_s() - c;
          const stats::SimStats& expect =
              results_[p.w].intervals[p.interval].stats[p.column];
          if (stats_bytes(u.stats) != stats_bytes(expect)) {
            u.why = label(p.cell) + " interval " + std::to_string(p.interval) +
                    ": probe stats differ from run_shard";
          }
        },
        ctx_.threads);
    return out;
  }

 private:
  std::vector<trace::IntervalPlan> plans_;
  std::vector<trace::ShardResult> results_;
};

// --- sharded_fine -----------------------------------------------------------

class ShardedFine : public Workload {
 public:
  explicit ShardedFine(Context& ctx)
      : Workload(ctx, fig14_cells(ctx.wl_names.size(), {256, 512})),
        dir_(ctx.opt.out_dir / ("work-" + std::to_string(getpid()))) {}

  ~ShardedFine() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  bool reference_is_traced_pass() const override { return false; }

  trace::IntervalPlan plan(size_t w) const {
    return trace::plan_intervals(ctx_.programs[w], kFineIntervals, 0, 0,
                                 trace::WarmMode::kFunctional, kFineDetailLen);
  }

  // Reference: the in-process trace::sampled_run of the same plan, one per
  // column, plus the full-length truth.
  std::vector<std::string> prepare(SpanLog*, Layers*) override {
    const size_t nw = ctx_.wl_names.size();
    reference_runs_.assign(cells_.size(), {});
    reference_.assign(cells_.size(), {});
    for (size_t w = 0; w < nw; ++w) {
      const trace::IntervalPlan p = plan(w);
      for (size_t i = 0; i < cells_.size(); ++i) {
        if (cells_[i].wl != w) continue;
        reference_runs_[i] = trace::sampled_run(cells_[i].config,
                                                ctx_.programs[w], p,
                                                ctx_.threads);
        reference_[i] = reference_runs_[i].aggregate;
      }
    }
    return compute_truth();
  }

  // One pass of the on-disk path. Phase A, per workload on the pool:
  // record the trace, plan, write the manifest with warming deferred.
  // Phase B, per (workload, shard): load manifest, plan and bindings, run
  // the shard with warming fed from the trace, save the result. Phase C,
  // per workload on the pool: load the shard results and merge them.
  PassResult pass(SpanLog* spans, Layers* layers, bool truncate) override {
    const size_t nw = ctx_.wl_names.size();
    const size_t n_shards = static_cast<size_t>(ctx_.threads);
    PassResult r(cells_.size());
    std::vector<std::string> error(nw);
    std::mutex error_mu;
    const auto guard = [&](size_t w, const std::function<void()>& body) {
      try {
        body();
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(error_mu);
        if (error[w].empty()) error[w] = e.what();
      }
    };
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    const size_t victim = truncate ? ctx_.rng() % nw : nw;
    // The seed orders the shards. Recording, planning and merging keep the
    // grid order: which kernels' plans are alive together decides the
    // planning phase's memory peak, and that must not vary with the seed.
    const std::vector<size_t> shard_order = ctx_.permuted(nw);
    std::vector<isa::InterpResult> recorded(nw);
    shapes_.assign(nw, PlanShape{});
    merged_.assign(nw, {});
    std::vector<trace::ShardResult> jobs(nw * n_shards);

    const CounterMark mark;
    const double c0 = cpu_seconds();
    const double t0 = now_s();
    {
      Scoped pass(spans, "pass", "sim", -1);
      {
        Scoped phase(spans, "plan_phase", "sim", pass.id());
        sim::parallel_for(
            nw,
            [&](size_t w) {
              const int row = static_cast<int>(w);
              guard(w, [&] {
                trace::TraceMeta meta;
                meta.workload = ctx_.wl_names[w];
                meta.scale = ctx_.opt.scale;
                {
                  Scoped s(spans, "record_interpreter", "trace/io", phase.id(),
                           row);
                  recorded[w] = trace::record_interpreter(
                      ctx_.programs[w], trace_path(w), meta,
                      w == victim ? ctx_.oracle[w].executed / 2 : UINT64_MAX);
                }
                trace::IntervalPlan p;
                {
                  Scoped s(spans, "plan_intervals", "trace/plan", phase.id(),
                           row);
                  p = plan(w);
                }
                shapes_[w] = PlanShape(p);
                Scoped s(spans, "write_manifest", "trace/io", phase.id(), row);
                (void)trace::write_manifest(p, bindings(w),
                                            ctx_.wl_names[w], ctx_.opt.scale,
                                            manifest_path(w));
              });
            },
            ctx_.threads);
      }
      // In use, planning, each shard and the merge are separate processes
      // (trace_tool plan / run-shard / merge), so each of them starts here
      // from a trimmed heap rather than stacking its peak on memory the
      // previous one freed into other threads' arenas.
      malloc_trim(0);
      {
        Scoped phase(spans, "shard_phase", "sim", pass.id());
        // Shards run one after another, each on the whole pool, the way
        // `trace_tool run-shard --jobs=<nproc>` runs one shard per process.
        // Running them side by side instead makes peak memory depend on
        // which shards' warm captures happen to overlap.
        for (const size_t w : shard_order) {
          const int row = static_cast<int>(w);
          for (size_t sh = 0; sh < n_shards; ++sh) {
            const trace::ShardSelection sel{static_cast<uint32_t>(sh),
                                            static_cast<uint32_t>(n_shards)};
            guard(w, [&] {
              if (!error[w].empty()) return;
              std::optional<trace::ShardManifest> m;
              trace::IntervalPlan p;
              std::vector<trace::ConfigBinding> bound;
              {
                Scoped s(spans, "load_manifest", "trace/io", phase.id(), row);
                m = trace::ShardManifest::load(manifest_path(w));
                p = trace::plan_from_manifest(*m, manifest_path(w));
                trace::verify_manifest_plan(*m, p);
                bound = trace::bindings_from_manifest(*m, manifest_path(w), sel);
              }
              trace::ShardResult& res = jobs[w * n_shards + sh];
              {
                Scoped s(spans, "run_shard", "trace/shard", phase.id(), row);
                res = trace::run_shard(bound, ctx_.programs[w], p, sel,
                                       ctx_.threads, m->plan_hash,
                                       trace_path(w));
              }
              Scoped s(spans, "ShardResult::save", "trace/io", phase.id(),
                       row);
              res.save(shard_path(w, sel));
            });
            malloc_trim(0);
          }
        }
      }
      {
        Scoped phase(spans, "merge_phase", "sim", pass.id());
        sim::parallel_for(
            nw,
            [&](size_t w) {
              const int row = static_cast<int>(w);
              guard(w, [&] {
                if (!error[w].empty()) return;
                std::vector<trace::ShardResult> loaded;
                {
                  Scoped s(spans, "ShardResult::load", "trace/io", phase.id(),
                           row);
                  for (size_t sh = 0; sh < n_shards; ++sh) {
                    loaded.push_back(trace::ShardResult::load(shard_path(
                        w, {static_cast<uint32_t>(sh),
                            static_cast<uint32_t>(n_shards)})));
                  }
                }
                Scoped s(spans, "merge_shard_grid", "stats", phase.id(), row);
                merged_[w] = trace::merge_shard_grid(loaded);
              });
            },
            ctx_.threads);
      }
    }
    r.wall_s = now_s() - t0;
    r.cpu_s = cpu_seconds() - c0;
    traced_wall_ = r.wall_s;
    traced_cpu_ = r.cpu_s;

    for (size_t w = 0; w < nw; ++w) {
      const std::vector<size_t> cols = columns(w);
      const isa::InterpResult& ref = ctx_.oracle[w];
      if (error[w].empty() &&
          (!recorded[w].halted || recorded[w].executed != ref.executed ||
           recorded[w].mem_digest != ref.mem_digest)) {
        error[w] = "recorded trace holds " +
                   std::to_string(recorded[w].executed) +
                   " instructions, reference ran " +
                   std::to_string(ref.executed);
      }
      if (error[w].empty() && merged_[w].configs.size() != cols.size()) {
        error[w] = "merged grid has the wrong column count";
      }
      for (size_t c = 0; c < cols.size(); ++c) {
        if (!error[w].empty()) {
          r.fail(cols[c], label(cols[c]) + ": " + error[w]);
          continue;
        }
        const trace::SampledRun& got = merged_[w].configs[c].run;
        r.cells[cols[c]] = got.aggregate;
        if (!same_intervals(got, reference_runs_[cols[c]])) {
          r.fail(cols[c], label(cols[c]) +
                              ": merged intervals differ from the in-process "
                              "sampled_run");
        }
      }
    }
    if (layers != nullptr && spans != nullptr) {
      fold_shard_results(jobs, mark, warm_geometries(cells_), *layers);
      layers->plan_s = spans->total("plan_intervals");
      layers->record_s = spans->total("record_interpreter");
      layers->merge_ms = spans->total("merge_shard_grid") * 1e3;
      layers->io_write_ms =
          (spans->total("write_manifest") + spans->total("ShardResult::save")) *
          1e3;
      layers->io_read_ms = (spans->total("load_manifest") +
                            spans->total("ShardResult::load")) *
                           1e3;
      layers->io_bytes = dir_bytes(dir_);
      for (size_t w = 0; w < nw; ++w) {
        layers->record_insts += recorded[w].executed;
        layers->record_bytes += fs::file_size(trace_path(w));
      }
    }
    return r;
  }

  // Replays seed-chosen (interval, config) units of the last pass through
  // the public calls a unit makes: load its checkpoint file, construct the
  // Simulator from it, install the warm state (captured from the recorded
  // trace, untimed), run the slice, compare with the merged grid.
  std::vector<ProbeUnit> probe() override {
    const std::vector<Pick> picks = pick_units([&](size_t w) {
      return merged_[w].configs.empty() ? 0 : shapes_[w].starts.size();
    });
    std::vector<ProbeUnit> out(picks.size());
    sim::parallel_for(
        picks.size(),
        [&](size_t k) {
          const Pick& p = picks[k];
          const PlanShape& plan = shapes_[p.w];
          const isa::Program& program = ctx_.programs[p.w];
          const core::CoreConfig& config = cells_[p.cell].config;
          // Functional warming captures at the interval boundary itself.
          std::vector<uint8_t> blob;
          {
            trace::FunctionalWarmer warm(config, program);
            trace::TraceReader reader(trace_path(p.w));
            warm.advance_on_trace(reader, plan.starts[p.interval]);
            blob = warm.serialize_state();
          }
          const std::string ck_path =
              trace::path_stem(manifest_path(p.w)) + ".ck" +
              std::to_string(p.interval) + ".cfirckpt";
          ProbeUnit& u = out[k];
          const double a = now_s();
          const trace::Checkpoint ck = trace::Checkpoint::load(ck_path);
          const double b = now_s();
          sim::Simulator sim(config, program, ck);
          const double c = now_s();
          trace::FunctionalWarmer warmer(config, program);
          warmer.deserialize_state(blob);
          warmer.apply_to(sim);
          const double d = now_s();
          u.stats = run_unit(sim, plan, p.interval);
          u.restore = b - a;
          u.construct = c - b;
          u.install = d - c;
          u.run = now_s() - d;
          const stats::SimStats& expect =
              merged_[p.w].configs[p.column].run.intervals[p.interval].stats;
          if (stats_bytes(u.stats) != stats_bytes(expect)) {
            u.why = label(p.cell) + " interval " + std::to_string(p.interval) +
                    ": probe stats differ from run_shard";
          }
        },
        ctx_.threads);
    return out;
  }

  void save_reference(util::ByteWriter& out) const override {
    Workload::save_reference(out);
    for (const trace::SampledRun& run : reference_runs_) {
      out.u64(run.total_insts);
      out.u64(run.detailed_insts);
      out.u64(run.intervals.size());
      for (const auto& iv : run.intervals) {
        out.u64(iv.start_inst);
        out.u64(iv.length);
        out.u64(std::bit_cast<uint64_t>(iv.weight));
        stats::serialize(iv.stats, out);
      }
    }
  }
  void load_reference(util::ByteReader& in) override {
    Workload::load_reference(in);
    reference_runs_.assign(cells_.size(), {});
    for (trace::SampledRun& run : reference_runs_) {
      run.total_insts = in.u64();
      run.detailed_insts = in.u64();
      run.intervals.resize(in.u64());
      for (auto& iv : run.intervals) {
        iv.start_inst = in.u64();
        iv.length = in.u64();
        iv.weight = std::bit_cast<double>(in.u64());
        iv.stats = stats::deserialize_stats(in);
      }
    }
  }

 private:
  std::string stem(size_t w) const {
    return (dir_ / ctx_.wl_names[w]).string();
  }
  std::string trace_path(size_t w) const { return stem(w) + ".cfirtrace"; }
  std::string manifest_path(size_t w) const { return stem(w) + ".cfirman"; }
  std::string shard_path(size_t w, trace::ShardSelection sel) const {
    return stem(w) + ".shard" + std::to_string(sel.index) + "of" +
           std::to_string(sel.count) + ".cfirshd";
  }

  static bool same_intervals(const trace::SampledRun& a,
                             const trace::SampledRun& b) {
    if (a.intervals.size() != b.intervals.size() ||
        a.total_insts != b.total_insts ||
        a.detailed_insts != b.detailed_insts) {
      return false;
    }
    for (size_t i = 0; i < a.intervals.size(); ++i) {
      const auto& x = a.intervals[i];
      const auto& y = b.intervals[i];
      if (x.start_inst != y.start_inst || x.length != y.length ||
          x.weight != y.weight ||
          stats_bytes(x.stats) != stats_bytes(y.stats)) {
        return false;
      }
    }
    return true;
  }

  fs::path dir_;
  std::vector<trace::SampledRun> reference_runs_;
  std::vector<PlanShape> shapes_;          ///< last pass
  std::vector<trace::MergedGrid> merged_;  ///< last pass
};

// ---------------------------------------------------------------------------
// Entry point.

/// The reference is a pure function of the benchmark binary, the workload
/// and the scale, so it is kept beside the build and reused by later runs
/// of the same binary: only the first run of a binary pays for the
/// independent reference path and the full-length truth. A binary built
/// from other code hashes differently and computes its own.
fs::path reference_cache_path(const Options& opt) {
  const std::vector<uint8_t> exe = read_file("/proc/self/exe");
  char key[17];
  std::snprintf(key, sizeof(key), "%016llx",
                static_cast<unsigned long long>(fnv1a(exe.data(), exe.size())));
  return opt.out_dir / ("reference-" + opt.workload + "-s" +
                        std::to_string(opt.scale) + "-" + key + ".bin");
}

bool load_cached_reference(const fs::path& path, Workload& wl) {
  const std::vector<uint8_t> bytes = read_file(path);
  if (bytes.empty()) return false;
  try {
    util::ByteReader in(bytes);
    wl.load_reference(in);
    return in.done();
  } catch (const std::exception&) {
    return false;  // unreadable: recompute and overwrite
  }
}

void store_reference(const fs::path& path, const Workload& wl) {
  util::ByteWriter out;
  wl.save_reference(out);
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(out.data().data()),
            static_cast<std::streamsize>(out.data().size()));
    if (!f) throw std::runtime_error("cannot write " + tmp.string());
  }
  fs::rename(tmp, path);
}

/// Pins every simulator knob so the ambient environment cannot skew a run.
void pin_knobs(int threads) {
  setenv("CFIR_THREADS", std::to_string(threads).c_str(), 1);
  setenv("CFIR_ENGINE", "cached", 1);
  setenv("CFIR_CORE_SCHED", "fast", 1);
  setenv("CFIR_WARM_JOBS", "0", 1);
  setenv("CFIR_TRACE_FORMAT", "v2", 1);
  for (const char* knob :
       {"CFIR_SCALE", "CFIR_MAX_INSTS", "CFIR_INTERVALS", "CFIR_SAMPLE_MODE",
        "CFIR_WARMUP", "CFIR_WARM_MODE", "CFIR_DETAIL_LEN", "CFIR_SHARD",
        "CFIR_TRACE", "CFIR_TRACE_DIR", "CFIR_PROGRESS", "CFIR_JSON",
        "CFIR_STRICT_BLOBS"}) {
    unsetenv(knob);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload full_s8|sampled_s8|sharded_fine "
               "--seed N --seconds S --trace 0|1 [--scale N] "
               "[--inject digest|truncate] [--out-dir DIR]\n");
  return 2;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return false;
        opt.trace = v == "1";
      } else if (a == "--scale") {
        opt.scale = static_cast<uint32_t>(std::stoul(v));
      } else if (a == "--inject") {
        if (v != "digest" && v != "truncate") return false;
        opt.inject = v;
      } else if (a == "--out-dir") {
        opt.out_dir = v;
      } else {
        return false;
      }
    } catch (const std::logic_error&) {
      return false;
    }
  }
  return opt.scale > 0 && opt.seconds > 0 &&
         (opt.workload == "full_s8" || opt.workload == "sampled_s8" ||
          opt.workload == "sharded_fine");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metric(const char* layer, const std::string& name, double value,
                  const char* unit, const char* note = "") {
  std::printf("metric %-14s %-28s %.12g %s%s%s\n", layer, name.c_str(), value,
              unit, *note ? "  # " : "", note);
}

int run(const Options& opt) {
  const double epoch = now_s();
  Context ctx;
  ctx.opt = opt;
  ctx.threads = host_nproc();
  ctx.rng.seed(opt.seed);
  pin_knobs(ctx.threads);
  ctx.wl_names = workloads::names();
  fs::create_directories(opt.out_dir);

  const bool optimized = std::string(PERFBENCH_BUILD_TYPE) == "Release" ||
                         std::string(PERFBENCH_BUILD_TYPE) == "RelWithDebInfo";
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d scale=%u%s%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.scale,
              opt.inject.empty() ? "" : " inject=", opt.inject.c_str());
  std::printf("host nproc=%d compiler=\"%s\" build=%s%s threads=%d "
              "CFIR_THREADS=%d CFIR_ENGINE=cached CFIR_CORE_SCHED=fast "
              "CFIR_WARM_JOBS=0 CFIR_TRACE_FORMAT=v2\n",
              host_nproc(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              optimized ? "" : " (NOT OPTIMIZED: timings are meaningless)",
              ctx.threads, ctx.threads);

  // Set-up, several times: a round now and a few repetitions after every
  // pass, so the median samples the host over the whole run rather than
  // one moment. The shared pool is started once up front so the passes
  // never pay for it.
  (void)sim::ThreadPool::shared();
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) setups.push_back(setup_once(ctx));

  // Every attempted check that fails adds one: a cell of a pass, a unit of
  // the probe, or a line of the oracle's and the reference's own checks.
  uint64_t attempted = ctx.wl_names.size();
  std::vector<std::string> failures = run_oracle(ctx);

  std::unique_ptr<Workload> wl;
  if (opt.workload == "full_s8") {
    wl = std::make_unique<FullS8>(ctx);
  } else if (opt.workload == "sampled_s8") {
    wl = std::make_unique<SampledS8>(ctx);
  } else {
    wl = std::make_unique<ShardedFine>(ctx);
  }
  const size_t n_cells = wl->cells().size();

  std::optional<SpanLog> spans;
  Layers layers;
  if (opt.trace) spans.emplace(epoch);
  const bool traced_ref = opt.trace && wl->reference_is_traced_pass();
  const fs::path ref_cache = reference_cache_path(opt);
  const bool cached = !traced_ref && load_cached_reference(ref_cache, *wl);
  if (!cached) {
    const std::vector<std::string> f =
        wl->prepare(traced_ref ? &*spans : nullptr,
                    traced_ref ? &layers : nullptr);
    failures.insert(failures.end(), f.begin(), f.end());
    attempted += n_cells;
    if (f.empty()) store_reference(ref_cache, *wl);
    malloc_trim(0);
  }

  // Timed passes.
  std::vector<double> walls, cpus, rss;
  const double loop0 = now_s();
  int passes = 0;
  while (passes < kMinPasses || now_s() - loop0 < opt.seconds) {
    reset_peak_rss();
    PassResult r = wl->pass(nullptr, nullptr,
                            passes == 0 && opt.inject == "truncate");
    rss.push_back(peak_rss_mb());
    if (passes == 0 && opt.inject == "digest") {
      r.cells[ctx.rng() % n_cells].cycles += 1;
    }
    wl->check(r);
    // Hand freed heap back to the system, so every pass starts from the
    // footprint a fresh process would have and its memory peak does not
    // grow with the number of passes.
    malloc_trim(0);
    for (int i = 0; i < kSetupRepsPerPass; ++i) {
      setups.push_back(setup_once(ctx));
    }
    walls.push_back(r.wall_s);
    cpus.push_back(r.cpu_s);
    attempted += n_cells;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    ++passes;
  }
  const double wall_s = median(walls);

  // Traced pass (when it is not the reference) and the unit probe.
  double traced_wall = 0, traced_cpu = 0;
  if (opt.trace) {
    if (!wl->reference_is_traced_pass()) {
      PassResult r = wl->pass(&*spans, &layers, false);
      wl->check(r);
      attempted += n_cells;
      failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    }
    traced_wall = wl->traced_wall();
    traced_cpu = wl->traced_cpu();
    const std::vector<ProbeUnit> units = wl->probe();
    attempted += units.size();
    if (!units.empty()) fold_probe(units, layers, failures);
  }
  const uint64_t failed = failures.size();
  for (size_t i = 0; i < failures.size() && i < 20; ++i) {
    std::printf("FAILED %s\n", failures[i].c_str());
  }

  const auto [ipc_err, ipc_err_cell] = wl->ipc_err_pct();
  std::printf("grid %s cells=%zu passes=%d pass_walls_s=", opt.workload.c_str(),
              n_cells, passes);
  for (size_t i = 0; i < walls.size(); ++i) {
    std::printf("%s%.4f", i ? "," : "", walls[i]);
  }
  std::printf(" pass_cpu_s=");
  for (size_t i = 0; i < cpus.size(); ++i) {
    std::printf("%s%.4f", i ? "," : "", cpus[i]);
  }
  std::printf(" pass_rss_mb=");
  for (size_t i = 0; i < rss.size(); ++i) {
    std::printf("%s%.1f", i ? "," : "", rss[i]);
  }
  std::printf("\ndigest %s 0x%016llx (reference %s)\n", opt.workload.c_str(),
              static_cast<unsigned long long>(digest(wl->reference())),
              cached ? "cached" : "computed");
  std::printf("check attempted=%llu failed=%llu failed_frac=%.6g "
              "ipc_err_pct=%.9g worst_cell=%s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<double>(failed) / static_cast<double>(attempted),
              ipc_err, ipc_err_cell.c_str());

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {{"wall_s", wall_s, "s"},
               {"setup_s", median(setups), "s"},
               {"peak_rss_mb", median(rss), "MB"}};
    print_metric("e2e", "wall_s", wall_s, "s", "median pass wall");
    print_metric("e2e", "setup_s", median(setups), "s", "median of set-ups");
    print_metric("e2e", "peak_rss_mb", median(rss), "MB",
                 "median of the passes' resident high-water marks");
    print_metric("e2e", "ipc_err_pct", ipc_err, "%", "simulated, exact");
    print_metric("e2e", "failed_frac",
                 static_cast<double>(failed) / static_cast<double>(attempted),
                 "ratio");
  } else {
    const double fixed_ms =
        layers.restore_ms + layers.install_ms + layers.construct_ms;
    const double safe_run = layers.run_s > 0 ? layers.run_s : 1e-12;
    const double warm_safe = layers.warm_s > 0 ? layers.warm_s : 1e-12;
    metrics = {
        {"engine.insts", static_cast<double>(layers.engine_insts), "count"},
        {"engine.mips", ctx.engine_mips, "Mi/s"},
        {"plan.engine_insts_per_inst",
         static_cast<double>(layers.engine_insts) /
             static_cast<double>(ctx.workload_insts),
         "ratio"},
        {"unit.count", static_cast<double>(layers.unit_ms.size()), "count"},
        {"unit_ms.p50", percentile(layers.unit_ms, 50), "ms"},
        {"unit_ms.p99", percentile(layers.unit_ms, 99), "ms"},
        {"unit.fixed_ms", fixed_ms, "ms"},
        {"unit.construct_ms", layers.construct_ms, "ms"},
        {"unit.fixed_frac", layers.fixed_frac, "ratio"},
        {"detail.insts", static_cast<double>(layers.detail_insts), "count"},
        {"detail.mips", static_cast<double>(layers.run_insts) / safe_run / 1e6,
         "Mi/s"},
        {"detail.host_ns_per_cycle",
         layers.run_cycles ? safe_run * 1e9 /
                                 static_cast<double>(layers.run_cycles)
                           : 0,
         "ns"},
        {"io.bytes", static_cast<double>(layers.io_bytes), "bytes"},
        {"record.bytes_per_inst",
         layers.record_insts ? static_cast<double>(layers.record_bytes) /
                                   static_cast<double>(layers.record_insts)
                             : 0,
         "bytes"},
        {"pool.occupancy",
         traced_wall > 0 ? traced_cpu / (traced_wall * ctx.threads) : 0,
         "ratio"},
        {"ipc_err_pct", ipc_err, "%"},
        {"trace.overhead_pct",
         wall_s > 0 ? (traced_wall - wall_s) / wall_s * 100 : 0, "%"},
    };
    for (const Metric& m : metrics) {
      print_metric("layer", m.name, m.value, m.unit.c_str());
    }
    // Layer times that are zero by construction on some workload: printed
    // here for the workloads that exercise them, kept out of the result
    // object (see README "Per-layer metrics").
    print_metric("trace/plan", "plan.s", layers.plan_s, "s");
    print_metric("trace/warming", "warm.s", layers.warm_s, "s");
    print_metric("trace/warming", "warm.mips",
                 static_cast<double>(layers.warm_insts) / warm_safe / 1e6,
                 "Mi/s", "config-warmed instructions");
    print_metric("trace/warming", "warm.decode_wait_frac",
                 layers.decode_wait_s / warm_safe, "ratio");
    print_metric("trace/shard", "unit.restore_ms", layers.restore_ms, "ms");
    print_metric("trace/shard", "unit.install_ms", layers.install_ms, "ms");
    print_metric("trace/io", "record.mips",
                 layers.record_s > 0 ? static_cast<double>(layers.record_insts) /
                                           layers.record_s / 1e6
                                     : 0,
                 "Mi/s");
    print_metric("trace/io", "io.write_ms", layers.io_write_ms, "ms");
    print_metric("trace/io", "io.read_ms", layers.io_read_ms, "ms");
    print_metric("stats", "merge.ms", layers.merge_ms, "ms");
    std::printf("base workload_insts=%llu traced_wall_s=%.6f untraced_wall_s=%.6f\n",
                static_cast<unsigned long long>(ctx.workload_insts),
                traced_wall, wall_s);
    const fs::path span_file =
        opt.out_dir / ("spans-" + opt.workload + "-seed" +
                       std::to_string(opt.seed) + ".json");
    spans->write_json(span_file, ctx.wl_names);
    std::printf("spans %s\n", span_file.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace pb

int main(int argc, char** argv) {
  pb::Options opt;
  if (!pb::parse(argc, argv, opt)) return pb::usage();
  try {
    return pb::run(opt);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
