// Shared benchmark-harness plumbing: build a (workload x configuration)
// grid, run it on the thread pool, and print a paper-style table (one row
// per benchmark plus the harmonic-mean INT row the paper uses).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/options.hpp"
#include "sim/presets.hpp"
#include "sim/sweep.hpp"
#include "stats/table.hpp"
#include "workloads/workloads.hpp"

namespace cfir::bench {

struct NamedConfig {
  std::string name;
  core::CoreConfig config;
};

/// Metric extracted from a finished run for the table cells.
using Metric = std::function<double(const stats::SimStats&)>;

/// Committed instructions per bench run when CFIR_MAX_INSTS is unset. An
/// explicit 0 reaches RunSpec::max_insts as 0: every cell runs to HALT.
inline constexpr uint64_t kBenchMaxInsts = 30000;

/// The CFIR_* knobs, parsed once (sim::Options::from_env) on the first
/// call, which every bench makes before it runs or prints anything. A
/// malformed or undeclared knob is a usage error: one line naming it on
/// stderr, exit 2. CFIR_TRACE=<file> starts the flight recorder here.
inline const sim::Options& options() {
  static const sim::Options opts = [] {
    try {
      sim::Options parsed = sim::Options::from_env();
      if (!parsed.trace.empty()) obs::trace_start(parsed.trace);
      return parsed;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(2);
    }
  }();
  return opts;
}

/// CFIR_JSON=1 makes every bench also emit one machine-readable line per
/// grid point (workload, config, full stats::to_json blob) after the table.
inline void dump_json(const std::vector<sim::RunOutcome>& outcomes) {
  if (!options().json) return;
  for (const sim::RunOutcome& o : outcomes) {
    // wall_ms / insts_per_sec are host telemetry: nondeterministic by
    // nature, so nothing may byte-diff CFIR_JSON output across runs (the
    // simulated `stats` blob remains deterministic and diffable on its
    // own).
    const double secs = o.wall_ms / 1000.0;
    const double ips =
        secs > 0 ? static_cast<double>(o.simulated_insts()) / secs : 0.0;
    std::printf("{\"workload\":\"%s\",\"config\":\"%s\",\"scale\":%u,"
                "\"intervals\":%u,\"wall_ms\":%.3f,\"insts_per_sec\":%.0f,"
                "\"stats\":%s",
                o.spec.workload.c_str(), o.spec.config_name.c_str(),
                o.spec.scale, o.spec.intervals, o.wall_ms, ips,
                stats::to_json(o.stats).c_str());
    // Sampled runs also expose the per-phase columns (one row per measured
    // interval / cluster representative): position, population weight, and
    // the phase's own IPC and ci-reuse next to the weighted aggregate.
    if (!o.phases.empty()) {
      std::printf(",\"phases\":[");
      for (size_t p = 0; p < o.phases.size(); ++p) {
        const trace::SampledRun::Interval& ph = o.phases[p];
        std::printf("%s{\"start\":%llu,\"length\":%llu,\"weight\":%g,"
                    "\"ipc\":%g,\"ci_reuse\":%g,\"wall_ms\":%.3f}",
                    p == 0 ? "" : ",",
                    static_cast<unsigned long long>(ph.start_inst),
                    static_cast<unsigned long long>(ph.length), ph.weight,
                    ph.stats.ipc(), ph.stats.reuse_fraction(),
                    static_cast<double>(ph.wall_us) / 1000.0);
      }
      std::printf("]");
    }
    std::printf("}\n");
  }
}

/// One machine-readable `telemetry` line: total detailed-simulation wall
/// and throughput for the whole figure plus a snapshot of every
/// obs::Registry instrument. `detailed_insts` sums every grid point's
/// count; `insts_per_sec` divides only the simulated part by the wall, so
/// cells and units reused from a covering run (wall 0) do not inflate it.
/// Telemetry is host-side (nondeterministic), so it rides in its own line
/// that diff-based consumers can drop.
inline void dump_telemetry_json(const std::vector<sim::RunOutcome>& outcomes) {
  if (!options().json) return;
  double wall_ms = 0;
  unsigned long long insts = 0;
  unsigned long long simulated = 0;
  for (const sim::RunOutcome& o : outcomes) {
    wall_ms += o.wall_ms;
    insts += o.detailed_insts;
    simulated += o.simulated_insts();
  }
  const double secs = wall_ms / 1000.0;
  std::printf("{\"telemetry\":true,\"wall_ms\":%.3f,"
              "\"detailed_insts\":%llu,\"insts_per_sec\":%.0f,"
              "\"metrics\":%s}\n",
              wall_ms, insts,
              secs > 0 ? static_cast<double>(simulated) / secs : 0.0,
              obs::Registry::instance().to_json().c_str());
}

/// The run length a figure header names: "max N <insts>/run", or "runs to
/// HALT" when CFIR_MAX_INSTS=0 (RunSpec::max_insts 0).
inline std::string run_length(const char* insts) {
  const uint64_t max = options().max_insts.value_or(kBenchMaxInsts);
  if (max == 0) return "runs to HALT";
  return "max " + std::to_string(max) + " " + insts + "/run";
}

/// Prints a figure's title and the parenthesized `note` under it, which
/// names the run length through run_length(). A sampled grid
/// (CFIR_INTERVALS > 1) gets one more line naming the sample mode, the
/// interval or window count, the warm mode, the warm-up and the
/// CFIR_DETAIL_LEN slice cap. A blank line ends the header.
inline void print_header(const std::string& title, const std::string& note) {
  const sim::Options& opts = options();
  std::printf("%s\n(%s)\n", title.c_str(), note.c_str());
  if (opts.intervals > 1) {
    const bool cluster = opts.sample_mode == trace::SampleMode::kCluster;
    const std::string cap =
        opts.detail_len == 0 ? "no slice cap"
                             : "slice cap " + std::to_string(opts.detail_len);
    std::printf("(sampled: %s mode, %u %s, %s warming, warm-up %llu, %s)\n",
                trace::sample_mode_name(opts.sample_mode), opts.intervals,
                cluster ? "windows" : "intervals",
                trace::warm_mode_name(opts.warm_mode),
                static_cast<unsigned long long>(opts.warmup), cap.c_str());
  }
  std::printf("\n");
}

/// The grid point (`workload`, `nc`) with the run length, scale and
/// sampling knobs of options() — the one spec builder every figure uses,
/// so all of them honour the same CFIR_* knobs.
inline sim::RunSpec env_spec(const std::string& workload,
                             const NamedConfig& nc) {
  const sim::Options& opts = options();
  sim::RunSpec s;
  s.workload = workload;
  s.config_name = nc.name;
  s.config = nc.config;
  s.max_insts = opts.max_insts.value_or(kBenchMaxInsts);
  s.scale = opts.scale;
  s.intervals = opts.intervals;
  s.sample_mode = opts.sample_mode;
  s.warmup = opts.warmup;
  s.warm_mode = opts.warm_mode;
  s.detail_len = opts.detail_len;
  return s;
}

/// Runs all workloads under all configs and prints one row per workload and
/// one column per config. When `harmonic_summary` is set, appends the INT
/// row (harmonic mean — only meaningful for IPC-like metrics; use
/// arithmetic sums for counters via `sum_summary`). Returns the outcomes,
/// workload-major (`outcomes[w * configs.size() + c]`), so a figure's
/// companion numbers reuse its cells instead of re-running them.
inline std::vector<sim::RunOutcome> run_figure(
    const std::string& title, const std::vector<NamedConfig>& configs,
    const Metric& metric, int precision = 2, bool harmonic_summary = true,
    const std::vector<std::string>& workload_names = workloads::names()) {
  const sim::Options& opts = options();
  std::vector<sim::RunSpec> specs;
  for (const std::string& wl : workload_names) {
    for (const NamedConfig& nc : configs) specs.push_back(env_spec(wl, nc));
  }
  auto outcomes = sim::run_all(specs, opts.threads);

  std::vector<std::string> headers{"bench"};
  for (const NamedConfig& nc : configs) headers.push_back(nc.name);
  stats::Table table(std::move(headers));

  std::vector<std::vector<double>> columns(configs.size());
  size_t i = 0;
  for (const std::string& wl : workload_names) {
    std::vector<double> row;
    for (size_t c = 0; c < configs.size(); ++c, ++i) {
      const double v = metric(outcomes[i].stats);
      row.push_back(v);
      columns[c].push_back(v);
    }
    table.add_row(wl, row, precision);
  }
  if (harmonic_summary) {
    std::vector<double> intr;
    for (auto& col : columns) intr.push_back(stats::harmonic_mean(col));
    table.add_row("INT(hmean)", intr, precision);
  } else {
    std::vector<double> sums;
    for (auto& col : columns) {
      double s = 0;
      for (double v : col) s += v;
      sums.push_back(s);
    }
    table.add_row("TOTAL", sums, precision);
  }
  print_header(title,
               run_length("committed insts") + ", scale " +
                   std::to_string(opts.scale) + ", intervals " +
                   std::to_string(opts.intervals) +
                   "; set CFIR_MAX_INSTS / CFIR_SCALE / CFIR_THREADS / "
                   "CFIR_INTERVALS / CFIR_SAMPLE_MODE / CFIR_WARMUP / "
                   "CFIR_WARM_MODE to change — see README \"Environment "
                   "knobs\"");
  std::printf("%s\n", table.to_text().c_str());
  dump_json(outcomes);
  dump_telemetry_json(outcomes);
  return outcomes;
}

/// Variant keyed by register count instead of workload: one row per sweep
/// point, columns are configs, cells are harmonic-mean IPC over all
/// workloads (Figures 9, 11, 13, 14). Returns the outcomes in run order:
/// register point, then config, then workload.
inline std::vector<sim::RunOutcome> run_register_sweep(
    const std::string& title,
    const std::function<std::vector<NamedConfig>(uint32_t regs)>& make_configs,
    int precision = 2) {
  const sim::Options& opts = options();
  const auto regs_sweep = sim::presets::register_sweep();
  const auto& wls = workloads::names();

  const auto proto = make_configs(256);
  std::vector<std::string> headers{"regs"};
  for (const NamedConfig& nc : proto) headers.push_back(nc.name);
  stats::Table table(std::move(headers));

  std::vector<sim::RunSpec> specs;
  for (const uint32_t regs : regs_sweep) {
    for (const NamedConfig& nc : make_configs(regs)) {
      for (const std::string& wl : wls) specs.push_back(env_spec(wl, nc));
    }
  }
  auto outcomes = sim::run_all(specs, opts.threads);

  size_t i = 0;
  for (const uint32_t regs : regs_sweep) {
    std::vector<double> row;
    for (size_t c = 0; c < proto.size(); ++c) {
      std::vector<double> ipcs;
      for (size_t w = 0; w < wls.size(); ++w, ++i) {
        ipcs.push_back(outcomes[i].stats.ipc());
      }
      row.push_back(stats::harmonic_mean(ipcs));
    }
    table.add_row(sim::presets::reg_label(regs) + " regs", row, precision);
  }
  print_header(title, "harmonic-mean IPC over " + std::to_string(wls.size()) +
                          " workloads; " + run_length("insts"));
  std::printf("%s\n", table.to_text().c_str());
  dump_json(outcomes);
  dump_telemetry_json(outcomes);
  return outcomes;
}

}  // namespace cfir::bench
