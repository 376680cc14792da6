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

/// CFIR_MAX_INSTS, or 30000 when it is unset or empty. An explicit 0
/// reaches RunSpec::max_insts as 0: every cell runs to HALT.
inline uint64_t default_max_insts() { return sim::env_max_insts(30000); }

/// CFIR_JSON=1 makes every bench also emit one machine-readable line per
/// grid point (workload, config, full stats::to_json blob) after the table.
inline bool json_requested() {
  const char* v = std::getenv("CFIR_JSON");
  return v != nullptr && *v != '\0' && *v != '0';
}

/// One machine-readable line summarizing what sharing each plan across its
/// config columns saved (sim::SweepSavings): checkpoints captured and
/// instructions functionally warmed once versus what per-column planning
/// and warming would have cost. Only meaningful for sampled grids
/// (CFIR_INTERVALS > 1); suppressed otherwise.
inline void dump_savings_json(const sim::SweepSavings& savings) {
  if (!json_requested() || savings.sampled_points == 0) return;
  std::printf("{\"shared_plan\":true,\"sampled_points\":%llu,"
              "\"plans\":%llu,\"checkpoints\":%llu,"
              "\"checkpoints_per_column\":%llu,\"warmed_insts\":%llu,"
              "\"warmed_insts_per_column\":%llu}\n",
              static_cast<unsigned long long>(savings.sampled_points),
              static_cast<unsigned long long>(savings.plans),
              static_cast<unsigned long long>(savings.checkpoints),
              static_cast<unsigned long long>(savings.checkpoints_per_column),
              static_cast<unsigned long long>(savings.warmed_insts),
              static_cast<unsigned long long>(
                  savings.warmed_insts_per_column));
}

inline void dump_json(const std::vector<sim::RunOutcome>& outcomes) {
  if (!json_requested()) return;
  for (const sim::RunOutcome& o : outcomes) {
    // wall_ms / insts_per_sec are host telemetry: nondeterministic by
    // nature, so nothing may byte-diff CFIR_JSON output across runs (the
    // simulated `stats` blob remains deterministic and diffable on its
    // own).
    const double secs = o.wall_ms / 1000.0;
    const double ips =
        secs > 0 ? static_cast<double>(o.detailed_insts) / secs : 0.0;
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
/// obs::Registry instrument. Telemetry is host-side (nondeterministic), so
/// it rides in its own line that diff-based consumers can drop.
inline void dump_telemetry_json(const std::vector<sim::RunOutcome>& outcomes) {
  if (!json_requested()) return;
  double wall_ms = 0;
  unsigned long long insts = 0;
  for (const sim::RunOutcome& o : outcomes) {
    wall_ms += o.wall_ms;
    insts += o.detailed_insts;
  }
  const double secs = wall_ms / 1000.0;
  std::printf("{\"telemetry\":true,\"wall_ms\":%.3f,"
              "\"detailed_insts\":%llu,\"insts_per_sec\":%.0f,"
              "\"metrics\":%s}\n",
              wall_ms, insts,
              secs > 0 ? static_cast<double>(insts) / secs : 0.0,
              obs::Registry::instance().to_json().c_str());
}

/// The grid point (`workload`, `nc`) with the run length, scale and
/// sampling knobs read from the environment — the one spec builder every
/// figure uses, so all of them honour the same CFIR_* knobs.
inline sim::RunSpec env_spec(const std::string& workload,
                             const NamedConfig& nc) {
  sim::RunSpec s;
  s.workload = workload;
  s.config_name = nc.name;
  s.config = nc.config;
  s.max_insts = default_max_insts();
  s.scale = sim::env_scale();
  s.intervals = sim::env_intervals();
  s.sample_mode = sim::env_sample_mode();
  s.warmup = sim::env_warmup();
  s.warm_mode = sim::env_warm_mode();
  s.detail_len = sim::env_detail_len();
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
  obs::init_from_env();  // CFIR_TRACE=<file> flight-records this figure
  const uint32_t scale = sim::env_scale();
  const uint64_t max_insts = default_max_insts();
  const uint32_t intervals = sim::env_intervals();

  std::vector<sim::RunSpec> specs;
  for (const std::string& wl : workload_names) {
    for (const NamedConfig& nc : configs) specs.push_back(env_spec(wl, nc));
  }
  sim::SweepSavings savings;
  auto outcomes = sim::run_all(specs, sim::env_threads(), &savings);

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
  std::printf("%s\n", title.c_str());
  std::printf("(max %llu committed insts/run, scale %u, intervals %u; set "
              "CFIR_MAX_INSTS / CFIR_SCALE / CFIR_THREADS / CFIR_INTERVALS / "
              "CFIR_SAMPLE_MODE / CFIR_WARMUP / CFIR_WARM_MODE to change — "
              "see README \"Environment knobs\")\n\n",
              static_cast<unsigned long long>(max_insts), scale, intervals);
  std::printf("%s\n", table.to_text().c_str());
  dump_json(outcomes);
  dump_savings_json(savings);
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
  obs::init_from_env();  // CFIR_TRACE=<file> flight-records this figure
  const uint64_t max_insts = default_max_insts();
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
  sim::SweepSavings savings;
  auto outcomes = sim::run_all(specs, sim::env_threads(), &savings);

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
  std::printf("%s\n", title.c_str());
  std::printf("(harmonic-mean IPC over %zu workloads; max %llu insts/run)\n\n",
              wls.size(), static_cast<unsigned long long>(max_insts));
  std::printf("%s\n", table.to_text().c_str());
  dump_json(outcomes);
  dump_savings_json(savings);
  dump_telemetry_json(outcomes);
  return outcomes;
}

}  // namespace cfir::bench
