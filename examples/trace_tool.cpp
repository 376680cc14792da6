// Trace tooling CLI: record, inspect, replay, phase-analyze, sample and
// shard workload traces.
//
//   trace_tool record <workload> [scale] [max_insts]   write <wl>.s<scale>.cfirtrace
//                                                      (max_insts 0 = to HALT)
//   trace_tool info   <file>                           print header + stream summary
//                                                      (trace or manifest)
//   trace_tool replay <file>                           verify trace against live run
//   trace_tool phases <file> [n_intervals]             BBV + phase clustering, JSON
//   trace_tool sample <workload> <k> [scale] [max]     sampled detailed run
//          [--mode=uniform|cluster] [--warmup=W] [--max-k=K]
//          [--warm-mode=none|detailed|functional|hybrid] [--detail=M]
//          [--config=<spec>]
//   trace_tool plan   <workload> <k> [scale] [max]     freeze a plan to disk
//          [sample's flags] [--configs=<spec>,...]     (manifest + checkpoints)
//   trace_tool run-shard <manifest> [--shard=i/N]      execute one shard for
//          [--jobs=J] [--out=file]                     every config point
//                                                      -> CFIRSHD2 result blob
//   trace_tool merge  <manifest> <shard files...>      fold shards back into
//          [--per-phase] [--config=<name>]             one report per config
//
// Observability (docs/observability.md): every verb accepts
// --trace-out=<file> (or CFIR_TRACE=<file>) to flight-record the run as
// Chrome trace-event JSON, exported at process exit. Recording perturbs
// neither simulated stats nor stdout.
//
// Config specs are preset labels of the form <family>:<ports>:<regs>
// (sim::presets::from_spec), e.g. ci:2:512. `plan --configs` freezes a
// whole grid of them into ONE manifest sharing one checkpoint set —
// interval boundaries and architectural state are config-independent.
// `run-shard` then executes every config point per interval, capturing
// every config's functional warm state in one streaming pass, and
// `merge --config=<name>` prints any column byte-identical to the
// single-config `sample` of the same arguments (docs/sharding.md).
//
// Files land in CFIR_TRACE_DIR (default "."). `record` captures from the
// reference interpreter; `replay` re-executes under verification and cross
// checks the final architectural registers and memory digest stored in the
// header, exiting non-zero on any divergence. `phases` chops a stored
// trace into n fixed-length intervals, builds per-interval basic-block
// vectors and clusters them (docs/sampling.md). `sample` runs the
// detailed core over the planned intervals in parallel (CFIR_THREADS) and
// prints per-interval and merged stats as JSON; in cluster mode <k> is
// the number of BBV windows and only one weighted representative per
// phase is simulated.
//
// Exit codes (scripts can branch on the failure kind):
//   0 ok | 1 other error | 2 usage | 3 bad magic | 4 unsupported version
//   5 config-hash mismatch | 6 corrupt/truncated file
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/tracer.hpp"

#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "stats/stats.hpp"
#include "trace/bbv.hpp"
#include "trace/cluster.hpp"
#include "trace/errors.hpp"
#include "trace/manifest.hpp"
#include "trace/sampling.hpp"
#include "trace/shard.hpp"
#include "trace/trace.hpp"
#include "util/parse.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace cfir;

int usage() {
  std::fprintf(
      stderr,
      "usage: trace_tool record <workload> [scale] [max_insts (0 = to HALT)]\n"
      "       trace_tool info   <trace-or-manifest-file>\n"
      "       trace_tool replay <trace-file>\n"
      "       trace_tool phases <trace-file> [n_intervals]\n"
      "       trace_tool sample <workload> <k> [scale] [max_insts]\n"
      "                         [--mode=uniform|cluster] [--warmup=W]\n"
      "                         [--max-k=K]\n"
      "                         [--warm-mode=none|detailed|functional|hybrid]\n"
      "                         [--detail=M (measured-slice cap/interval)]\n"
      "                         [--config=<family>:<ports>:<regs> e.g."
      " ci:2:512]\n"
      "       trace_tool plan   <workload> <k> [scale] [max_insts]\n"
      "                         [same flags as sample]\n"
      "                         [--configs=<spec>,<spec>,... (config grid\n"
      "                         sharing one checkpoint set)]\n"
      "                         writes <wl>.s<scale>.cfirman + checkpoints\n"
      "       trace_tool run-shard <manifest> [--shard=i/N] [--jobs=J]\n"
      "                         [--out=file (default <stem>.shard<i>of<N>"
      ".cfirshd)]\n"
      "                         [--scrub-wall (zero wall-clock telemetry\n"
      "                         in the blob for byte-diffable output)]\n"
      "       trace_tool merge  <manifest> <shard-file>... [--per-phase]\n"
      "                         [--config=<name> (one grid column)]\n"
      "any verb: [--trace-out=<file> (Chrome trace-event flight record)]\n"
      "env: CFIR_TRACE_DIR (output dir), CFIR_THREADS (sample/run-shard),\n"
      "     CFIR_TRACE=<file> (same as --trace-out)\n"
      "files: traces are CFIRTRC2, manifests CFIRMAN2, checkpoints\n"
      "      CFIRCKP1, shard results CFIRSHD2 v3; retired formats exit 4,\n"
      "      a missing CRC footer 6\n"
      "exit: 2 usage, 3 bad magic, 4 bad version, 5 config-hash mismatch,\n"
      "      6 corrupt file, 1 other\n");
  return 2;
}

/// A malformed argument: main prints it and the usage text, exit 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The numeric argument `what`: a whole decimal that fits T (the parser
/// behind the CFIR_* knobs), or a UsageError naming it.
template <typename T>
T number(const char* what, std::string_view text) {
  try {
    return static_cast<T>(
        util::parse_decimal(what, text, std::numeric_limits<T>::max()));
  } catch (const std::runtime_error& e) {
    throw UsageError(e.what());
  }
}

/// The core configuration sampling subcommands default to when no
/// --config/--configs flag names one — one definition so plan and sample
/// can never drift apart.
core::CoreConfig tool_config() { return sim::presets::ci(2, 512); }

std::string default_path(const std::string& workload, uint32_t scale) {
  return trace::env_trace_dir() + "/" + workload + ".s" +
         std::to_string(scale) + ".cfirtrace";
}

int cmd_record(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string workload = argv[0];
  const uint32_t scale = argc > 1 ? number<uint32_t>("scale", argv[1]) : 1;
  // 0 = to HALT, as for every other run length.
  uint64_t max_insts = argc > 2 ? number<uint64_t>("max_insts", argv[2]) : 0;
  if (max_insts == 0) max_insts = UINT64_MAX;

  const isa::Program program = workloads::build(workload, scale);
  trace::TraceMeta meta;
  meta.workload = workload;
  meta.scale = scale;
  const std::string path = default_path(workload, scale);
  const isa::InterpResult r =
      trace::record_interpreter(program, path, meta, max_insts);
  std::printf("recorded %llu instructions of %s (scale %u) to %s\n",
              static_cast<unsigned long long>(r.executed), workload.c_str(),
              scale, path.c_str());
  std::printf("final digest 0x%016llx halted=%d\n",
              static_cast<unsigned long long>(r.mem_digest), r.halted);
  return 0;
}

/// `info` on a CFIRMAN manifest: the plan, its config points and its
/// artifact files, so a farmed directory is inspectable without merging.
int manifest_info(const std::string& path) {
  const trace::ShardManifest m = trace::ShardManifest::load(path);
  std::printf("manifest: %s\n", path.c_str());
  std::printf("workload: %s  scale: %u  mode: %s  warm_mode: %s\n",
              m.workload.c_str(), m.scale,
              m.mode == trace::SampleMode::kCluster ? "cluster" : "uniform",
              trace::warm_mode_name(m.warm_mode));
  std::printf("plan_hash: 0x%016llx  total_insts: %llu  warmup: %llu\n",
              static_cast<unsigned long long>(m.plan_hash),
              static_cast<unsigned long long>(m.total_insts),
              static_cast<unsigned long long>(m.warmup));
  std::printf("configs: %zu\n", m.configs.size());
  for (size_t c = 0; c < m.configs.size(); ++c) {
    const auto& cp = m.configs[c];
    std::printf("  [%zu] %s  hash 0x%016llx\n", c, cp.name.c_str(),
                static_cast<unsigned long long>(cp.config_hash));
  }
  std::printf("intervals: %zu\n", m.intervals.size());
  for (size_t i = 0; i < m.intervals.size(); ++i) {
    const auto& iv = m.intervals[i];
    std::printf("  [%zu] start %llu  length %llu  weight %g  %s\n", i,
                static_cast<unsigned long long>(iv.start),
                static_cast<unsigned long long>(iv.length), iv.weight,
                iv.checkpoint_file.c_str());
  }
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string path = argv[0];
  // Sniff the magic so one `info` verb serves every artifact kind. The
  // version digit is left out, so a retired manifest reaches the manifest
  // loader and is rejected as such.
  {
    char magic[7] = {};
    std::ifstream in(path, std::ios::binary);
    in.read(magic, sizeof(magic));
    if (in && std::memcmp(magic, trace::kManifestMagicV2, sizeof(magic)) == 0) {
      return manifest_info(path);
    }
  }
  trace::TraceReader reader(path);
  std::printf("workload: %s  scale: %u  base_pc: 0x%llx\n",
              reader.meta().workload.c_str(), reader.meta().scale,
              static_cast<unsigned long long>(reader.meta().base_pc));
  std::printf("records: %llu  final digest: 0x%016llx\n",
              static_cast<unsigned long long>(reader.record_count()),
              static_cast<unsigned long long>(reader.final_digest()));
  uint64_t file_bytes = 0;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (in) file_bytes = static_cast<uint64_t>(in.tellg());
  }
  std::printf("format: v%u  file: %llu bytes  (%.3f B/inst)\n",
              trace::kTraceVersionV2,
              static_cast<unsigned long long>(file_bytes),
              reader.record_count() == 0
                  ? 0.0
                  : static_cast<double>(file_bytes) /
                        static_cast<double>(reader.record_count()));
  std::printf("blocks: %zu  block_len: %u\n", reader.block_count(),
              reader.block_len());
  const std::array<uint64_t, trace::kTraceV2Columns> cols =
      reader.column_bytes();
  uint64_t payload = 0;
  std::printf("columns:");
  for (size_t c = 0; c < cols.size(); ++c) {
    payload += cols[c];
    std::printf(" %s=%llu", trace::trace_v2_column_name(c),
                static_cast<unsigned long long>(cols[c]));
  }
  std::printf("  (payload %llu bytes)\n",
              static_cast<unsigned long long>(payload));

  uint64_t branches = 0, taken = 0, loads = 0, stores = 0;
  trace::TraceRecord rec;
  while (reader.next(rec)) {
    switch (rec.kind) {
      case trace::RecordKind::kBranch:
        ++branches;
        if (rec.taken) ++taken;
        break;
      case trace::RecordKind::kLoad: ++loads; break;
      case trace::RecordKind::kStore: ++stores; break;
      case trace::RecordKind::kPlain: break;
    }
  }
  std::printf("branches: %llu (%llu taken)  loads: %llu  stores: %llu\n",
              static_cast<unsigned long long>(branches),
              static_cast<unsigned long long>(taken),
              static_cast<unsigned long long>(loads),
              static_cast<unsigned long long>(stores));
  return 0;
}

int cmd_replay(int argc, char** argv) {
  if (argc < 1) return usage();
  trace::TraceReader reader(argv[0]);
  const isa::Program program =
      workloads::build(reader.meta().workload, reader.meta().scale);
  const trace::ReplayResult r = trace::replay_trace(program, reader);
  if (!r.match) {
    std::fprintf(stderr, "replay FAILED after %llu records: %s\n",
                 static_cast<unsigned long long>(r.replayed),
                 r.mismatch.c_str());
    return 1;
  }
  std::printf("replay OK: %llu records, final digest 0x%016llx\n",
              static_cast<unsigned long long>(r.replayed),
              static_cast<unsigned long long>(r.final_state.mem_digest));
  return 0;
}

int cmd_phases(int argc, char** argv) {
  if (argc < 1) return usage();
  const uint32_t n_intervals =
      argc > 1 ? number<uint32_t>("n_intervals", argv[1]) : 32;
  if (n_intervals == 0) return usage();
  trace::TraceReader reader(argv[0]);

  // Interval length from the header's record count, so `phases` needs no
  // workload rebuild — it only walks the stored stream.
  const uint64_t records = reader.record_count();
  const uint64_t interval_len = trace::window_len(records, n_intervals);
  const trace::BbvSet bbvs = trace::bbv_from_trace(reader, interval_len);
  const trace::Clustering clusters = trace::cluster_bbvs(bbvs);

  std::printf("{\"workload\":\"%s\",\"scale\":%u,\"records\":%llu,"
              "\"interval_len\":%llu,\"intervals\":%zu,\"blocks\":%zu,"
              "\"k\":%u}\n",
              reader.meta().workload.c_str(), reader.meta().scale,
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(interval_len),
              bbvs.num_intervals(), bbvs.leaders.size(), clusters.k);
  for (size_t i = 0; i < bbvs.num_intervals(); ++i) {
    uint64_t insts = 0;
    for (const uint32_t c : bbvs.vectors[i]) insts += c;
    std::printf("{\"interval\":%zu,\"start\":%llu,\"insts\":%llu,"
                "\"cluster\":%u}\n",
                i, static_cast<unsigned long long>(i * interval_len),
                static_cast<unsigned long long>(insts),
                clusters.assignment[i]);
  }
  for (uint32_t c = 0; c < clusters.k; ++c) {
    std::printf("{\"cluster\":%u,\"representative\":%u,\"weight\":%llu}\n",
                c, clusters.representative[c],
                static_cast<unsigned long long>(clusters.sizes[c]));
  }
  return 0;
}

/// Shared flag set of `sample` and `plan` — the two must plan identically
/// for merged shard output to be diffable against sample output.
struct PlanArgs {
  std::string workload;
  uint32_t k = 0;
  uint32_t scale = 1;
  uint64_t max_insts = 0;
  trace::SampleMode mode = trace::SampleMode::kUniform;
  trace::WarmMode warm_mode = trace::WarmMode::kDetailed;
  uint64_t warmup = 0;
  uint64_t detail_len = 0;
  uint32_t max_k = 0;
  /// The config grid. Defaults to one tool_config() point;
  /// `sample --config=<spec>` replaces it, `plan --configs=...` extends it
  /// to a whole grid sharing one checkpoint set.
  std::vector<trace::ConfigBinding> configs;
};

/// Appends the comma-separated preset specs in `list` to `out.configs`;
/// false (usage error) on a malformed spec.
bool parse_config_list(const std::string& list, PlanArgs& out) {
  size_t pos = 0;
  while (pos <= list.size()) {
    const size_t comma = list.find(',', pos);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    const std::string spec = list.substr(pos, end - pos);
    try {
      const core::CoreConfig config = sim::presets::from_spec(spec);
      out.configs.push_back({config.label(), config});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace_tool: %s\n", e.what());
      return false;
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return true;
}

bool parse_plan_args(int argc, char** argv, PlanArgs& out) {
  std::vector<std::string> pos;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--warm-mode=", 0) == 0) {
      out.warm_mode = trace::parse_warm_mode(arg.substr(12));
    } else if (arg.rfind("--detail=", 0) == 0) {
      out.detail_len = number<uint64_t>("--detail", arg.substr(9));
    } else if (arg.rfind("--mode=", 0) == 0) {
      const std::string v = arg.substr(7);
      if (v == "uniform") {
        out.mode = trace::SampleMode::kUniform;
      } else if (v == "cluster") {
        out.mode = trace::SampleMode::kCluster;
      } else {
        return false;
      }
    } else if (arg.rfind("--warmup=", 0) == 0) {
      out.warmup = number<uint64_t>("--warmup", arg.substr(9));
    } else if (arg.rfind("--max-k=", 0) == 0) {
      out.max_k = number<uint32_t>("--max-k", arg.substr(8));
    } else if (arg.rfind("--config=", 0) == 0) {
      if (!parse_config_list(arg.substr(9), out)) return false;
    } else if (arg.rfind("--configs=", 0) == 0) {
      if (!parse_config_list(arg.substr(10), out)) return false;
    } else if (arg.rfind("--", 0) == 0) {
      return false;
    } else {
      pos.push_back(arg);
    }
  }
  if (pos.size() < 2) return false;
  out.workload = pos[0];
  out.k = number<uint32_t>("k", pos[1]);
  if (pos.size() > 2) out.scale = number<uint32_t>("scale", pos[2]);
  if (pos.size() > 3) out.max_insts = number<uint64_t>("max_insts", pos[3]);
  if (out.configs.empty()) {
    out.configs.push_back({tool_config().label(), tool_config()});
  }
  return true;
}

trace::IntervalPlan build_plan(const PlanArgs& args,
                               const isa::Program& program) {
  if (args.mode == trace::SampleMode::kCluster) {
    trace::ClusterPlanOptions opts;
    opts.n_intervals = args.k;
    opts.max_k = args.max_k;
    opts.warmup = args.warmup;
    opts.warm_mode = args.warm_mode;
    opts.detail_len = args.detail_len;
    opts.max_insts = args.max_insts;
    return trace::plan_cluster_intervals(program, opts);
  }
  return trace::plan_intervals(program, args.k, args.max_insts, args.warmup,
                               args.warm_mode, args.detail_len);
}

/// One line per interval plus the aggregate line — shared by `sample` and
/// `merge` so a sharded pipeline's output can be diffed against the
/// single-process run byte for byte.
void print_run(const trace::SampledRun& run, trace::SampleMode mode,
               trace::WarmMode warm_mode) {
  for (size_t i = 0; i < run.intervals.size(); ++i) {
    const auto& interval = run.intervals[i];
    std::printf("{\"interval\":%zu,\"start\":%llu,\"length\":%llu,"
                "\"warmup\":%llu,\"weight\":%g,\"stats\":%s}\n",
                i, static_cast<unsigned long long>(interval.start_inst),
                static_cast<unsigned long long>(interval.length),
                static_cast<unsigned long long>(interval.warmup),
                interval.weight, stats::to_json(interval.stats).c_str());
  }
  const double coverage =
      run.total_insts == 0
          ? 0.0
          : static_cast<double>(run.detailed_insts) /
                static_cast<double>(run.total_insts);
  std::printf("{\"aggregate\":true,\"mode\":\"%s\",\"warm_mode\":\"%s\","
              "\"total_insts\":%llu,\"detailed_insts\":%llu,"
              "\"warmed_insts\":%llu,\"detailed_fraction\":%g,"
              "\"stats\":%s}\n",
              mode == trace::SampleMode::kCluster ? "cluster" : "uniform",
              trace::warm_mode_name(warm_mode),
              static_cast<unsigned long long>(run.total_insts),
              static_cast<unsigned long long>(run.detailed_insts),
              static_cast<unsigned long long>(run.warmed_insts),
              coverage, stats::to_json(run.aggregate).c_str());
}

int cmd_sample(int argc, char** argv) {
  PlanArgs args;
  if (!parse_plan_args(argc, argv, args)) return usage();
  if (args.configs.size() != 1) {
    std::fprintf(stderr,
                 "trace_tool sample: takes exactly one --config spec (use "
                 "plan --configs for a grid)\n");
    return usage();
  }
  const isa::Program program = workloads::build(args.workload, args.scale);
  const trace::IntervalPlan plan = build_plan(args, program);
  const trace::SampledRun run =
      trace::sampled_run(args.configs[0].config, program, plan);
  print_run(run, args.mode, args.warm_mode);
  return 0;
}

int cmd_plan(int argc, char** argv) {
  PlanArgs args;
  if (!parse_plan_args(argc, argv, args)) return usage();
  const isa::Program program = workloads::build(args.workload, args.scale);
  const trace::IntervalPlan plan = build_plan(args, program);
  // The architectural checkpoints are shared by the whole config grid; each
  // shard captures its configs' functional warm state itself, streaming
  // [0, its last interval) once for its whole grid.
  const std::string manifest_path = trace::env_trace_dir() + "/" +
                                    args.workload + ".s" +
                                    std::to_string(args.scale) + ".cfirman";
  const trace::ShardManifest manifest = trace::write_manifest(
      plan, args.configs, args.workload, args.scale, manifest_path);
  std::printf("{\"manifest\":\"%s\",\"workload\":\"%s\",\"scale\":%u,"
              "\"mode\":\"%s\",\"warm_mode\":\"%s\",\"intervals\":%zu,"
              "\"total_insts\":%llu,\"plan_hash\":\"0x%016llx\","
              "\"configs\":[",
              manifest_path.c_str(), manifest.workload.c_str(),
              manifest.scale,
              manifest.mode == trace::SampleMode::kCluster ? "cluster"
                                                           : "uniform",
              trace::warm_mode_name(manifest.warm_mode),
              manifest.intervals.size(),
              static_cast<unsigned long long>(manifest.total_insts),
              static_cast<unsigned long long>(manifest.plan_hash));
  for (size_t c = 0; c < manifest.configs.size(); ++c) {
    std::printf("%s{\"name\":\"%s\",\"hash\":\"0x%016llx\"}",
                c == 0 ? "" : ",", manifest.configs[c].name.c_str(),
                static_cast<unsigned long long>(
                    manifest.configs[c].config_hash));
  }
  std::printf("]}\n");
  return 0;
}

int cmd_run_shard(int argc, char** argv) {
  std::string manifest_path;
  std::string out_path;
  trace::ShardSelection shard;
  int jobs = 0;
  bool scrub_wall = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scrub-wall") {
      scrub_wall = true;
    } else if (arg.rfind("--shard=", 0) == 0) {
      // A malformed or out-of-range shard spec is a usage error (exit 2),
      // same as an unknown flag — not an internal failure.
      try {
        shard = trace::parse_shard(arg.substr(8));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "trace_tool run-shard: %s\n", e.what());
        return usage();
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      jobs = number<int>("--jobs", arg.substr(7));
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else if (manifest_path.empty()) {
      manifest_path = arg;
    } else {
      return usage();
    }
  }
  if (manifest_path.empty()) return usage();

  const trace::ShardManifest manifest =
      trace::ShardManifest::load(manifest_path);
  const isa::Program program =
      workloads::build(manifest.workload, manifest.scale);
  const trace::IntervalPlan plan =
      trace::plan_from_manifest(manifest, manifest_path);
  if (out_path.empty()) {
    out_path = trace::path_stem(manifest_path) + ".shard" +
               std::to_string(shard.index) + "of" +
               std::to_string(shard.count) + ".cfirshd";
  }
  // The configs travel in the manifest; refuse a manifest directory whose
  // reloaded checkpoints no longer match its interval schedule.
  trace::verify_manifest_plan(manifest, plan);
  trace::ShardResult result = trace::run_shard(
      manifest.configs, program, plan, shard, jobs, manifest.plan_hash);
  if (scrub_wall) {
    // Zero the host wall-clock telemetry riding in the blob (the only
    // nondeterministic fields), so two runs of the same shard byte-diff
    // clean.
    result.warm_wall_us = 0;
    for (auto& iv : result.intervals) {
      iv.wall_us.assign(result.configs.size(), 0);
    }
  }
  result.save(out_path);
  uint64_t detailed = 0;
  for (const auto& cc : result.configs) detailed += cc.detailed_insts;
  std::printf("{\"shard\":\"%u/%u\",\"intervals\":%zu,\"configs\":%zu,"
              "\"detailed_insts\":%llu,\"warmed_insts\":%llu,"
              "\"out\":\"%s\"}\n",
              result.shard_index, result.shard_count,
              result.intervals.size(), result.configs.size(),
              static_cast<unsigned long long>(detailed),
              static_cast<unsigned long long>(result.warmed_insts),
              out_path.c_str());
  return 0;
}

int cmd_merge(int argc, char** argv) {
  std::string manifest_path;
  std::string config_name;
  std::vector<std::string> shard_paths;
  bool per_phase = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--per-phase") {
      per_phase = true;
    } else if (arg.rfind("--config=", 0) == 0) {
      config_name = arg.substr(9);
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else if (manifest_path.empty()) {
      manifest_path = arg;
    } else {
      shard_paths.push_back(arg);
    }
  }
  if (manifest_path.empty() || shard_paths.empty()) return usage();

  const trace::ShardManifest manifest =
      trace::ShardManifest::load(manifest_path);
  std::vector<trace::ShardResult> shards;
  shards.reserve(shard_paths.size());
  for (const std::string& path : shard_paths) {
    trace::ShardResult shard = trace::ShardResult::load(path);
    if (shard.plan_hash != manifest.plan_hash) {
      throw trace::ConfigMismatchError(
          "merge: " + path +
          " was produced from a different manifest (plan hash mismatch) "
          "— re-run its shard against " + manifest_path);
    }
    shards.push_back(std::move(shard));
  }
  const trace::MergedGrid grid = trace::merge_shard_grid(shards);

  // Column selection: --config picks one grid column by name; a 1-config
  // grid needs no flag (and prints exactly what `sample` prints).
  std::vector<const trace::MergedGrid::ConfigRun*> selected;
  if (!config_name.empty()) {
    for (const auto& column : grid.configs) {
      if (column.name == config_name) selected.push_back(&column);
    }
    if (selected.empty()) {
      std::fprintf(stderr,
                   "trace_tool merge: no config point named '%s' in %s "
                   "(run `trace_tool info` on the manifest to list them)\n",
                   config_name.c_str(), manifest_path.c_str());
      return usage();
    }
  } else {
    for (const auto& column : grid.configs) selected.push_back(&column);
  }

  for (const trace::MergedGrid::ConfigRun* column : selected) {
    // A multi-column report labels each column; single-column output
    // stays byte-identical to `trace_tool sample`.
    if (selected.size() > 1) {
      std::printf("{\"config\":\"%s\",\"config_hash\":\"0x%016llx\"}\n",
                  column->name.c_str(),
                  static_cast<unsigned long long>(column->config_hash));
    }
    if (per_phase) {
      // Per-phase columns: each measured interval is one phase
      // representative; weight is the population it stands in for.
      const trace::SampledRun& run = column->run;
      for (size_t i = 0; i < run.intervals.size(); ++i) {
        const auto& iv = run.intervals[i];
        std::printf("{\"phase\":%zu,\"start\":%llu,\"length\":%llu,"
                    "\"weight\":%g,\"ipc\":%g,\"ci_reuse\":%g,"
                    "\"wall_ms\":%.3f}\n",
                    i, static_cast<unsigned long long>(iv.start_inst),
                    static_cast<unsigned long long>(iv.length), iv.weight,
                    iv.stats.ipc(), iv.stats.reuse_fraction(),
                    static_cast<double>(iv.wall_us) / 1000.0);
      }
      // Host-side telemetry (nondeterministic) stays in the --per-phase
      // report only: plain merge output must remain byte-identical to
      // `trace_tool sample`.
      const double wall_s = static_cast<double>(run.wall_us) / 1e6;
      std::printf("{\"telemetry\":true,\"wall_ms\":%.3f,"
                  "\"warm_wall_ms\":%.3f,\"insts_per_sec\":%.0f}\n",
                  static_cast<double>(run.wall_us) / 1000.0,
                  static_cast<double>(run.warm_wall_us) / 1000.0,
                  wall_s > 0
                      ? static_cast<double>(run.detailed_insts) / wall_s
                      : 0.0);
    }
    print_run(column->run, manifest.mode, manifest.warm_mode);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --trace-out=<file> is a global flag: strip it before verb dispatch so
  // every subcommand can be flight-recorded. CFIR_TRACE=<file> is the env
  // equivalent; the explicit flag wins when both are given.
  std::vector<char*> args;
  std::string trace_out;
  args.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else {
      args.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();
  obs::init_from_env();
  if (!trace_out.empty()) obs::trace_start(trace_out);

  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "record") return cmd_record(argc - 2, argv + 2);
    if (cmd == "info") return cmd_info(argc - 2, argv + 2);
    if (cmd == "replay") return cmd_replay(argc - 2, argv + 2);
    if (cmd == "phases") return cmd_phases(argc - 2, argv + 2);
    if (cmd == "sample") return cmd_sample(argc - 2, argv + 2);
    if (cmd == "plan") return cmd_plan(argc - 2, argv + 2);
    if (cmd == "run-shard") return cmd_run_shard(argc - 2, argv + 2);
    if (cmd == "merge") return cmd_merge(argc - 2, argv + 2);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "trace_tool %s: %s\n", cmd.c_str(), e.what());
    return usage();
  } catch (const trace::BadMagicError& e) {
    std::fprintf(stderr, "trace_tool %s: %s\n", cmd.c_str(), e.what());
    return 3;
  } catch (const trace::VersionError& e) {
    std::fprintf(stderr, "trace_tool %s: %s\n", cmd.c_str(), e.what());
    return 4;
  } catch (const trace::ConfigMismatchError& e) {
    std::fprintf(stderr, "trace_tool %s: %s\n", cmd.c_str(), e.what());
    return 5;
  } catch (const trace::CorruptFileError& e) {
    std::fprintf(stderr, "trace_tool %s: %s\n", cmd.c_str(), e.what());
    return 6;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_tool %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
