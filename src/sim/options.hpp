// The CFIR_* environment knobs, declared once. Options::from_env() is the
// only code that reads the environment: it parses every CFIR_* variable by
// the rule of its field's type — numbers by util::parse_decimal, modes by
// trace::parse_sample_mode / parse_warm_mode, flags as 0 or 1, paths as
// given — and an empty value means the default. The benches, trace_tool
// and workload_explorer call it before they run or print anything and
// report its util::UsageError as exit 2. Library code never calls it, so
// a program driving the library may set any environment; the shared pool
// reads CFIR_THREADS alone.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "trace/sampling.hpp"
#include "trace/warming.hpp"

namespace cfir::sim {

struct Options {
  uint32_t scale = 1;        ///< CFIR_SCALE: kernel size, at least 1
  int threads = 0;           ///< CFIR_THREADS: 0 = the shared pool's size
  /// CFIR_MAX_INSTS: committed-instruction cap per run, 0 = to HALT;
  /// unset leaves the binary's own default.
  std::optional<uint64_t> max_insts;
  uint32_t intervals = 1;    ///< CFIR_INTERVALS: >1 samples each run
  /// CFIR_SAMPLE_MODE: the plan kind of a sampled run
  trace::SampleMode sample_mode = trace::SampleMode::kUniform;
  uint64_t warmup = 0;       ///< CFIR_WARMUP: detailed warm-up/interval
  /// CFIR_WARM_MODE: how each interval's state is warmed
  trace::WarmMode warm_mode = trace::WarmMode::kDetailed;
  uint64_t detail_len = 0;   ///< CFIR_DETAIL_LEN: measured-slice cap
  bool json = false;         ///< CFIR_JSON: machine-readable lines too
  std::string trace;         ///< CFIR_TRACE: flight-record file, "" = off
  std::string trace_dir = ".";  ///< CFIR_TRACE_DIR: trace_tool's files

  /// The environment's CFIR_* variables, parsed. Throws util::UsageError
  /// naming the variable on a malformed value or an undeclared name.
  [[nodiscard]] static Options from_env();
  /// CFIR_THREADS alone, by the same rule (0 when unset): what the lazily
  /// built shared pool sizes itself from.
  [[nodiscard]] static int threads_from_env();
};

}  // namespace cfir::sim
