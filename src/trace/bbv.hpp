// Basic-block vectors (BBVs) — the program-phase fingerprint behind
// SimPoint-style sampling (Sherwood et al., ASPLOS'02). The committed
// instruction stream is chopped into fixed-length intervals; each interval
// is summarized as a vector counting, per basic block, how many
// instructions the interval spent in that block. Intervals executing the
// same code regions get near-identical vectors, so clustering the vectors
// (cluster.hpp) recovers the program's phases and one representative
// interval per phase stands in for the whole cluster.
//
// Basic blocks are discovered dynamically from the stream itself — no CFG
// construction. A new block starts at the first instruction, after every
// conditional branch (taken or fall-through), and at any PC discontinuity
// (taken branches, jumps, calls, returns). Counting instructions rather
// than block entries weights each block by its length, exactly the
// weighting SimPoint uses.
//
// The same builder runs from either capture source and yields bitwise
// identical vectors: a stored CFIRTRC2 trace (bbv_from_trace) or a live
// reference-interpreter pass (bbv_from_program). Equality holds because
// both sources present the same committed stream (tests/test_bbv_cluster
// locks this in).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "isa/program.hpp"

namespace cfir::trace {

class TraceReader;

/// Per-interval basic-block vectors of one run.
struct BbvSet {
  uint64_t interval_len = 0;  ///< instructions per interval (last may be short)
  uint64_t total_insts = 0;   ///< committed instructions summarized
  /// Dimension -> basic-block leader PC, in first-execution order. Every
  /// vector has exactly `leaders.size()` entries.
  std::vector<uint64_t> leaders;
  /// vectors[i][d] = instructions interval i spent in block leaders[d].
  /// Entries of one vector sum to the interval's instruction count.
  std::vector<std::vector<uint32_t>> vectors;

  [[nodiscard]] size_t num_intervals() const { return vectors.size(); }
};

/// Streaming BBV construction: feed one committed instruction at a time
/// (`is_cond_branch` from the trace record kind or the decoded opcode),
/// then take the result with finish().
class BbvBuilder {
 public:
  explicit BbvBuilder(uint64_t interval_len);

  void step(uint64_t pc, bool is_cond_branch);

  /// Flushes the trailing partial interval (if any) and returns the set.
  /// The builder is spent afterwards.
  [[nodiscard]] BbvSet finish();

 private:
  void flush_interval();

  BbvSet set_;
  std::unordered_map<uint64_t, uint32_t> dim_of_;  ///< leader pc -> dimension
  std::vector<uint32_t> current_;  ///< counts of the interval being filled
  uint64_t in_interval_ = 0;       ///< instructions in `current_`
  uint64_t prev_pc_ = 0;
  bool have_prev_ = false;
  bool prev_was_branch_ = false;
  uint32_t cur_dim_ = 0;  ///< dimension of the block being executed
};

/// Decodes every block of a recorded trace and builds the BBVs.
[[nodiscard]] BbvSet bbv_from_trace(TraceReader& reader,
                                    uint64_t interval_len);

/// One reference-interpreter pass over `program` (fresh memory, data image
/// applied), stopping at HALT or `max_insts` (0 = unbounded). Produces the
/// same BBVs as recording a trace and walking it, without touching disk.
[[nodiscard]] BbvSet bbv_from_program(const isa::Program& program,
                                      uint64_t interval_len,
                                      uint64_t max_insts = 0);

}  // namespace cfir::trace
