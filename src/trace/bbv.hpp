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
// (taken branches, calls, returns, jumps anywhere but the next slot).
// Counting instructions rather than block entries weights each block by
// its length, exactly the weighting SimPoint uses.
//
// The builder takes the stream a slice at a time: a run of instructions at
// consecutive PCs of which only the last may be a conditional branch. The
// functional engine's slice sink delivers exactly such slices, so a
// program pass pays one dimension lookup and one add per executed block,
// not per instruction; a stored trace feeds one record per slice. The
// builder logs (dimension, instruction count) runs, merging consecutive
// runs of one dimension, and bins the log into windows only at finish() —
// so a caller that wants N equal windows learns the run length from the
// same pass (plan_cluster_intervals needs no counting pass). A slice that
// crosses a window boundary splits there, its remainder staying under the
// same dimension.
//
// Both capture sources yield bitwise identical vectors: a stored CFIRTRC2
// trace (bbv_from_trace) or a live functional-engine pass
// (bbv_from_program), because both present the same committed stream
// (tests/test_bbv_cluster locks this in against a per-instruction
// reference).
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "isa/program.hpp"

namespace cfir::trace {

class SnapshotLadder;
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

/// The length of each of at most `n_windows` equal windows covering
/// `total` instructions: ceil(total / n_windows), and at least 1 (an empty
/// run or n_windows = 0 still gets a usable length).
[[nodiscard]] uint64_t window_len(uint64_t total, uint64_t n_windows);

/// Streaming BBV construction: feed the committed stream in order as
/// slices, then bin it with finish().
class BbvBuilder {
 public:
  /// `n` committed instructions at consecutive PCs starting at `pc`, of
  /// which only the last may be a conditional branch (`ends_in_cond_branch`
  /// says whether it is). An empty slice is ignored.
  void add(uint64_t pc, uint64_t n, bool ends_in_cond_branch);

  [[nodiscard]] uint64_t total_insts() const { return total_; }

  /// Bins the logged runs into windows of `interval_len` instructions (the
  /// last may be short; throws when `interval_len` is 0). The builder is
  /// spent afterwards.
  [[nodiscard]] BbvSet finish(uint64_t interval_len);

 private:
  /// `insts` consecutive instructions spent in block `dim`.
  struct Run {
    uint32_t dim;
    uint32_t insts;
  };
  /// A direct-mapped (leader pc -> dimension) entry checked before
  /// dim_of_; the all-ones pc is never a leader (pcs are aligned).
  struct Hint {
    uint64_t pc = ~uint64_t{0};
    uint32_t dim = 0;
  };
  static constexpr size_t kHints = 256;  // power of two

  std::vector<uint64_t> leaders_;
  std::unordered_map<uint64_t, uint32_t> dim_of_;  ///< leader pc -> dimension
  std::array<Hint, kHints> hints_{};
  std::vector<Run> runs_;
  uint64_t total_ = 0;
  uint64_t last_pc_ = 0;  ///< PC of the last instruction added
  bool last_was_branch_ = false;
};

/// One functional-engine pass over `program` (fresh memory, data image
/// applied), stopping at HALT or after `max_insts` instructions (0 =
/// unbounded), fed into a fresh builder a block slice at a time through
/// the engine's slice sink; the builder's total_insts() is the number of
/// instructions the pass ran. With a `ladder`, the same pass also keeps
/// its architectural snapshots (checkpoint.hpp), so a caller can later
/// check out any position of the run without re-executing its prefix.
[[nodiscard]] BbvBuilder bbv_runs_from_program(
    const isa::Program& program, uint64_t max_insts = 0,
    SnapshotLadder* ladder = nullptr);

/// Feeds every record of a recorded trace, in stream order, to a builder
/// and bins the result into windows of `interval_len`.
[[nodiscard]] BbvSet bbv_from_trace(TraceReader& reader,
                                    uint64_t interval_len);

/// bbv_runs_from_program binned into windows of `interval_len`. Produces
/// the same BBVs as recording a trace and walking it, without touching
/// disk.
[[nodiscard]] BbvSet bbv_from_program(const isa::Program& program,
                                      uint64_t interval_len,
                                      uint64_t max_insts = 0);

}  // namespace cfir::trace
