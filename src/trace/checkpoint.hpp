// Architectural checkpoints: a snapshot of the register file, memory image
// and PC at an instruction boundary, with file serialization and a
// fast-forward API. A checkpoint captured after N interpreted instructions
// lets any later simulation (reference or detailed core) resume from
// instruction N with bit-identical architectural behaviour — the building
// block for interval sampling (sampling.hpp) and for sharing run state
// between machines.
//
// File format, version 1 (little-endian):
//   magic "CFIRCKP1" | u32 version | u32 reserved
//   | u64 pc | u64 executed | 64 x u64 registers
//   | u64 page_count | page_count x (u64 base_addr | 4096 page bytes)
// All-zero pages are dropped (reads of absent pages return zero).
//
// Version 2 ("CFIRCKP2") appends an opaque functional-warm-state blob
// (trace/warming.hpp) after the pages:
//   ... | u64 warm_size | warm_size bytes
// so a warmed interval ships as one self-contained artifact: architectural
// state to resume from plus the predictor/cache state trained over the
// prefix. save() emits v1 when no warm state is attached; load() accepts
// both versions.
//
// Either version ends with the shared CRC-32 footer (trace/blob.hpp), so a
// truncated or bit-flipped checkpoint is rejected at load.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hpp"
#include "mem/main_memory.hpp"

namespace cfir::isa {
class FunctionalEngine;
}  // namespace cfir::isa

namespace cfir::trace {

inline constexpr char kCheckpointMagic[8] = {'C', 'F', 'I', 'R',
                                             'C', 'K', 'P', '1'};
inline constexpr char kCheckpointMagicV2[8] = {'C', 'F', 'I', 'R',
                                               'C', 'K', 'P', '2'};
inline constexpr uint32_t kCheckpointVersion = 1;
inline constexpr uint32_t kCheckpointVersionWarm = 2;

struct Checkpoint {
  uint64_t pc = 0;
  uint64_t executed = 0;  ///< instructions retired before this point
  std::array<uint64_t, isa::kNumLogicalRegs> regs{};
  mem::MainMemory memory;
  /// Optional functional-warm-state blob (FunctionalWarmer::serialize_state
  /// for the config the interval will run under); empty = cold checkpoint.
  std::vector<uint8_t> warm;

  [[nodiscard]] bool has_warm() const { return !warm.empty(); }

  /// Writes v2 when warm state is attached and `include_warm`, v1
  /// otherwise. `include_warm = false` strips the warm blob from the file
  /// without copying the (large) memory image — multi-config manifests
  /// share one cold architectural checkpoint per interval and carry warm
  /// state in per-config sidecars instead (trace/manifest.hpp).
  void save(const std::string& path, bool include_warm = true) const;
  [[nodiscard]] static Checkpoint load(const std::string& path);
};

/// Runs the functional engine `n_insts` instructions from program start
/// (fresh memory, data image applied) and snapshots the result. Stops early
/// at HALT; check `executed` when exactness matters.
[[nodiscard]] Checkpoint fast_forward(const isa::Program& program,
                                      uint64_t n_insts);

/// One engine pass capturing a checkpoint at every boundary (sorted,
/// strictly increasing instruction counts; 0 snapshots the initial state).
/// Returns one checkpoint per boundary; boundaries past HALT repeat the
/// final state.
[[nodiscard]] std::vector<Checkpoint> interval_checkpoints(
    const isa::Program& program, const std::vector<uint64_t>& boundaries);

/// Architectural snapshots (pc, executed, registers, memory clone) kept
/// along one engine pass at every multiple of a grain, so that a position
/// of the run chosen only after the pass (a cluster plan's representative
/// windows) can be checked out by re-executing less than one grain rather
/// than the whole prefix. The grain starts at kStartGrain; once more than
/// kMaxSnapshots are kept, the odd multiples are dropped and the grain
/// doubles, so a pass of N instructions keeps at most kMaxSnapshots + 1
/// snapshots and its grain stays at most max(kStartGrain, N / 32).
///
/// Each snapshot clones the memory image. At scale 8 that is 1-4 pages
/// (0.1-1.2 us a clone); a larger data footprint multiplies the
/// snapshots' memory by up to kMaxSnapshots + 1, and copy-on-write pages
/// shared with the live image would be the fix there.
class SnapshotLadder {
 public:
  static constexpr uint64_t kStartGrain = 16 * 1024;
  static constexpr size_t kMaxSnapshots = 64;

  /// Runs `engine`, whose memory is `memory` and which must be at
  /// instruction 0, until HALT or `cap` instructions, snapshotting at
  /// every multiple of the grain (0 included).
  void run(isa::FunctionalEngine& engine, const mem::MainMemory& memory,
           uint64_t cap);

  /// The checkpoint at each of `positions` (instruction counts of the run,
  /// any order): resumes a functional engine from the latest snapshot at
  /// or before the position and runs the remainder. Equal to
  /// interval_checkpoints(program, positions) for sorted positions;
  /// positions past HALT repeat the final state.
  [[nodiscard]] std::vector<Checkpoint> checkpoints(
      const isa::Program& program,
      const std::vector<uint64_t>& positions) const;

  [[nodiscard]] uint64_t grain() const { return grain_; }
  [[nodiscard]] size_t size() const { return snaps_.size(); }

 private:
  uint64_t grain_ = kStartGrain;
  std::vector<Checkpoint> snaps_;  ///< snaps_[i].executed == i * grain_
};

}  // namespace cfir::trace
