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

}  // namespace cfir::trace
