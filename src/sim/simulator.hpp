// Top-level wiring: program + memory image + core + mechanism, selected by
// CoreConfig::policy. This is the public entry point downstream users call:
//
//   auto program = cfir::workloads::build("bzip2", /*scale=*/1);
//   cfir::sim::Simulator sim(cfir::sim::presets::ci(2, 512), program);
//   auto stats = sim.run(100'000);
#pragma once

#include <memory>

#include "ci/mechanism.hpp"
#include "ci/squash_reuse.hpp"
#include "core/pipeline.hpp"
#include "isa/interpreter.hpp"
#include "isa/program.hpp"

namespace cfir::trace {
struct Checkpoint;
class TraceWriter;
}  // namespace cfir::trace

namespace cfir::sim {

class Simulator {
 public:
  /// Copies the program; applies its data image to a fresh memory.
  Simulator(const core::CoreConfig& config, isa::Program program);

  /// Resumes from an architectural checkpoint: the memory image, register
  /// file and PC come from `start` instead of the program's initial state.
  /// Used by interval sampling (trace::sampled_run) and `trace_tool`.
  Simulator(const core::CoreConfig& config, isa::Program program,
            const trace::Checkpoint& start);

  /// Runs until `max_insts` commits (or HALT); returns the final stats.
  stats::SimStats run(uint64_t max_insts);

  /// Streams every committed instruction into `writer` (trace capture from
  /// the detailed core; HALT is not recorded, matching the interpreter's
  /// retirement count). Call before run(); `writer` must outlive the run.
  void attach_trace(trace::TraceWriter& writer);

  [[nodiscard]] core::Core& core() { return *core_; }
  [[nodiscard]] const isa::Program& program() const { return program_; }
  [[nodiscard]] mem::MainMemory& memory() { return memory_; }
  /// Non-null when policy is kCi or kVect.
  [[nodiscard]] ci::CiMechanism* ci_mechanism() { return ci_; }
  /// Non-null when policy is kCiWindow.
  [[nodiscard]] ci::SquashReuseMechanism* squash_reuse_mechanism() {
    return sr_;
  }
  [[nodiscard]] uint64_t memory_digest() const { return memory_.digest(); }
  [[nodiscard]] uint64_t arch_reg(int r) const { return core_->arch_reg(r); }
  /// Whether any run() of this Simulator, a detailed warm-up included,
  /// reached the register or ROB capacity (core::Core::hit_capacity).
  [[nodiscard]] bool hit_capacity() const { return core_->hit_capacity(); }

 private:
  isa::Program program_;
  mem::MainMemory memory_;
  std::unique_ptr<core::Mechanism> mech_;
  std::unique_ptr<core::Core> core_;
  ci::CiMechanism* ci_ = nullptr;
  ci::SquashReuseMechanism* sr_ = nullptr;
};

/// Differential check: runs the program both on the reference interpreter
/// and on the configured core; returns true when final register file and
/// memory digest agree after `max_insts` committed instructions.
struct DiffResult {
  bool match = false;
  uint64_t executed = 0;
  std::string mismatch;  ///< empty when match
};
[[nodiscard]] DiffResult differential_run(const core::CoreConfig& config,
                                          const isa::Program& program,
                                          uint64_t max_insts);

}  // namespace cfir::sim
