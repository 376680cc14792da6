// SMARTS-style functional warming (Wunderlich et al., ISCA'03 — see
// docs/sampling.md "Functional warming"): stream the committed-instruction
// records of the gap before a detailed interval through the predictors and
// caches *only*, at functional-engine speed, so the detailed interval
// starts with warm microarchitectural state without paying detailed
// simulation for the warm-up.
//
// The FunctionalWarmer owns standalone instances of every Warmable
// component the core trains on the committed path — gshare, MBS, RAS, the
// stride predictor and the four-level cache hierarchy — built from the same
// CoreConfig as the detailed core. Streaming a committed prefix through
// on_record() reproduces, component by component, exactly the state a
// detailed run's commit-path training leaves behind (tests/
// test_functional_warming.cpp locks this in per component); apply_to()
// then copies that state into a freshly constructed Simulator before its
// first cycle. Warm state also serializes to a sparse blob (WRM2: only the
// entries that left their reset value, docs/trace-format.md), which is
// how a grid capture hands it to each detailed unit; install_warm_state()
// decodes such a blob straight into a fresh Simulator.
//
// Only the stride predictor depends on the policy: ci trains it, vect
// trains and selects, and none and ci-iw have none. Everything else a
// blob holds (SharedWarmState) is a function of the warm geometry alone,
// so a grid capture trains it once per geometry and serializes it once per
// snapshot for every policy sharing that geometry.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "branch/gshare.hpp"
#include "branch/mbs.hpp"
#include "branch/ras.hpp"
#include "ci/stride_predictor.hpp"
#include "core/config.hpp"
#include "isa/program.hpp"
#include "mem/hierarchy.hpp"
#include "trace/trace.hpp"

namespace cfir::sim {
class Simulator;
}  // namespace cfir::sim

namespace cfir::trace {

/// How a detailed interval's state is warmed before measurement begins.
enum class WarmMode : uint8_t {
  kNone = 0,       ///< cold start at the interval boundary
  kDetailed = 1,   ///< detail-simulate W extra instructions, subtract stats
  kFunctional = 2, ///< stream the whole prefix through predictors/caches
  kHybrid = 3,     ///< functional prefix + a short detailed tail of W insts
};

[[nodiscard]] const char* warm_mode_name(WarmMode mode);
/// Parses "none" | "detailed" | "functional" | "hybrid"; anything else
/// throws util::UsageError naming `what` (the knob or flag) and `text`, so
/// a misspelled mode fails loudly instead of silently running cold.
[[nodiscard]] WarmMode parse_warm_mode(std::string_view what,
                                       std::string_view text);

/// True when `mode` runs a detailed warm-up slice before the measured
/// window (and therefore wants checkpoints captured `warmup` insts early).
[[nodiscard]] constexpr bool warm_mode_has_detailed_slice(WarmMode mode) {
  return mode == WarmMode::kDetailed || mode == WarmMode::kHybrid;
}

/// True when `mode` streams a functional prefix through predictors/caches.
[[nodiscard]] constexpr bool warm_mode_has_functional_prefix(WarmMode mode) {
  return mode == WarmMode::kFunctional || mode == WarmMode::kHybrid;
}

/// The warm state every policy of one warm geometry trains alike from the
/// committed stream — gshare, MBS, RAS and the cache hierarchy — plus the
/// position and fetch-line state a WRM2 blob header carries. A
/// FunctionalWarmer owns one; capture_warm_states_grid trains one per
/// shared geometry, the predictors and the hierarchy on separate lanes,
/// and feeds its policies' stride predictors on a third lane.
struct SharedWarmState {
  /// Components sized from `config` as the detailed core sizes its own;
  /// `program` (which must outlive this) resolves CALL/RET for the RAS.
  SharedWarmState(const core::CoreConfig& config, const isa::Program& program);

  /// Trains every shared component on one committed instruction, through
  /// the same per-component trainers a grid capture's lanes call.
  void train(const isa::StepEvent& ev);

  const isa::Program* program;
  branch::Gshare gshare;
  branch::MbsTable mbs;
  branch::ReturnAddressStack ras;
  /// On its own cache line: a grid capture trains it (with
  /// last_fetch_line) on another thread than the predictors above.
  alignas(64) mem::CacheHierarchy hier;
  uint64_t last_fetch_line = ~uint64_t{0};
  uint64_t warmed = 0;  ///< committed instructions trained so far
};

class FunctionalWarmer {
 public:
  /// Components are sized from `config` exactly as the detailed core sizes
  /// its own; `program` must outlive the warmer (opcode lookup for RAS
  /// call/ret handling references it).
  FunctionalWarmer(const core::CoreConfig& config, const isa::Program& program);

  /// Feeds one committed instruction, in commit order.
  void on_record(const isa::StepEvent& ev);

  /// Streams the records from the warmer's position up to (program-global)
  /// instruction count `n_insts` out of a recorded trace through
  /// on_record(); a CFIRTRC2 reader seeks straight to the position.
  /// Monotonic: a target at or below the position is a no-op, so one
  /// warmer can snapshot several sorted boundaries in one pass. The
  /// recorded stream is the functional engine's event stream, so the
  /// blobs equal capture_warm_states_grid's byte for byte: the tests'
  /// per-record oracle for the grid. `reader` must be the trace of
  /// `program`. `context` (e.g. "interval 3 of 8") is appended to the
  /// truncated-trace error so it names the warm gap that fell off the end
  /// of the trace instead of just a bare record count.
  void advance_on_trace(TraceReader& reader, uint64_t n_insts,
                        std::string_view context = {});

  /// Committed instructions warmed so far.
  [[nodiscard]] uint64_t warmed() const { return shared_.warmed; }

  /// Copies the warm component state into `sim` (which must be freshly
  /// constructed from the same CoreConfig and not yet run). The stride
  /// predictor transfers only when the policy has a CiMechanism.
  void apply_to(sim::Simulator& sim) const;

  /// The sparse WRM2 warm-state blob (docs/trace-format.md "Warm-state
  /// blob"): policy, position, and each component's geometry plus only
  /// its non-default entries. deserialize_state() restores it exactly and
  /// throws the typed errors of trace/errors.hpp: ConfigMismatchError for
  /// a blob of another policy or geometry, VersionError for the retired
  /// dense WRM1 layout, BadMagicError for a non-warm-state blob, and
  /// CorruptFileError for truncation, trailing bytes or an entry count,
  /// slot or counter out of range.
  [[nodiscard]] std::vector<uint8_t> serialize_state() const;
  void deserialize_state(const std::vector<uint8_t>& blob);

  // Per-component introspection for the differential tests. The stride
  // predictor of a policy without one stays at its reset state.
  [[nodiscard]] const branch::Gshare& gshare() const { return shared_.gshare; }
  [[nodiscard]] const branch::MbsTable& mbs() const { return shared_.mbs; }
  [[nodiscard]] const branch::ReturnAddressStack& ras() const {
    return shared_.ras;
  }
  [[nodiscard]] const ci::StridePredictor& stride_predictor() const {
    return stride_;
  }
  [[nodiscard]] const mem::CacheHierarchy& hierarchy() const {
    return shared_.hier;
  }

 private:
  core::Policy policy_;
  SharedWarmState shared_;
  ci::StridePredictor stride_;
};

/// Decodes a FunctionalWarmer::serialize_state() blob straight into the
/// components of `sim`, which must be freshly constructed from a config
/// with the blob's policy and geometry and not yet run. Leaves `sim` as
/// deserialize_state() + apply_to() would, without building a warmer or
/// copying its tables (run_shard's per-unit path). Same checks, same
/// typed errors as deserialize_state().
void install_warm_state(const std::vector<uint8_t>& blob, sim::Simulator& sim);

/// One config's warm-state blobs at each target instruction count
/// (`targets` must be non-decreasing — interval plans are):
/// capture_warm_states_grid({config}, program, targets)[0]. Element i is
/// the blob for warming [0, targets[i]).
[[nodiscard]] std::vector<std::vector<uint8_t>> capture_warm_states(
    const core::CoreConfig& config, const isa::Program& program,
    const std::vector<uint64_t>& targets);

/// The one warm-capture loop the pipeline runs, behind every sampled run
/// and config-grid shard (docs/sharding.md): ONE
/// functional-engine pass fans every committed record out to the whole
/// grid, so warming it costs O(prefix) architectural execution instead of
/// O(prefix × configs) — the committed stream is config-independent; only
/// the trained components differ. Configs are grouped by their
/// warm_digest() with the policy byte left out: each group trains one
/// SharedWarmState plus one stride predictor per distinct stride-training
/// policy (ci, vect), and at each target serializes each section once and
/// assembles every member's blob from them. Result[c][i] is the blob for
/// config c warmed over [0, targets[i]), bit-identical to what a solo
/// FunctionalWarmer fed the same records produces (same trainers, same
/// layout).
///
/// The capture is pipelined (docs/sampling.md "Pipelined warming"): the
/// engine fills fixed-size event batches one batch ahead of the training.
/// Each round is one pool batch: the engine fills the next buffer while
/// each group's lanes — the cache hierarchy, the branch predictors, and
/// (when any policy trains one) the stride predictors — walk the current
/// one, each in stream order on one thread and serializing its own
/// sections at every target. So the blobs do not depend on the pool's
/// size. A program that halts before the last target snapshots the
/// remaining targets at its final state. The warming.trainers counter
/// adds the number of groups; warming.lane_*_us add each lane's busy time.
[[nodiscard]] std::vector<std::vector<std::vector<uint8_t>>>
capture_warm_states_grid(const std::vector<core::CoreConfig>& configs,
                         const isa::Program& program,
                         const std::vector<uint64_t>& targets);

}  // namespace cfir::trace
