// Shard manifest — the serialized form of an interval plan, and the "plan"
// layer of the plan / execute / merge decomposition of sampled simulation
// (docs/sharding.md):
//
//   plan    — plan_intervals / plan_cluster_intervals build an
//             IntervalPlan; bind_configs binds the config grid;
//             write_manifest freezes everything to disk as one CFIRMAN2
//             manifest, one architectural CFIRCKP checkpoint blob per
//             interval (shared by every config), and one warm-state
//             sidecar per (interval, config) when the warm mode has a
//             functional prefix.
//   execute — any machine loads the manifest, rebuilds the plan
//             (plan_from_manifest) and the bindings
//             (bindings_from_manifest), and runs a subset of its
//             intervals under every config (trace/shard.hpp), emitting
//             one CFIRSHD2 result blob.
//   merge   — the result blobs fold back into one single-process answer
//             per config (trace::merge_shard_grid / stats::merge_shards).
//
// The experiment point is decomposed into a **config-independent plan**
// (interval boundaries, lengths, weights, architectural checkpoints —
// identical for every core configuration of the same workload) and
// **per-config bindings** (the core to simulate and its functional warm
// state, whose predictor/cache geometry differs per config). One plan
// therefore drives a whole bench grid: the manifest records a
// **plan hash** (plan_structure_hash — workload identity + plan
// structure) stamped into every shard result, plus one **config hash**
// (core::CoreConfig::digest()) per grid point, so results produced under
// a different plan or config are rejected at merge time
// (ConfigMismatchError) instead of being silently averaged.
//
// File format, version 2 (little-endian, shared CRC-32 footer required —
// trace/blob.hpp):
//   magic "CFIRMAN2" | u32 version | u32 reserved
//   | u64 plan_hash
//   | u8 mode | u8 warm_mode | u64 warmup | u64 total_insts
//   | u64 interval_len | u8 ran_to_halt
//   | u32 scale | u32 workload_len | workload bytes
//   | u32 n_configs
//   | n_configs x (u32 name_len | name bytes | u64 config_hash
//                  | u32 cfg_len | CoreConfig bytes (core/config.hpp
//                    X-macro codec))
//   | u32 n_intervals
//   | n x (u64 start | u64 length | u64 weight_bits(double)
//          | u32 file_len | checkpoint file name bytes
//          | n_configs x (u32 file_len | warm sidecar file name bytes,
//            empty when the config has no warm state for this interval))
//   | "CRC1" | u32 crc32
// All file names are relative to the manifest's directory, so a manifest,
// its checkpoints and its warm sidecars move between machines as one
// directory. The retired single-config "CFIRMAN1" layout is recognised
// only to be rejected (VersionError).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "trace/sampling.hpp"
#include "trace/shard.hpp"

namespace cfir::trace {

inline constexpr char kManifestMagicV2[8] = {'C', 'F', 'I', 'R',
                                             'M', 'A', 'N', '2'};
inline constexpr uint32_t kManifestVersion = 2;

/// `path` minus its final extension (".cfirman" usually) — the stem the
/// manifest's sibling artifacts are named from: write_manifest puts
/// checkpoints at `<stem>.ck<i>.cfirckpt`, warm sidecars at
/// `<stem>.ck<i>.cfg<c>.cfirwarm`, and trace_tool defaults shard results
/// to `<stem>.shard<i>of<N>.cfirshd`. One definition so the file layout
/// cannot drift between the planner and the tools.
[[nodiscard]] std::string path_stem(const std::string& path);

struct ShardManifest {
  std::string workload;  ///< cfir::workloads name — rebuilds the program
  uint32_t scale = 1;
  uint64_t plan_hash = 0;  ///< plan_structure_hash (config-independent)
  SampleMode mode = SampleMode::kUniform;
  WarmMode warm_mode = WarmMode::kDetailed;
  uint64_t warmup = 0;
  uint64_t total_insts = 0;
  uint64_t interval_len = 0;  ///< cluster mode: source-window length
  bool ran_to_halt = false;

  /// One config point of the grid this manifest farms.
  struct ConfigPoint {
    std::string name;          ///< column label (CoreConfig::label())
    uint64_t config_hash = 0;  ///< CoreConfig::digest()
    core::CoreConfig config;
  };
  std::vector<ConfigPoint> configs;

  struct IntervalRef {
    uint64_t start = 0;   ///< first measured instruction index
    uint64_t length = 0;  ///< measured instructions
    double weight = 1.0;  ///< population this interval stands in for
    std::string checkpoint_file;  ///< relative to the manifest's directory
    /// One warm-sidecar file name per config point (in `configs` order;
    /// empty string = no warm state).
    std::vector<std::string> warm_files;
  };
  std::vector<IntervalRef> intervals;

  /// Payload bytes (no CRC footer). Deterministic: serialize ∘ deserialize
  /// is the identity on the bytes (fuzz-locked in tests/test_shard.cpp).
  [[nodiscard]] std::vector<uint8_t> serialize() const;
  [[nodiscard]] static ShardManifest deserialize(
      const std::vector<uint8_t>& payload);

  void save(const std::string& path) const;
  [[nodiscard]] static ShardManifest load(const std::string& path);
};

/// Workload identity + plan structure (mode, warm mode, boundaries,
/// lengths, weights). Two manifests share this iff their checkpoints and
/// interval schedules are interchangeable — which is exactly what lets one
/// checkpoint set serve every config of a grid.
[[nodiscard]] uint64_t plan_structure_hash(const std::string& workload,
                                           uint32_t scale,
                                           const IntervalPlan& plan);

/// Plan layer driver, config grid (CFIRMAN2): writes `plan` as one
/// manifest, one **cold** architectural checkpoint per interval (shared by
/// every config), and one warm sidecar per (interval, config) carrying
/// that binding's functional warm state. Every binding's config travels in
/// the manifest, so the execute layer needs no out-of-band preset.
ShardManifest write_manifest(const IntervalPlan& plan,
                             const std::vector<ConfigBinding>& bindings,
                             const std::string& workload, uint32_t scale,
                             const std::string& manifest_path);

/// Rebuilds a runnable IntervalPlan from a manifest, loading every
/// referenced checkpoint relative to the manifest's directory, in parallel
/// on the shared pool. Cluster diagnostics (cluster_of, bic_by_k) are not
/// stored and come back empty.
[[nodiscard]] IntervalPlan plan_from_manifest(const ShardManifest& manifest,
                                              const std::string&
                                                  manifest_path);

/// Rebuilds the config bindings of a manifest, loading each (interval,
/// config) warm sidecar relative to the manifest's directory. `shard`
/// (default: the whole plan) limits the sidecar reads to the intervals
/// that shard executes — a worker of an N-shard farm reads 1/N of the warm
/// blobs, and the skipped intervals' slots stay empty (which run_shard
/// never touches for uncovered intervals).
[[nodiscard]] std::vector<ConfigBinding> bindings_from_manifest(
    const ShardManifest& manifest, const std::string& manifest_path,
    ShardSelection shard = {});

/// Recomputes plan_structure_hash for `plan` (throws
/// ConfigMismatchError on mismatch — a plan from some other planning run)
/// and validates that every checkpoint sits at the instruction position
/// the schedule demands (throws CorruptFileError otherwise — a wrong or
/// swapped .cfirckpt in the manifest directory). The position check is
/// the half with teeth for a plan freshly reloaded from this manifest:
/// the hash covers only manifest fields, but the checkpoints come from
/// sibling files that can be tampered with independently.
void verify_manifest_plan(const ShardManifest& manifest,
                          const IntervalPlan& plan);

}  // namespace cfir::trace
