// Shard manifest — the serialized form of an interval plan, and the "plan"
// layer of the plan / execute / merge decomposition of sampled simulation
// (docs/sharding.md):
//
//   plan    — plan_intervals / plan_cluster_intervals build an
//             IntervalPlan; write_manifest freezes it and its config grid
//             to disk as one CFIRMAN2 manifest plus one architectural
//             CFIRCKP checkpoint blob per interval (shared by every
//             config).
//   execute — any machine loads the manifest, rebuilds the plan
//             (plan_from_manifest, which reads no checkpoint), and runs a
//             contiguous range of its intervals under every config,
//             loading only that range's checkpoints and capturing their
//             warm state itself (trace/shard.hpp), into one CFIRSHD2
//             result blob.
//   merge   — the result blobs fold back into one single-process answer
//             per config (trace::merge_shard_grid / stats::merge_shards).
//
// The experiment point is decomposed into a **config-independent plan**
// (interval boundaries, lengths, weights, architectural checkpoints —
// identical for every core configuration of the same workload) and
// **per-config bindings** (the core to simulate). One plan therefore
// drives a whole bench grid: the manifest records a **plan hash**
// (plan_structure_hash — workload identity + plan structure) stamped into
// every shard result, plus one **config hash** (core::CoreConfig::digest())
// per grid point, so results produced under a different plan or config
// are rejected at merge time (ConfigMismatchError) instead of being
// silently averaged.
//
// File format, version 3 (little-endian, shared CRC-32 footer required —
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
//          | u32 file_len | checkpoint file name bytes)
//   | "CRC1" | u32 crc32
// Checkpoint file names are relative to the manifest's directory, so a
// manifest and its checkpoints move between machines as one directory.
// The retired single-config "CFIRMAN1" layout and CFIRMAN2 version 2
// (which named per-config warm-state files) are recognised only to be
// rejected (VersionError).
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
inline constexpr uint32_t kManifestVersion = 3;

/// `path` minus its final extension (".cfirman" usually) — the stem the
/// manifest's sibling artifacts are named from: write_manifest puts
/// checkpoints at `<stem>.ck<i>.cfirckpt`, and trace_tool defaults shard
/// results to `<stem>.shard<i>of<N>.cfirshd`. One definition so the file
/// layout cannot drift between the planner and the tools.
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

  /// The grid this manifest farms, every label and config hash filled in.
  std::vector<ConfigBinding> configs;

  struct IntervalRef {
    uint64_t start = 0;   ///< first measured instruction index
    uint64_t length = 0;  ///< measured instructions
    double weight = 1.0;  ///< population this interval stands in for
    std::string checkpoint_file;  ///< relative to the manifest's directory
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
/// manifest and one **cold** architectural checkpoint per interval (shared
/// by every config). Every binding's config travels in the manifest, so
/// the execute layer needs no out-of-band preset. `plan` must hold its
/// checkpoint images: a plan rebuilt by plan_from_manifest (which names
/// files instead) is rejected.
ShardManifest write_manifest(const IntervalPlan& plan,
                             const std::vector<ConfigBinding>& bindings,
                             const std::string& workload, uint32_t scale,
                             const std::string& manifest_path);

/// Rebuilds a runnable IntervalPlan from a manifest without reading a
/// checkpoint: `checkpoint_files` gets each interval's file resolved
/// against the manifest's directory, and `checkpoints[i]` holds only
/// `executed`, set to checkpoint_positions(plan)[i]. run_shard loads the
/// images of its own range and rejects a file captured elsewhere. Cluster
/// diagnostics (cluster_of, bic_by_k) are not stored and come back empty.
[[nodiscard]] IntervalPlan plan_from_manifest(const ShardManifest& manifest,
                                              const std::string&
                                                  manifest_path);

/// Returns `manifest.configs`. The unnamed parameters are read by nothing:
/// perfbench (frozen with the repo benchmark) still passes a manifest path
/// and a shard selection there.
[[nodiscard]] std::vector<ConfigBinding> bindings_from_manifest(
    const ShardManifest& manifest, const std::string&,
    ShardSelection = {});

/// Recomputes plan_structure_hash for `plan` and throws
/// ConfigMismatchError on mismatch — a plan from some other planning run.
/// The hash covers only manifest fields; the sibling .cfirckpt files are
/// checked where they are read: run_shard throws CorruptFileError for a
/// file in its range whose position is not the one the schedule demands
/// (a wrong or swapped file in the manifest directory).
void verify_manifest_plan(const ShardManifest& manifest,
                          const IntervalPlan& plan);

}  // namespace cfir::trace
